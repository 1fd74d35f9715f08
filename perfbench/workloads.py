"""The four benchmark workloads: seeded inputs, output checks, physics figures.

Each workload defines one "op":

``baseline_scan``
    ``heraldsim uncertainty --config <baseline> --out <csv>``: report,
    rates and the 21 x 5 error scan (106 ``generated_state`` calls).
``mc_crosscheck``
    ``heraldsim uncertainty`` on the baseline without its scan section,
    with ``--seed <bench seed> --samples 200000`` (Monte Carlo path).
``design_sweep``
    one ``generated_state`` + ``count_rate`` + ``accidental_fraction``
    library call on one seeded random configuration.
``surface_table``
    ``heraldsim surface --delta21-points 401 --v12-points 101 --out <csv>``.

Inputs are generated here, before any clock starts; the program sees
only the generated files.  The checks run after the measured process
has exited, once per distinct output, so they cost no measured time.
"""

import csv
import io
import itertools
import json
import math
import shutil
from pathlib import Path

import numpy as np

WORKLOADS = ("baseline_scan", "mc_crosscheck", "design_sweep", "surface_table")

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference"
BASELINE_SCENARIO = ROOT / "scenarios" / "baseline.json"

#: outputs recorded from the unmodified program may move by summation
#: order, never by more than this (absolute)
REFERENCE_ATOL = 1e-9

MC_SAMPLES = 200_000
#: |mc_delta_c - delta_c| over seeds 0-59 at 200k samples has standard
#: deviation 2.9e-6 (max 7.2e-6); 2e-5 is about seven standard deviations
MC_DEVIATION_BOUND = 2e-5

SURFACE_POINTS = (401, 101)

#: node counts per axis for the general design draws; every
#: (theta, chi, trap) combination appears once per pass, so each run
#: sees the same mix of phase-matrix sizes (16 KB to 16.8 MB)
SWEEP_NODE_COUNTS = (4, 8, 12, 16)
#: one point-detector, pinned-emitter draw per four general draws (20%)
SWEEP_POINT_DRAWS = 16
#: draws whose nominal herald weight 1 + V cos(delta21) falls below this
#: are redrawn, so no op hits the zero-probability herald
SWEEP_MIN_HERALD_WEIGHT = 0.05
#: the generated-state concurrence must match the matrix-square-root
#: Wootters route this closely (near-pure states lose digits in sqrtm)
WOOTTERS_ATOL = 1e-7
STATE_ATOL = 1e-12


def generate_inputs(workload, seed, workdir):
    """Write the workload's inputs into ``workdir``; return the input spec.

    The spec is a JSON-able dict.  CLI workloads carry ``argv``; the
    sweep carries its draws.  The same seed gives the same inputs.
    """
    workdir = Path(workdir)
    out_csv = str(workdir / "out.csv")
    if workload == "baseline_scan":
        scenario = workdir / "scenario.json"
        shutil.copyfile(BASELINE_SCENARIO, scenario)
        spec = {"argv": ["uncertainty", "--config", str(scenario), "--out", out_csv],
                "scenario": str(scenario)}
    elif workload == "mc_crosscheck":
        doc = json.loads(BASELINE_SCENARIO.read_text(encoding="utf-8"))
        del doc["scan"]
        scenario = workdir / "scenario.json"
        scenario.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        spec = {"argv": ["uncertainty", "--config", str(scenario), "--seed", str(seed),
                         "--samples", str(MC_SAMPLES)],
                "scenario": str(scenario)}
    elif workload == "design_sweep":
        spec = {"draws": sweep_draws(seed)}
    elif workload == "surface_table":
        spec = {"argv": ["surface", "--delta21-points", str(SURFACE_POINTS[0]),
                         "--v12-points", str(SURFACE_POINTS[1]), "--out", out_csv]}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    spec["out_csv"] = out_csv if "--out" in spec.get("argv", ()) else None
    (workdir / "inputs.json").write_text(json.dumps(spec), encoding="utf-8")
    return spec


# ---------------------------------------------------------------- design sweep


def _random_polarizer(rng):
    parts = rng.standard_normal(4)
    return [[float(parts[0]), float(parts[1])], [float(parts[2]), float(parts[3])]]


def _random_draw(rng, nodes):
    """General draw: random analyzers, finite patches, trap motion."""
    def detector():
        return {
            "theta_center": float(np.pi / 2 + rng.uniform(-0.3, 0.3)),
            "chi_center": float(rng.uniform(-0.3, 0.3)),
            "span_theta": float(rng.uniform(1e-3, 20e-3)),
            "span_chi": float(rng.uniform(0.05, np.pi / 4)),
            "polarizer": _random_polarizer(rng),
        }

    return {
        "point": False,
        "separation": float(rng.uniform(2e-6, 20e-6)),
        "wavelength": float(rng.uniform(400e-9, 900e-9)),
        "confinement": float(rng.uniform(0.0, 60e-9)),
        "repetition_rate": float(rng.uniform(1e6, 50e6)),
        "detector_efficiency": float(rng.uniform(0.1, 0.9)),
        "dark_count_rate": float(rng.uniform(0.0, 500.0)),
        "coincidence_window": float(rng.uniform(1e-9, 20e-9)),
        "detector1": detector(),
        "detector2": detector(),
        "quadrature": list(nodes),
    }


def _point_draw(rng):
    """Point detectors and pinned emitters: a single quadrature node."""
    draw = _random_draw(rng, (1, 1, 1))
    draw["point"] = True
    draw["confinement"] = 0.0
    for key in ("detector1", "detector2"):
        draw[key]["span_theta"] = 0.0
        draw[key]["span_chi"] = 0.0
    return draw


def build_config(draw):
    """ExperimentConfig and QuadratureSpec described by one draw."""
    from heraldsim import (AtomPairLayout, DetectorPatch, ExperimentConfig,
                           Polarizer, QuadratureSpec, TrapModel)

    def patch(det):
        (a, b), (c, d) = det["polarizer"]
        return DetectorPatch(
            theta_center=det["theta_center"], chi_center=det["chi_center"],
            span_theta=det["span_theta"], span_chi=det["span_chi"],
            polarizer=Polarizer.general(complex(a, b), complex(c, d)),
        )

    config = ExperimentConfig(
        layout=AtomPairLayout(separation=draw["separation"], wavelength=draw["wavelength"]),
        trap=TrapModel(confinement=draw["confinement"]),
        detector1=patch(draw["detector1"]),
        detector2=patch(draw["detector2"]),
        repetition_rate=draw["repetition_rate"],
        detector_efficiency=draw["detector_efficiency"],
        dark_count_rate=draw["dark_count_rate"],
        coincidence_window=draw["coincidence_window"],
    )
    theta, chi, trap = draw["quadrature"]
    return config, QuadratureSpec(points_theta=theta, points_chi=chi, points_trap=trap)


def _nominal_herald(draw):
    """Point-design ``HeraldedOutcome`` at the patch centres of one draw."""
    from heraldsim import farfield_phase, heralded_state, polarizer_to_jones

    config, _ = build_config(draw)
    jones1 = polarizer_to_jones(config.detector1.polarizer)
    jones2 = polarizer_to_jones(config.detector2.polarizer)
    delta = (farfield_phase(config.layout, config.detector2.theta_center,
                            config.detector2.chi_center)
             - farfield_phase(config.layout, config.detector1.theta_center,
                              config.detector1.chi_center))
    return heralded_state(jones1, jones2, delta)


def sweep_draws(seed):
    """One pass of design draws: 64 general (every node-count combination) + 16 point."""
    rng = np.random.default_rng([seed, 0x5EED])
    plans = [(False, nodes) for nodes in itertools.product(SWEEP_NODE_COUNTS, repeat=3)]
    plans += [(True, None)] * SWEEP_POINT_DRAWS
    draws = []
    for point, nodes in plans:
        while True:
            draw = _point_draw(rng) if point else _random_draw(rng, nodes)
            outcome = _nominal_herald(draw)
            if 1.0 + outcome.v12 * math.cos(outcome.delta21) >= SWEEP_MIN_HERALD_WEIGHT:
                break
        draws.append(draw)
    order = rng.permutation(len(draws))
    return [draws[i] for i in order]


def sweep_output(index, report, rates, accidentals):
    """Plain, JSON-able record of one design-sweep op."""
    rho = np.asarray(report.rho_generated)
    return {
        "draw": index,
        "rho": [[[float(z.real), float(z.imag)] for z in row] for row in rho],
        "concurrence_target": report.concurrence_target,
        "concurrence_generated": report.concurrence_generated,
        "delta_c": report.delta_c,
        "fidelity": report.fidelity,
        "heralding_weight": report.heralding_weight,
        "v12": report.v12,
        "delta21_nominal": report.delta21_nominal,
        "rate_raw": rates.raw,
        "rate_corrected": rates.corrected,
        "accidental_fraction": accidentals,
    }


# ---------------------------------------------------------------- checks

_SPIN_FLIP = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
                      dtype=complex)


def wootters_sqrtm(rho):
    """Concurrence via matrix square roots, independent of the program's route."""
    import scipy.linalg

    root = scipy.linalg.sqrtm(rho)
    flipped = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    lam = np.sort(np.real(np.linalg.eigvals(scipy.linalg.sqrtm(root @ flipped @ root))))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def _parse_report(stdout):
    figures = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"unexpected stdout line {line!r}")
        figures[key.strip()] = float(value)
    return figures


def _compare_figures(got, want, keys):
    for key in keys:
        if key not in got:
            return f"missing figure {key}"
        if not abs(got[key] - want[key]) <= REFERENCE_ATOL:
            return f"{key} = {got[key]!r}, reference {want[key]!r}"
    return None


def _reference_report():
    return _parse_report((REFERENCE / "baseline_scan.stdout").read_text(encoding="utf-8"))


def _check_baseline_scan(output, spec):
    figures = _parse_report(output["stdout"])
    reference = _reference_report()
    if list(figures) != list(reference):
        return f"stdout figures {list(figures)} differ from the reference keys"
    problem = _compare_figures(figures, reference, reference)
    if problem:
        return problem
    want = list(csv.reader(io.StringIO(
        (REFERENCE / "baseline_scan.csv").read_text(encoding="utf-8"))))
    got = list(csv.reader(io.StringIO(output["csv"] or "")))
    if len(got) != len(want) or got[:1] != want[:1]:
        return f"scan CSV has {len(got)} lines, reference {len(want)}"
    for number, (row, ref) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(row) != len(ref) or any(
                not abs(float(a) - float(b)) <= REFERENCE_ATOL for a, b in zip(row, ref)):
            return f"scan CSV row {number} {row} differs from reference {ref}"
    return None


def _check_mc_crosscheck(output, spec):
    figures = _parse_report(output["stdout"])
    reference = _reference_report()
    report_keys = [k for k in reference if not k.startswith("scan_")]
    problem = _compare_figures(figures, reference, report_keys)
    if problem:
        return problem
    for key in ("mc_delta_c", "mc_fidelity", "mc_delta_c_deviation"):
        if key not in figures or not math.isfinite(figures[key]):
            return f"{key} missing or not finite"
    if not 0.0 <= figures["mc_fidelity"] <= 1.0:
        return f"mc_fidelity = {figures['mc_fidelity']} outside [0, 1]"
    if not figures["mc_delta_c_deviation"] <= MC_DEVIATION_BOUND:
        return (f"mc_delta_c_deviation = {figures['mc_delta_c_deviation']} exceeds the "
                f"statistical bound {MC_DEVIATION_BOUND}")
    return None


def _check_design_sweep(output, spec):
    draw = spec["draws"][output["draw"]]
    scalars = [v for k, v in output.items() if k not in ("draw", "rho")]
    if not all(math.isfinite(v) for v in scalars):
        return "non-finite figure"
    rho = np.array([[complex(*z) for z in row] for row in output["rho"]])
    if not np.all(np.isfinite(rho)):
        return "non-finite rho_generated"
    for key in ("concurrence_generated", "concurrence_target", "fidelity"):
        if not -STATE_ATOL <= output[key] <= 1.0 + STATE_ATOL:
            return f"{key} = {output[key]} outside [0, 1]"
    if np.max(np.abs(rho - rho.conj().T)) > STATE_ATOL:
        return "rho_generated is not Hermitian"
    if abs(np.trace(rho) - 1.0) > STATE_ATOL:
        return f"rho_generated has trace {np.trace(rho)}"
    independent = wootters_sqrtm(rho)
    if not abs(independent - output["concurrence_generated"]) <= WOOTTERS_ATOL:
        return (f"concurrence_generated = {output['concurrence_generated']}, "
                f"sqrtm Wootters gives {independent}")
    if not abs(output["delta_c"] - abs(output["concurrence_generated"]
                                       - output["concurrence_target"])) <= STATE_ATOL:
        return "delta_c is not |C_generated - C_target|"
    if output["rate_raw"] < 0.0 or not 0.0 <= output["accidental_fraction"] <= 1.0:
        return "rates out of range"
    eta = draw["detector_efficiency"]
    if not math.isclose(output["rate_corrected"], output["rate_raw"] * eta * eta,
                        rel_tol=1e-12, abs_tol=0.0):
        return "rate_corrected is not rate_raw * efficiency**2"
    if draw["point"]:
        outcome = _nominal_herald(draw)
        pure = np.outer(outcome.state, outcome.state.conj())
        if np.max(np.abs(rho - pure)) > STATE_ATOL:
            return "point draw: rho_generated differs from the heralded_state projector"
        if abs(output["fidelity"] - 1.0) > STATE_ATOL:
            return f"point draw: fidelity {output['fidelity']} is not 1"
    return None


def _check_surface_table(output, spec):
    rows = csv.reader(io.StringIO(output["csv"] or ""))
    if next(rows, None) != ["delta21_rad", "v12", "concurrence", "singular"]:
        return "surface CSV header differs"
    deltas = np.linspace(-math.pi, math.pi, SURFACE_POINTS[0])
    v12s = np.linspace(0.0, 1.0, SURFACE_POINTS[1])
    cells = itertools.product(deltas, v12s)
    count = singular = 0
    for row, (delta, v12) in zip(rows, cells):
        count += 1
        if len(row) != 4 or float(row[0]) != delta or float(row[1]) != v12:
            return f"surface row {count} {row} is not grid cell ({delta!r}, {v12!r})"
        expect_singular = v12 == 1.0 and abs(delta) == math.pi
        if row[3] != ("1" if expect_singular else "0"):
            return f"surface row {count} {row}: wrong singular flag"
        if expect_singular:
            singular += 1
            if row[2] != "":
                return f"surface row {count}: singular cell has a value"
            continue
        closed_form = (1.0 - v12) / (1.0 + v12 * math.cos(delta))
        if not abs(float(row[2]) - closed_form) <= STATE_ATOL:
            return f"surface row {count}: {row[2]} against (1 - V)/(1 + V cos) = {closed_form:.17g}"
    expected = SURFACE_POINTS[0] * SURFACE_POINTS[1]
    if count != expected or next(rows, None) is not None:
        return f"surface CSV has {count} or more rows, expected {expected}"
    if singular != 2:
        return f"{singular} singular cells, expected 2"
    return None


_CHECKS = {
    "baseline_scan": _check_baseline_scan,
    "mc_crosscheck": _check_mc_crosscheck,
    "design_sweep": _check_design_sweep,
    "surface_table": _check_surface_table,
}


def check_output(workload, output, spec):
    """None when the op's output is correct, else a one-line reason."""
    if "error" in output:
        return output["error"]
    if output.get("rc", 0) != 0:
        return f"exit code {output['rc']}"
    try:
        return _CHECKS[workload](output, spec)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {exc!r}"


def physics_figures(workload, outputs):
    """The answer the workload produced, recorded next to its timings."""
    if not outputs:
        return {}
    if workload == "design_sweep":
        return {
            "draws": len(outputs),
            "mean_delta_c": float(np.mean([o["delta_c"] for o in outputs])),
            "max_delta_c": max(o["delta_c"] for o in outputs),
            "min_fidelity": min(o["fidelity"] for o in outputs),
        }
    first = outputs[0]
    if "stdout" not in first:
        return {}
    if workload == "surface_table":
        values = [float(r[2]) for r in csv.reader(io.StringIO(first["csv"] or ""))
                  if r and r[2] not in ("", "concurrence")]
        return {"cells": len(values), "concurrence_sum": math.fsum(values)}
    figures = _parse_report(first["stdout"])
    keep = ("delta_c", "fidelity", "concurrence_generated", "scan_max_delta_c",
            "scan_min_fidelity", "mc_delta_c", "mc_delta_c_deviation")
    return {k: figures[k] for k in keep if k in figures}
