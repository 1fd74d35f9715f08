"""End-to-end acceptance gate.

One test per release criterion, each asserting its stated tolerance and
printing the measured figures.  Run with ``pytest -v`` to get one
pass/fail line per criterion.
"""

import time

import numpy as np
import pytest

from heraldsim import (
    Polarizer,
    ZeroProbabilityHeraldError,
    concurrence_analytic,
    concurrence_mixed,
    concurrence_pure,
    count_rate,
    delta_c_scan,
    g2,
    generated_state,
    heralded_state,
    load_scenario,
    polarizer_to_jones,
)
from heraldsim.cli import main

from helpers import (
    heralded_state_via_operators,
    point_detector_config,
    pure_to_density,
    random_jones,
    random_pure_state,
    werner_state,
)

BASELINE = "scenarios/baseline.json"


def test_criterion_01_closed_form_matches_analytic_concurrence():
    # 1e4 random analyzer pairs and phases, agreement < 1e-10, < 1 s
    rng = np.random.default_rng(101)
    samples = 10_000
    started = time.perf_counter()
    worst = 0.0
    skipped = 0
    for _ in range(samples):
        jones1 = random_jones(rng)
        jones2 = random_jones(rng)
        delta = rng.uniform(-np.pi, np.pi)
        try:
            outcome = heralded_state(jones1, jones2, delta)
        except ZeroProbabilityHeraldError:
            skipped += 1
            continue
        diff = abs(
            concurrence_pure(outcome.state)
            - concurrence_analytic(delta, outcome.v12)
        )
        worst = max(worst, diff)
    elapsed = time.perf_counter() - started
    assert worst < 1e-10
    assert elapsed < 1.0
    assert skipped < 10
    print(f"criterion 1: worst |C_state - C_analytic| = {worst:.3e} "
          f"over {samples - skipped} samples in {elapsed:.3f} s")


def test_criterion_02_operator_route_matches_closed_form():
    # 1e3 random inputs: amplitudes < 1e-12, weight vs 2(1+v cos d) < 1e-12
    rng = np.random.default_rng(102)
    worst_amp = 0.0
    worst_g2 = 0.0
    checked = 0
    while checked < 1000:
        jones1 = random_jones(rng)
        jones2 = random_jones(rng)
        phase1 = rng.uniform(-np.pi, np.pi)
        phase2 = rng.uniform(-np.pi, np.pi)
        try:
            via_ops = heralded_state_via_operators(jones1, jones2, phase1, phase2)
        except ZeroProbabilityHeraldError:
            continue
        checked += 1
        direct = heralded_state(jones1, jones2, phase2 - phase1)
        worst_amp = max(worst_amp, float(np.max(np.abs(via_ops.state - direct.state))))
        worst_g2 = max(
            worst_g2, abs(via_ops.g2 - g2(phase2 - phase1, via_ops.v12))
        )
    assert worst_amp < 1e-12
    assert worst_g2 < 1e-12
    print(f"criterion 2: worst amplitude diff = {worst_amp:.3e}, "
          f"worst weight diff = {worst_g2:.3e} over {checked} samples")


def test_criterion_03_extrema_on_phase_visibility_grid():
    # 200 x 200 grid, snapped to cos(delta) = +/-1; the v12 = 1 column is
    # excluded because its constructive/destructive extremum is the
    # zero-probability singularity
    deltas = np.linspace(-np.pi, np.pi, 201)[:-1]
    visibilities = np.linspace(0.0, 1.0, 201)[:-1]
    assert deltas.size == 200 and visibilities.size == 200
    # the grid hits both extremal phase factors exactly
    assert np.max(np.cos(deltas)) == 1.0 and np.min(np.cos(deltas)) == -1.0
    worst_min = 0.0
    worst_max = 0.0
    for v12 in visibilities:
        values = [concurrence_analytic(d, v12) for d in deltas]
        worst_min = max(worst_min, abs(min(values) - (1.0 - v12) / (1.0 + v12)))
        worst_max = max(worst_max, abs(max(values) - 1.0))
    assert worst_min < 1e-9
    assert worst_max < 1e-9
    print(f"criterion 3: min deviation = {worst_min:.3e}, "
          f"max deviation = {worst_max:.3e} on 200x200 grid")


def test_criterion_04_malus_law_analog():
    # quarter-period phase, linear analyzers: C follows sin^2(alpha)
    reference = polarizer_to_jones(Polarizer.linear(0.0))
    worst = 0.0
    for alpha in np.linspace(0.0, np.pi / 2, 100):
        probe = polarizer_to_jones(Polarizer.linear(alpha))
        v12 = float(abs(np.vdot(reference, probe)) ** 2)
        worst = max(
            worst,
            abs(concurrence_analytic(np.pi / 2, v12) - np.sin(alpha) ** 2),
        )
    assert worst < 1e-12
    print(f"criterion 4: worst |C - sin^2(alpha)| = {worst:.3e} over 100 angles")


def test_criterion_05_mixed_concurrence_consistency():
    # rank-1 projectors of 1e4 random pure states < 1e-10; Werner closed form
    rng = np.random.default_rng(105)
    worst_rank1 = 0.0
    for _ in range(10_000):
        state = random_pure_state(rng)
        diff = abs(concurrence_mixed(pure_to_density(state)) - concurrence_pure(state))
        worst_rank1 = max(worst_rank1, diff)
    assert worst_rank1 < 1e-10
    worst_werner = 0.0
    for p in (0.0, 0.25, 1.0 / 3.0, 0.5, 0.8, 1.0):
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        worst_werner = max(worst_werner, abs(concurrence_mixed(werner_state(p)) - expected))
    assert worst_werner < 1e-10
    print(f"criterion 5: rank-1 worst = {worst_rank1:.3e}, "
          f"Werner worst = {worst_werner:.3e}")


def test_criterion_06_reference_error_scan_bounds():
    # 5 um / 650 nm pair, 10 nm confinement, 5 mrad x pi/6 patches:
    # max |delta C| <= 0.03 and fidelity >= 0.95 over the 21 x 5 scan
    scenario = load_scenario(BASELINE)
    config = scenario.experiment()
    quad = scenario.quadrature_spec()
    started = time.perf_counter()
    result = delta_c_scan(
        config, quad, scenario.scan.delta21_grid(), scenario.scan.v12_values
    )
    elapsed = time.perf_counter() - started
    assert result.delta_c.shape == result.fidelity.shape == (21, 5)
    assert result.max_delta_c <= 0.03
    assert result.min_fidelity >= 0.95
    assert elapsed < 300.0
    print(f"criterion 6: max delta_c = {result.max_delta_c:.6f}, "
          f"min fidelity = {result.min_fidelity:.6f} in {elapsed:.2f} s")


def test_criterion_07_quadrature_convergence():
    # doubling every node count moves delta_c by < 1e-3
    scenario = load_scenario(BASELINE)
    config = scenario.experiment()
    quad = scenario.quadrature_spec()
    base = generated_state(config, quad)
    fine = generated_state(config, quad.doubled())
    change = abs(base.delta_c - fine.delta_c)
    assert change < 1e-3
    print(f"criterion 7: delta_c change under doubling = {change:.3e}")


def test_criterion_08_count_rate_magnitude():
    # constructive phase, equal analyzers, 5 MHz excitation
    config = load_scenario(BASELINE).experiment()
    rates = count_rate(config, v12=1.0, delta21=0.0)
    assert 0.1 <= rates.raw <= 10.0
    assert rates.corrected == pytest.approx(0.09 * rates.raw, rel=1e-15)
    print(f"criterion 8: raw rate = {rates.raw:.4f} /s, "
          f"corrected = {rates.corrected:.4f} /s")


def test_criterion_09_degenerate_limits():
    # point detectors + pinned emitters reproduce the target exactly
    config = point_detector_config(Polarizer.circular(+1), Polarizer.circular(-1))
    report = generated_state(config)
    assert report.delta_c <= 1e-12
    assert 1.0 - report.fidelity <= 1e-12
    # the fully destructive configuration must raise, never return
    plus = polarizer_to_jones(Polarizer.circular(+1))
    with pytest.raises(ZeroProbabilityHeraldError):
        heralded_state(plus, plus, np.pi)
    with pytest.raises(ZeroProbabilityHeraldError):
        concurrence_analytic(np.pi, 1.0)
    print(f"criterion 9: delta_c = {report.delta_c:.3e}, "
          f"1 - fidelity = {1.0 - report.fidelity:.3e}, singular input raises")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    # identical scenario, two runs: byte-identical CSV and report
    outputs = []
    files = []
    for tag in ("first", "second"):
        out = tmp_path / f"scan_{tag}.csv"
        rc = main(["uncertainty", "--config", BASELINE, "--out", str(out)])
        assert rc == 0
        outputs.append(capsys.readouterr().out)
        files.append(out.read_bytes())
    assert files[0] == files[1]
    assert outputs[0] == outputs[1]
    with capsys.disabled():
        print(f"\ncriterion 10: {len(files[0])} CSV bytes reproduced exactly")
