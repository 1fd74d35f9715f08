"""Command line front end.

Subcommands: ``surface`` (closed-form concurrence over a grid, evaluated
row by row in delta21 and streamed), ``state`` (one heralded state),
``uncertainty`` (generated-state report and error scan from a scenario
file), ``malus`` (concurrence against analyzer angle at quarter-wave
phase).  CSV output is comma separated with a header row and
17-significant-digit floats; identical inputs give byte-identical files.

Exit codes: 0 success, 2 usage or input error, 3 zero-probability
herald, 4 numerical failure.
"""

import argparse
import contextlib
import dataclasses
import math
import sys

import numpy as np

from .errors import (
    InvalidInputError,
    NumericalFailureError,
    ZeroProbabilityHeraldError,
)
from .geometry import _longitudes
from .herald import (
    accidental_fraction,
    count_rate,
    delta_c_scan,
    generated_state,
    monte_carlo_state,
)
from .optics import (
    Polarizer,
    _concurrence_closed_form,
    _count,
    _finite_real,
    concurrence_analytic,
    heralded_state,
    visibility,
)
from .qcore import BASIS_LABELS, concurrence_pure
from .scenario import load_scenario, polarizer_from_values

__all__ = ["main"]

USAGE_ERROR, ZERO_PROBABILITY, NUMERICAL_FAILURE = 2, 3, 4


def _fmt(value):
    return f"{value:.17g}"


@contextlib.contextmanager
def _output(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _parse_polarizer(text, name):
    """Analyzer from ``kind:V1,V2,...``; values that parse as numbers become numbers."""
    kind, _, rest = text.partition(":")
    values = []
    for part in rest.split(","):
        try:
            values.append(float(part))
        except ValueError:
            values.append(part)
    return polarizer_from_values(kind, values, name)


def _grid(lo, hi, count, name):
    _count(count, f"{name} point count")
    if not math.isfinite(hi - lo):  # also catches bounds too far apart for linspace
        raise InvalidInputError(
            f"{name} grid bounds ({lo}, {hi}) must be finite, with a finite span"
        )
    if hi < lo:
        raise InvalidInputError(f"{name} grid bounds are reversed ({lo} > {hi})")
    return np.linspace(lo, hi, count)


def cmd_surface(args):
    deltas = _grid(args.delta21_min, args.delta21_max, args.delta21_points, "delta21")
    v12s = _grid(args.v12_min, args.v12_max, args.v12_points, "v12")
    if v12s.min() < 0.0 or v12s.max() > 1.0:
        raise InvalidInputError("v12 grid must lie inside [0, 1]")
    # fields are numbers or empty, so no csv quoting: each delta21 row is one array
    # expression over v12 and one joined block; nan (c != c) marks a singular cell
    v12_fields = [_fmt(v12) for v12 in v12s.tolist()]
    with _output(args.out) as handle:
        handle.write("delta21_rad,v12,concurrence,singular\n")
        for delta in deltas:
            prefix = _fmt(delta) + ","
            _, values = _concurrence_closed_form(delta, v12s)
            handle.write("".join(
                f"{prefix}{v12},{_fmt(c)},0\n" if c == c else f"{prefix}{v12},,1\n"
                for v12, c in zip(v12_fields, values.tolist())))
    return 0


def cmd_state(args):
    if args.config is not None:
        scenario = load_scenario(args.config)
        config = scenario.experiment()
        pol1 = config.detector1.polarizer
        pol2 = config.detector2.polarizer
        delta = float(_longitudes(config.layout, config.detector1, config.detector2)[1][0])
    else:
        pol1 = pol2 = None
        delta = None
    if args.polarizer1 is not None:
        pol1 = _parse_polarizer(args.polarizer1, "--polarizer1")
    if args.polarizer2 is not None:
        pol2 = _parse_polarizer(args.polarizer2, "--polarizer2")
    if args.delta21 is not None:
        delta = _finite_real(args.delta21, "--delta21")
    if pol1 is None or pol2 is None or delta is None:
        raise InvalidInputError(
            "state needs --config or all of --polarizer1/--polarizer2/--delta21"
        )
    outcome = heralded_state(pol1.jones, pol2.jones, delta)
    from_state = concurrence_pure(outcome.state)
    analytic = concurrence_analytic(outcome.delta21, outcome.v12)
    print(f"delta21_rad            = {_fmt(outcome.delta21)}")
    print(f"v12                    = {_fmt(outcome.v12)}")
    print(f"g2                     = {_fmt(outcome.g2)}")
    for label, amp in zip(BASIS_LABELS, outcome.state):
        print(f"amplitude[{label}]          = {_fmt(amp.real)} {amp.imag:+.17g}j")
    print(f"concurrence_state      = {_fmt(from_state)}")
    print(f"concurrence_analytic   = {_fmt(analytic)}")
    print(f"difference             = {_fmt(abs(from_state - analytic))}")
    return 0


def cmd_uncertainty(args):
    # usage errors exit before the first report line
    _count(args.samples, "--samples")
    if args.seed is not None:
        _count(args.seed, "--seed", 0)
    scenario = load_scenario(args.config)
    if args.out is not None and scenario.scan is None:
        raise InvalidInputError("--out set but the scenario has no scan section")
    config = scenario.experiment()
    quad = scenario.quadrature_spec()
    overrides = {name: getattr(args, name) for name in ("points_theta", "points_chi")
                 if getattr(args, name) is not None}
    if overrides:
        quad = dataclasses.replace(quad, **overrides)

    report = generated_state(config, quad)
    rates = count_rate(config, report.v12, report.delta21_nominal)
    accidentals = accidental_fraction(config, rates.corrected)
    print(f"delta21_nominal_rad    = {_fmt(report.delta21_nominal)}")
    print(f"v12                    = {_fmt(report.v12)}")
    print(f"concurrence_target     = {_fmt(report.concurrence_target)}")
    print(f"concurrence_generated  = {_fmt(report.concurrence_generated)}")
    print(f"delta_c                = {_fmt(report.delta_c)}")
    print(f"fidelity               = {_fmt(report.fidelity)}")
    print(f"heralding_weight       = {_fmt(report.heralding_weight)}")
    print(f"rate_raw_per_s         = {_fmt(rates.raw)}")
    print(f"rate_corrected_per_s   = {_fmt(rates.corrected)}")
    print(f"accidental_fraction    = {_fmt(accidentals)}")
    if args.seed is not None:
        check = monte_carlo_state(config, args.samples, args.seed)
        print(f"mc_delta_c             = {_fmt(check.delta_c)}")
        print(f"mc_fidelity            = {_fmt(check.fidelity)}")
        print(f"mc_delta_c_deviation   = {_fmt(abs(check.delta_c - report.delta_c))}")
    if scenario.scan is not None:
        result = delta_c_scan(
            config, quad, scenario.scan.delta21_grid(), scenario.scan.v12_values
        )
        print(f"scan_max_delta_c       = {_fmt(result.max_delta_c)}")
        print(f"scan_min_fidelity      = {_fmt(result.min_fidelity)}")
        if args.out is not None:
            with _output(args.out) as handle:
                # the ScanPoint field order is the CSV column order; vars() reads
                # the fields without astuple's deep copy, and every field is a
                # number, so no csv quoting: the rows go out as one joined block
                handle.write("delta21_rad,v12,delta_c,fidelity,"
                             "concurrence_target,concurrence_generated\n")
                handle.write("".join(",".join(map(_fmt, vars(point).values())) + "\n"
                                     for point in result.points))
    return 0


def cmd_malus(args):
    half_pi = math.pi / 2.0
    ratio = _finite_real(args.delta21, "--delta21") / half_pi
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) % 2 == 0:
        raise InvalidInputError(
            "malus needs delta21 at an odd multiple of pi/2 (quarter-wave phase)"
        )
    alphas = _grid(0.0, half_pi, args.points, "alpha")
    reference = Polarizer.linear(0.0).jones
    with _output(args.out) as handle:
        handle.write("alpha_rad,v12,concurrence,sin2_alpha,difference\n")
        for alpha in alphas:
            v12 = visibility(reference, Polarizer.linear(alpha).jones)
            value = concurrence_analytic(args.delta21, v12)
            malus = math.sin(alpha) ** 2
            handle.write(",".join(map(_fmt, (alpha, v12, value, malus, abs(value - malus))))
                         + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="heraldsim",
        description="Heralded entanglement of two remote emitters: states, "
        "concurrence, and error/rate estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    surface = sub.add_parser(
        "surface", help="closed-form concurrence over a (delta21, v12) grid"
    )
    surface.add_argument("--delta21-min", type=float, default=-math.pi)
    surface.add_argument("--delta21-max", type=float, default=math.pi)
    surface.add_argument("--delta21-points", type=int, default=81)
    surface.add_argument("--v12-min", type=float, default=0.0)
    surface.add_argument("--v12-max", type=float, default=1.0)
    surface.add_argument("--v12-points", type=int, default=21)
    surface.add_argument("--out", default=None, help="CSV path (default stdout)")
    surface.set_defaults(func=cmd_surface)

    state = sub.add_parser("state", help="heralded state for one configuration")
    state.add_argument("--config", default=None, help="scenario JSON file")
    state.add_argument("--polarizer1", default=None,
                       help="linear:ANGLE_RAD | circular:+/- | general:re,im,re,im")
    state.add_argument("--polarizer2", default=None)
    state.add_argument("--delta21", type=float, default=None,
                       help="relative detection phase in rad")
    state.set_defaults(func=cmd_state)

    uncertainty = sub.add_parser(
        "uncertainty", help="generated-state report and error scan from a scenario"
    )
    uncertainty.add_argument("--config", required=True, help="scenario JSON file")
    uncertainty.add_argument("--out", default=None, help="scan CSV path")
    uncertainty.add_argument("--points-theta", dest="points_theta", type=int)
    uncertainty.add_argument("--points-chi", dest="points_chi", type=int)
    uncertainty.add_argument("--seed", type=int, default=None,
                             help="run a Monte Carlo cross-check with this seed")
    uncertainty.add_argument("--samples", type=int, default=20000,
                             help="Monte Carlo sample count")
    uncertainty.set_defaults(func=cmd_uncertainty)

    malus = sub.add_parser(
        "malus", help="concurrence vs analyzer angle at quarter-wave phase"
    )
    malus.add_argument("--delta21", type=float, default=math.pi / 2.0)
    malus.add_argument("--points", type=int, default=100)
    malus.add_argument("--out", default=None, help="CSV path (default stdout)")
    malus.set_defaults(func=cmd_malus)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ZeroProbabilityHeraldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ZERO_PROBABILITY
    except NumericalFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_FAILURE
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:  # missing file, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
