"""Command line front end.

Subcommands: ``surface`` (closed-form concurrence over a grid, evaluated
and streamed in blocks of about ``_BLOCK_CELLS`` cells, whole delta21
rows each), ``state`` (one heralded state),
``uncertainty`` (generated-state report and error scan from a scenario
file), ``malus`` (concurrence against analyzer angle at quarter-wave
phase).  CSV output is comma separated with a header row and
17-significant-digit floats; identical inputs give byte-identical files.

Exit codes: 0 success, 2 usage or input error (a request too large
for memory included), 3 zero-probability herald, 4 numerical failure.

``main(argv)`` may be called repeatedly in one process: it builds its
parser once, on the first call, and each call parses into a fresh namespace.
"""

import argparse
import contextlib
import dataclasses
import functools
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
    _check_v12_grid,
    _concurrence_closed_form,
    _count,
    _finite_real,
    _overlap,
    concurrence_analytic,
    heralded_state,
)
from .qcore import BASIS_LABELS, concurrence_pure
from .scenario import _scenario_errors, load_scenario, polarizer_from_values

__all__ = ["main"]

USAGE_ERROR, ZERO_PROBABILITY, NUMERICAL_FAILURE = 2, 3, 4

_FLOAT = "%.17g"
#: cells per CSV block: each block is one ``%`` format and one write, and
#: its template, figures and text stay near 100 KB
_BLOCK_CELLS = 1024


def _fmt(value):
    return _FLOAT % value


def _write_cells(handle, prefixes, tails, figures, singular_tails=None):
    """Write line ``prefixes[i] + tails[j]`` for each row i and column j, row-major.

    The ``_FLOAT`` slots of ``tails[j]`` take the figures of cell (i, j):
    ``figures(rows)`` returns them for a slice of rows, in an array whose
    row-major order is the slots'.  Whole rows go in blocks of about
    ``_BLOCK_CELLS`` cells, each one ``%`` over a template joined from the
    fields.  With ``singular_tails`` (one slot per tail), a block holding nan
    is written cell by cell, and a nan cell j takes ``singular_tails[j]``.
    """
    parts = ["", *tails]  # prefix.join(parts) puts the prefix before each tail
    step = max(1, _BLOCK_CELLS // len(tails))
    for start in range(0, len(prefixes), step):
        rows = slice(start, start + step)
        values = figures(rows)
        if singular_tails is not None and np.isnan(values).any():
            handle.write("".join(
                prefix + (tail % cell if cell == cell else singular)
                for prefix, row in zip(prefixes[rows], values.tolist())
                for tail, singular, cell in zip(tails, singular_tails, row)))
        else:
            handle.write("".join(prefix.join(parts) for prefix in prefixes[rows])
                         % tuple(values.ravel().tolist()))


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
    _check_v12_grid(v12s)
    # fields are numbers or empty, so no csv quoting; a nan concurrence marks a singular cell
    v12_fields = [_fmt(v12) for v12 in v12s.tolist()]
    with _output(args.out) as handle:
        handle.write("delta21_rad,v12,concurrence,singular\n")
        _write_cells(handle, [_fmt(delta) + "," for delta in deltas.tolist()],
                     [f"{v12},{_FLOAT},0\n" for v12 in v12_fields],
                     lambda rows: _concurrence_closed_form(deltas[rows, None], v12s)[1],
                     [f"{v12},,1\n" for v12 in v12_fields])
    return 0


def cmd_state(args):
    pol1 = pol2 = delta = None
    if args.config is not None:
        scenario = load_scenario(args.config)
        config = scenario.experiment()
        pol1 = config.detector1.polarizer
        pol2 = config.detector2.polarizer
        delta = float(_longitudes(config.layout, config.detector1, config.detector2)[1][0])
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
    # every figure and the CSV come before the first report line, so an
    # input error, a failed cell or an unwritable --out leaves stdout empty
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
    fields = {
        "delta21_nominal_rad": report.delta21_nominal,
        "v12": report.v12,
        "concurrence_target": report.concurrence_target,
        "concurrence_generated": report.concurrence_generated,
        "delta_c": report.delta_c,
        "fidelity": report.fidelity,
        "heralding_weight": report.heralding_weight,
        "rate_raw_per_s": rates.raw,
        "rate_corrected_per_s": rates.corrected,
        "accidental_fraction": accidental_fraction(config, rates.corrected),
    }
    if args.seed is not None:
        check = monte_carlo_state(config, args.samples, args.seed)
        fields.update(mc_delta_c=check.delta_c, mc_fidelity=check.fidelity,
                      mc_delta_c_deviation=abs(check.delta_c - report.delta_c))
    if scenario.scan is not None:
        with _scenario_errors("scenario.scan: "):
            result = delta_c_scan(config, quad, scenario.scan.delta21_grid(),
                                  scenario.scan.v12_values)
        fields.update(scan_max_delta_c=result.max_delta_c,
                      scan_min_fidelity=result.min_fidelity)
        if args.out is not None:
            with _output(args.out) as handle:
                # every field is a number, so no csv quoting; the cells go
                # row-major (delta21 outer, v12 inner)
                handle.write("delta21_rad,v12,delta_c,fidelity,"
                             "concurrence_target,concurrence_generated\n")
                table = np.stack((result.delta_c, result.fidelity, result.concurrence_target,
                                  result.concurrence_generated), axis=-1)
                _write_cells(handle, [_fmt(delta) + "," for delta in result.delta21.tolist()],
                             [f"{_fmt(v12)},{_FLOAT},{_FLOAT},{_FLOAT},{_FLOAT}\n"
                              for v12 in result.v12.tolist()], table.__getitem__)
    print("".join(f"{name:<23}= {_fmt(value)}\n" for name, value in fields.items()), end="")
    return 0


def cmd_malus(args):
    delta = _finite_real(args.delta21, "--delta21")
    # within 1.6e-9 of an odd multiple of pi/2, every weight 1 + v12 cos delta21 >= 1 - 2e-9
    if abs(math.cos(delta)) > 1.6e-9:
        raise InvalidInputError("malus needs delta21 at an odd multiple of pi/2 "
                                "(quarter-wave phase)")
    alphas = _grid(0.0, math.pi / 2.0, args.points, "alpha").tolist()
    reference = Polarizer.linear(0.0).jones
    v12s = np.array([_overlap(reference, Polarizer.linear(alpha).jones) for alpha in alphas])
    _, values = _concurrence_closed_form(delta, v12s)
    malus = np.array([math.sin(alpha) ** 2 for alpha in alphas])
    table = np.column_stack((v12s, values, malus, np.abs(values - malus)))
    with _output(args.out) as handle:
        handle.write("alpha_rad,v12,concurrence,sin2_alpha,difference\n")
        _write_cells(handle, [_fmt(alpha) + "," for alpha in alphas],
                     [f"{_FLOAT},{_FLOAT},{_FLOAT},{_FLOAT}\n"], table.__getitem__)
    return 0


@functools.cache
def build_parser():
    """The CLI's argparse tree, built once per process; callers only parse with it."""
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ZeroProbabilityHeraldError, NumericalFailureError, InvalidInputError,
            OSError, MemoryError) as exc:  # OSError: a missing file, a directory, no permission
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return (ZERO_PROBABILITY if isinstance(exc, ZeroProbabilityHeraldError)
                else NUMERICAL_FAILURE if isinstance(exc, NumericalFailureError)
                else USAGE_ERROR)


if __name__ == "__main__":
    raise SystemExit(main())
