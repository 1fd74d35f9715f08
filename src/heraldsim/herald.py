"""Coincidence rates and the mixed state actually generated by a herald.

Finite detector patches and trap motion reach the generated state only
through the coherence factor m that ``geometry`` hands over with the
patch measure W and the nominal phase delta21 between the patch centers:
one ``(W, m, delta21)`` call per route.  The nominal herald is
s + t exp(-1j delta21), and unit analyzers give |s| = |t| = 1 and <s|t> = V,
so every figure is closed-form in (m, V, delta21); W scales only the weight W tr:

    C_gen = (1 - V) |m| / d,  C_target = (1 - V) / w0,  tr = 2 d,
    F = (|a|**2 + Re(m exp(1j delta21) conj(a)**2)) / (2 w0 d),

with d = 1 + V Re m, w0 = 1 + V cos delta21 and a = 1 + V exp(1j delta21).
``generated_state`` also builds rho = R R^dag from its rank-2 factor R
and checks its trace and the Wootters concurrence of R (one 2x2
singular value problem) against the closed form; ``delta_c_scan``
builds none, taking (m, delta21) for all its geometries from one
stacked pass and returning the whole (delta21, v12) table as columns:
the two grid axes and one (n_delta21, n_v12) array per figure.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, ZeroProbabilityHeraldError
from .geometry import (
    AtomPairLayout,
    DetectorPatch,
    QuadratureSpec,
    TrapModel,
    _quadrature_moments,
    _sampled_moments,
)
from .optics import (
    _any,
    _check_fires,
    _check_v12_grid,
    _component_vectors,
    _concurrence_closed_form,
    _count,
    _finite_real,
    _overlap,
    _read_only_arrays,
    _real_array,
    _record,
    _stored_real,
    _target_state,
    g2,
)
from .qcore import _SPIN_FLIP, EIGENVALUE_FLOOR, TRACE_ATOL

__all__ = [
    "ExperimentConfig",
    "CountRates",
    "UncertaintyReport",
    "ScanResult",
    "detection_probability",
    "count_rate",
    "accidental_fraction",
    "generated_state",
    "monte_carlo_state",
    "delta_c_scan",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one heralding experiment.

    Rates (events/s), the coincidence window (s) and ``detector_efficiency``,
    the combined collection/quantum efficiency of one channel in [0, 1], are
    stored as Python floats; the four parts must be their model records.
    """

    layout: AtomPairLayout
    trap: TrapModel
    detector1: DetectorPatch
    detector2: DetectorPatch
    repetition_rate: float
    detector_efficiency: float = 1.0
    dark_count_rate: float = 0.0
    coincidence_window: float = 0.0

    def __post_init__(self):
        for name, kind in (("layout", AtomPairLayout), ("trap", TrapModel),
                           ("detector1", DetectorPatch), ("detector2", DetectorPatch)):
            _record(getattr(self, name), kind, name)
        if not _stored_real(self, "repetition_rate") > 0.0:
            raise InvalidInputError("repetition_rate must be positive and finite")
        if not 0.0 <= _stored_real(self, "detector_efficiency") <= 1.0:
            raise InvalidInputError("detector_efficiency must lie in [0, 1]")
        for name in ("dark_count_rate", "coincidence_window"):
            if not _stored_real(self, name) >= 0.0:
                raise InvalidInputError(f"{name} must be nonnegative and finite")


@dataclass(frozen=True)
class CountRates:
    """Two-photon coincidence rate in events/s, raw and with efficiency."""

    raw: float
    corrected: float


@dataclass(frozen=True, eq=False)
class UncertaintyReport:
    """Generated state next to its point-design target.

    ``delta_c`` is |concurrence_generated - concurrence_target| and ``heralding_weight`` the
    integrated unnormalized G2 measure (the patch-averaged G2 times the solid-angle measure
    of both patches, a zero-width axis counting as 1; 0.0 where that measure underflows).
    """

    rho_generated: np.ndarray
    target_state: np.ndarray
    concurrence_target: float
    concurrence_generated: float
    delta_c: float
    fidelity: float
    heralding_weight: float
    delta21_nominal: float
    v12: float
    __post_init__ = _read_only_arrays


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Error scan over a (delta21, v12) grid as columns, with its worst-case figures.

    ``delta21`` (n,) and ``v12`` (k,) are the grid axes; each figure is an
    (n, k) array whose row i is at ``delta21[i]`` and column j at ``v12[j]``.
    """

    delta21: np.ndarray
    v12: np.ndarray
    delta_c: np.ndarray
    fidelity: np.ndarray
    concurrence_target: np.ndarray
    concurrence_generated: np.ndarray
    max_delta_c: float
    min_fidelity: float
    __post_init__ = _read_only_arrays


def detection_probability(patch):
    """Fraction span_theta * span_chi / (4 pi) of photons reaching the patch.

    Exact in theta for any width; in chi it takes ``span_chi`` for the exact factor
    2 cos(chi_center) sin(span_chi / 2), so it reads high: the exact area is 1.1% smaller
    at span_chi = pi/6, chi_center = 0 and 6.9% smaller at span_chi = pi/4, chi_center = 0.3.
    A patch fits on the sphere (``DetectorPatch``), span_theta <= pi and span_chi < pi, so
    the fraction is below pi/4.
    """
    _record(patch, DetectorPatch, "patch")
    return patch.span_theta * patch.span_chi / (4.0 * np.pi)


def count_rate(config, v12, delta21):
    """Coincidence rate 2 r P1 P2 G2(delta21) of the herald.

    Returns the raw rate (unit detector efficiency) together with the rate scaled
    by the squared channel efficiency, since both photons must be detected.
    Raises ``InvalidInputError`` if the coincidence rate overflows the float range.
    """
    _record(config, ExperimentConfig, "config")
    p1 = detection_probability(config.detector1)
    p2 = detection_probability(config.detector2)
    # g2 as a float, the exact factor 2 last: only a rate past the float range overflows
    raw = config.repetition_rate * p1 * p2 * float(g2(delta21, v12)) * 2.0
    if not math.isfinite(raw):
        raise InvalidInputError("coincidence rate 2 r P1 P2 G2 overflows the float range")
    eta = config.detector_efficiency
    return CountRates(raw=raw, corrected=raw * eta * eta)


def accidental_fraction(config, true_rate):
    """Fraction of coincidences caused by dark counts.

    Models the accidental rate as dark counts pairing with single
    photon clicks or with each other inside the coincidence window:

        R_acc = dark * (S1 + S2) * window + dark**2 * window,

    where ``S_i = 2 r eta P_i`` is the single-photon click rate of one
    detector (two photons per excitation cycle).  Returns ``R_acc / (R_acc + true_rate)``,
    0 when both rates vanish and 1.0, the limit, when ``R_acc`` overflows the float range.
    """
    _record(config, ExperimentConfig, "config")
    if not (true_rate := _finite_real(true_rate, "true_rate")) >= 0.0:
        raise InvalidInputError("true_rate must be nonnegative and finite")
    dark, window = config.dark_count_rate, config.coincidence_window
    if not (dark and window):  # no accidentals, even where the singles overflow
        return 0.0
    eta = config.detector_efficiency
    singles = sum(config.repetition_rate * eta * detection_probability(det) * 2.0
                  for det in (config.detector1, config.detector2))
    accidental = dark * singles * window + dark * dark * window
    total = accidental + true_rate
    if total == 0.0:
        return 0.0
    if total == math.inf:  # a ratio of the rates stays finite: 1.0 when R_acc is inf
        return 1.0 / (1.0 + true_rate / accidental)
    return accidental / total


def _figures(m, v12, delta21):
    """Closed-form (C_target, C_generated, fidelity <= 1, trace) of generated states.

    Takes m, V in [0, 1] and the nominal delta21 as arrays that broadcast, so one call
    evaluates a whole grid; ``trace`` = 2 d is the heralding weight per unit W.  Operators,
    ``abs`` and ``.real`` serve scalars as well as arrays, so one report's figures cost a
    few scalar operations.  Raises ``ZeroProbabilityHeraldError`` where the herald never
    fires or the trace vanishes, ``NumericalFailureError`` where |m| exceeds 1.
    """
    nominal_weight, c_target = _concurrence_closed_form(delta21, v12)  # herald weight / 2
    _check_fires(nominal_weight)
    dephased = 1.0 + v12 * m.real
    trace = 2.0 * dephased
    if _any(trace < 1e-12):
        raise ZeroProbabilityHeraldError("integrated coincidence weight vanishes over "
                                         "the detector patches")
    # |s><s| + |t><t| + m |t><s| + h.c. is positive exactly when |m| <= 1
    if _any(abs(m) > 1.0 - EIGENVALUE_FLOOR):
        raise NumericalFailureError("quadrature produced |M| > W, a non-positive average")
    # <herald|s> = a and <herald|t> = exp(1j delta21) conj(a)
    turn = np.exp(1j * delta21)
    a = 1.0 + v12 * turn
    # capped at 1: within an ulp of the point design the quotient rounds to 1 + 2**-52
    fidelity = np.minimum((abs(a) ** 2 + (m * turn * a.conjugate() ** 2).real)
                          / (2.0 * nominal_weight * dephased), 1.0)
    c_generated = (1.0 - v12) * abs(m) / dephased
    return c_target, c_generated, fidelity, trace


def _report(config, total_weight, m, delta21):
    """Generated state from (W, m) next to the point-design target at phase ``delta21``."""
    jones1, jones2 = config.detector1.polarizer.jones, config.detector2.polarizer.jones
    v12 = _overlap(jones1, jones2)  # a Polarizer holds a checked unit vector
    c_target, c_generated, fidelity, trace = map(float, _figures(m, v12, delta21))
    # rho = R R^dag, R = [s t] L / sqrt(trace), L the Cholesky factor of [[1, m*], [m, 1]]:
    # its trace checks s, t against the closed form, and its Wootters concurrence is l1 - l2
    # of the singular values of R^T (sy x sy) R.  R^T: eight Python complex products, one array
    stat, phase_part = _component_vectors(jones1, jones2)
    rest = math.sqrt(max(1.0 - abs(m) ** 2, 0.0))
    factor = np.array([[s + m * t for s, t in zip(stat, phase_part)],
                       [rest * t for t in phase_part]]) / math.sqrt(trace)  # R^T
    rho = factor.T @ factor.conj()
    if not np.isfinite(rho).all() or abs(rho.trace() - 1.0) > TRACE_ATOL:
        raise NumericalFailureError(f"quadrature produced rho with trace {rho.trace()}")
    lam = np.linalg.svd(factor @ _SPIN_FLIP @ factor.T, compute_uv=False)
    wootters = float(lam[0] - lam[1])
    if abs(wootters - c_generated) > 1e-9:
        raise NumericalFailureError(f"Wootters concurrence {wootters:.12g} misses the "
                                    f"closed form {c_generated:.12g}")
    return UncertaintyReport(
        rho_generated=rho,
        target_state=_target_state(stat, phase_part, delta21),
        concurrence_target=c_target,
        concurrence_generated=c_generated,
        delta_c=abs(c_generated - c_target),
        fidelity=fidelity,
        heralding_weight=total_weight * trace,
        delta21_nominal=delta21,
        v12=v12,
    )


def generated_state(config, quadrature=QuadratureSpec()):
    """Mixed state produced by finite detectors and trapped-emitter motion.

    Averages the heralded projector, weighted by the coincidence weight
    G2, over both detector patches (Gauss-Legendre nodes) and, in
    closed form, over the Gaussian emitter displacements, then compares
    with the point-design target state at the patch centers.  Detection
    efficiency and dark counts do not enter: the state is conditioned
    on the herald.

    Parameters
    ----------
    config : ExperimentConfig
    quadrature : QuadratureSpec
        Node counts of the deterministic patch quadrature.

    Returns
    -------
    UncertaintyReport

    Raises
    ------
    InvalidInputError
        If ``config`` or ``quadrature`` is not of its record type.
    ZeroProbabilityHeraldError
        If the herald never fires at the nominal configuration.
    NumericalFailureError
        If the averaged matrix is not finite or its trace misses 1 by
        more than ``TRACE_ATOL``, if |m| > 1 (a non-positive average),
        or if the Wootters concurrence of its rank-2 factor misses the
        closed form by more than 1e-9.
    """
    _record(config, ExperimentConfig, "config")
    _record(quadrature, QuadratureSpec, "quadrature")
    return _report(config, *_quadrature_moments(
        config.layout, config.trap, config.detector1, config.detector2, quadrature))


def monte_carlo_state(config, samples, seed):
    """Randomized evaluation of ``generated_state`` for cross-validation.

    Samples m over the patches, uniformly in solid angle, and over the
    trap displacements, which ``generated_state`` averages by quadrature
    and in closed form; W is the exact patch measure on both routes.
    Deterministic for a fixed ``seed``, whatever the number of threads the
    samples are drawn and summed on; both integers are checked before any draw.
    """
    _record(config, ExperimentConfig, "config")
    samples, seed = _count(samples, "samples"), _count(seed, "seed", 0)
    return _report(config, *_sampled_moments(
        config.layout, config.trap, config.detector1, config.detector2, samples, seed))


def delta_c_scan(config, quadrature, delta21_values, v12_values):
    """Concurrence error and fidelity over a grid of (delta21, v12) settings.

    Each grid point keeps the patch shapes of ``config`` but moves the
    detector-2 longitude to realize ``delta21``, and takes the requested
    ``v12`` as the analyzer visibility: any analyzer pair with that
    overlap (linear ones at relative angle arccos(sqrt(v12)), say) gives
    the same figures.  Every longitude comes from one array solve and
    every m from one stacked pass over the moved detector-2 nodes.

    Returns
    -------
    ScanResult
        Copies of the two grids, shapes (n,) and (k,), and the four (n, k)
        figure arrays, row i at delta21_values[i] and column j at
        v12_values[j], plus max |delta C| and min fidelity as floats.
    """
    _record(config, ExperimentConfig, "config")
    _record(quadrature, QuadratureSpec, "quadrature")
    delta21_values = np.array(_real_array(delta21_values, "delta21 grid"), ndmin=1)
    v12_values = np.array(_real_array(v12_values, "v12 grid"), ndmin=1)
    if not (delta21_values.ndim == v12_values.ndim == 1
            and delta21_values.size and v12_values.size):
        raise InvalidInputError("scan grids must be nonempty and one-dimensional")
    _check_v12_grid(v12_values)
    # the analyzers do not enter m: one average over all delta21 geometries
    _, m, phases = _quadrature_moments(
        config.layout, config.trap, config.detector1, config.detector2, quadrature,
        delta21_values)
    c_target, c_generated, fidelity, _ = _figures(m[:, None], v12_values, phases[:, None])
    delta_c = np.abs(c_generated - c_target)
    return ScanResult(delta21=delta21_values, v12=v12_values, delta_c=delta_c,
                      fidelity=fidelity, concurrence_target=c_target,
                      concurrence_generated=c_generated, max_delta_c=float(delta_c.max()),
                      min_fidelity=float(fidelity.min()))
