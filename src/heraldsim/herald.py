"""Coincidence rates and the mixed state actually generated by a herald.

The closed-form heralded state assumes point detectors and pinned
emitters.  Real detectors cover a finite patch of the far-field sphere
and the emitters move inside their traps, so each coincidence projects
onto a slightly different state and the experiment produces the
G2-weighted average

    rho = N * sum_nodes  w(node) * G2(node) * |psi(node)><psi(node)|,

with nodes running over both detector patches (solid-angle measure
cos(chi) dtheta dchi) and N fixing unit trace.  The Gaussian trap
displacements are averaged exactly: their difference is a centered
normal with per-axis spread sqrt(2) * confinement, so its
characteristic function multiplies each pair of patch nodes by a
Gaussian decay factor.  ``generated_state`` evaluates this average,
compares it against the point-design target, and reports the
concurrence error and fidelity.

The patch quadrature is deterministic: fixed node ordering, vectorized
reductions, no randomness.  ``monte_carlo_state`` is an independent
randomized evaluation of the same average kept for cross-validation.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InvalidInputError,
    NumericalFailureError,
    ZeroProbabilityHeraldError,
)
from .geometry import (
    AtomPairLayout,
    DetectorPatch,
    TrapModel,
    detection_direction,
    farfield_phase,
)
from .optics import (
    Polarizer,
    _component_vectors,
    g2,
    heralded_state,
    polarizer_to_jones,
)
from .qcore import (
    concurrence_mixed,
    concurrence_pure,
    fidelity_pure_target,
    validate_density,
)

__all__ = [
    "ExperimentConfig",
    "QuadratureSpec",
    "CountRates",
    "UncertaintyReport",
    "ScanPoint",
    "ScanResult",
    "detection_probability",
    "count_rate",
    "accidental_fraction",
    "generated_state",
    "monte_carlo_state",
    "theta_center_for_delta21",
    "delta_c_scan",
]

#: patches wider than this in theta leave the small-patch rate regime
SMALL_PATCH_LIMIT = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one heralding experiment.

    Rates are in events per second, the coincidence window in seconds,
    and ``detector_efficiency`` is the combined collection/quantum
    efficiency of one detection channel in [0, 1].
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
        # chained comparisons are False for nan, and the upper bounds exclude inf
        if not 0.0 < self.repetition_rate < np.inf:
            raise InvalidInputError("repetition_rate must be positive and finite")
        if not 0.0 <= self.detector_efficiency <= 1.0:
            raise InvalidInputError("detector_efficiency must lie in [0, 1]")
        if not (0.0 <= self.dark_count_rate < np.inf
                and 0.0 <= self.coincidence_window < np.inf):
            raise InvalidInputError(
                "dark_count_rate and coincidence_window must be nonnegative and finite"
            )


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre node counts per detector patch axis.

    The trap average is exact and takes no nodes.  ``points_trap`` is
    still accepted and validated because the benchmark's design sweep
    (``perfbench/workloads.py``) passes it, but nothing reads it and
    ``doubled`` leaves it as it is.
    """

    points_theta: int = 8
    points_chi: int = 8
    points_trap: int = 8

    def __post_init__(self):
        for name in ("points_theta", "points_chi", "points_trap"):
            count = getattr(self, name)
            if not isinstance(count, int) or count < 1:
                raise InvalidInputError(f"{name} must be an integer >= 1")

    def doubled(self):
        """Same spec with the patch node counts doubled (convergence checks)."""
        return replace(
            self, points_theta=2 * self.points_theta, points_chi=2 * self.points_chi
        )


@dataclass(frozen=True)
class CountRates:
    """Two-photon coincidence rate in events/s, raw and with efficiency."""

    raw: float
    corrected: float


@dataclass(frozen=True)
class UncertaintyReport:
    """Generated state next to its point-design target.

    ``delta_c`` is |concurrence_generated - concurrence_target| and
    ``heralding_weight`` the integrated unnormalized G2 measure (the
    patch-averaged G2 times the solid-angle measure of both patches).
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


@dataclass(frozen=True)
class ScanPoint:
    """One (delta21, v12) cell of an error scan."""

    delta21: float
    v12: float
    delta_c: float
    fidelity: float
    concurrence_target: float
    concurrence_generated: float


@dataclass(frozen=True)
class ScanResult:
    """Error scan over a (delta21, v12) grid with its worst-case figures."""

    points: tuple
    max_delta_c: float
    min_fidelity: float


def detection_probability(patch):
    """Fraction span_theta * span_chi / (4 pi) of photons reaching the patch.

    Valid in the small-patch regime; a warning is emitted when
    ``span_theta`` reaches ``SMALL_PATCH_LIMIT``.
    """
    if patch.span_theta >= SMALL_PATCH_LIMIT:
        warnings.warn(
            f"span_theta = {patch.span_theta:.3g} rad leaves the small-patch "
            "regime; the flat-patch probability is approximate",
            stacklevel=2,
        )
    return patch.span_theta * patch.span_chi / (4.0 * np.pi)


def count_rate(config, v12, delta21):
    """Coincidence rate 2 r P1 P2 G2(delta21) of the herald.

    Returns the raw rate (unit detector efficiency) together with the
    rate scaled by the squared channel efficiency, since both photons
    must be detected.
    """
    p1 = detection_probability(config.detector1)
    p2 = detection_probability(config.detector2)
    raw = 2.0 * config.repetition_rate * p1 * p2 * g2(delta21, v12)
    eta = config.detector_efficiency
    return CountRates(raw=raw, corrected=raw * eta * eta)


def accidental_fraction(config, true_rate):
    """Fraction of coincidences caused by dark counts.

    Models the accidental rate as dark counts pairing with single
    photon clicks or with each other inside the coincidence window:

        R_acc = dark * (S1 + S2) * window + dark**2 * window,

    where ``S_i = 2 r eta P_i`` is the single-photon click rate of one
    detector (two photons per excitation cycle).  Returns
    ``R_acc / (R_acc + true_rate)``, or 0 when both rates vanish.
    """
    if not 0.0 <= true_rate < math.inf:
        raise InvalidInputError("true_rate must be nonnegative and finite")
    dark = config.dark_count_rate
    window = config.coincidence_window
    eta = config.detector_efficiency
    singles = sum(
        2.0 * config.repetition_rate * eta * detection_probability(det)
        for det in (config.detector1, config.detector2)
    )
    accidental = dark * singles * window + dark * dark * window
    total = accidental + true_rate
    if total == 0.0:
        return 0.0
    return accidental / total


def _interval_rule(center, width, count):
    """Gauss-Legendre nodes/weights on [center - width/2, center + width/2].

    Zero width collapses to a single unit-weight node at the center
    (point detector); the constant cancels in the trace normalization.
    """
    if width == 0.0:
        return np.array([center]), np.array([1.0])
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(count)
    return center + 0.5 * width * ref_nodes, 0.5 * width * ref_weights


def _patch_nodes(patch, layout, quad):
    """Directions and measure weights (incl. cos chi) covering a patch."""
    theta, w_theta = _interval_rule(patch.theta_center, patch.span_theta, quad.points_theta)
    chi, w_chi = _interval_rule(patch.chi_center, patch.span_chi, quad.points_chi)
    if theta.min() < 0.0 or theta.max() > np.pi:
        raise InvalidInputError("detector patch leaves the valid theta range [0, pi]")
    if np.abs(chi).max() >= np.pi / 2:
        raise InvalidInputError("detector patch leaves the valid chi range (-pi/2, pi/2)")
    theta_grid, chi_grid = np.meshgrid(theta, chi, indexing="ij")
    weights = (w_theta[:, None] * (w_chi * np.cos(chi))[None, :]).ravel()
    directions = detection_direction(layout.axis, theta_grid.ravel(), chi_grid.ravel())
    return directions, weights


def _phase_moments(layout, trap, dirs1, w1, dirs2, w2):
    """Total weight W and coherence M = sum w * exp(-1j * delta21).

    A node pair has relative phase k (d axis + du) . (e2 - e1), where
    the displacement difference du is normal with per-axis spread
    sigma = sqrt(2) * confinement.  Averaging over du gives each pair
    the factor exp(-(k sigma)**2 |e1 - e2|**2 / 2), with
    |e1 - e2|**2 = 2 (1 - e1 . e2) for unit directions, so M is one
    weighted sum over the pairs of patch nodes.
    """
    wavenumber = layout.wavenumber
    sigma = math.sqrt(2.0) * trap.confinement
    separation = layout.separation * np.asarray(layout.axis)
    sum1 = w1 * np.exp(1j * wavenumber * (dirs1 @ separation))
    sum2 = w2 * np.exp(-1j * wavenumber * (dirs2 @ separation))
    # the (n1, n2) matrix dominates memory: build it in place, and take
    # two real products so that it is never cast to complex
    decay = dirs1 @ dirs2.T
    decay -= 1.0
    decay *= (wavenumber * sigma) ** 2
    np.exp(decay, out=decay)
    coherence = (sum1.real @ decay + 1j * (sum1.imag @ decay)) @ sum2
    return float(w1.sum() * w2.sum()), complex(coherence)


def _coherence(config, quadrature):
    """Weight W and first phase moment M of the patch and trap average."""
    dirs1, w1 = _patch_nodes(config.detector1, config.layout, quadrature)
    dirs2, w2 = _patch_nodes(config.detector2, config.layout, quadrature)
    return _phase_moments(config.layout, config.trap, dirs1, w1, dirs2, w2)


def _report(config, total_weight, coherence):
    """Generated state from (W, M) next to the point-design target of ``config``."""
    jones1 = polarizer_to_jones(config.detector1.polarizer)
    jones2 = polarizer_to_jones(config.detector2.polarizer)
    delta21 = farfield_phase(
        config.layout, config.detector2.theta_center, config.detector2.chi_center
    ) - farfield_phase(
        config.layout, config.detector1.theta_center, config.detector1.chi_center
    )
    target = heralded_state(jones1, jones2, delta21)
    stat, phase_part = _component_vectors(jones1, jones2)
    rho_raw = (
        total_weight * (np.outer(stat, stat.conj()) + np.outer(phase_part, phase_part.conj()))
        + coherence * np.outer(phase_part, stat.conj())
        + np.conj(coherence) * np.outer(stat, phase_part.conj())
    )
    trace = float(np.real(np.trace(rho_raw)))
    if trace <= 0.0 or trace < 1e-12 * total_weight:
        raise ZeroProbabilityHeraldError(
            "integrated coincidence weight vanishes over the detector patches"
        )
    rho = rho_raw / trace
    try:
        rho = validate_density(rho)
    except InvalidInputError as exc:
        raise NumericalFailureError(
            f"quadrature produced an invalid density matrix: {exc}"
        ) from exc
    c_target = concurrence_pure(target.state)
    c_generated = concurrence_mixed(rho)
    return UncertaintyReport(
        rho_generated=rho,
        target_state=target.state,
        concurrence_target=c_target,
        concurrence_generated=c_generated,
        delta_c=abs(c_generated - c_target),
        fidelity=fidelity_pure_target(rho, target.state),
        heralding_weight=trace,
        delta21_nominal=target.delta21,
        v12=target.v12,
    )


def generated_state(config, quadrature=QuadratureSpec()):
    """Mixed state produced by finite detectors and trapped-emitter motion.

    Averages the heralded projector, weighted by the coincidence weight
    G2, over both detector patches (Gauss-Legendre nodes) and, in
    closed form, over the Gaussian emitter displacements, then compares
    with the point-design target state at the patch centers.

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
    ZeroProbabilityHeraldError
        If the herald never fires at the nominal configuration.
    NumericalFailureError
        If the averaged matrix is not a valid density matrix within
        tolerance.

    Notes
    -----
    The unnormalized heralded vector is ``s + t exp(-1j delta21)`` with
    node-independent s, t, so the average only needs the weight and the
    first phase moment sum w exp(-1j delta21), summed exactly over the
    patch nodes and averaged exactly over the trap.  Detection
    efficiency and dark counts do not enter: the state is conditioned
    on the herald.
    """
    return _report(config, *_coherence(config, quadrature))


def monte_carlo_state(config, samples, seed):
    """Randomized evaluation of ``generated_state`` for cross-validation.

    Draws directions uniformly over each patch (importance-weighted by
    cos chi) and displacement differences from their Gaussian, where
    ``generated_state`` averages the displacements in closed form.
    Deterministic for a fixed ``seed``.
    """
    if samples < 1:
        raise InvalidInputError("samples must be >= 1")
    rng = np.random.default_rng(seed)

    def _draw_patch(patch):
        theta = patch.theta_center + patch.span_theta * (rng.random(samples) - 0.5)
        chi = patch.chi_center + patch.span_chi * (rng.random(samples) - 0.5)
        return detection_direction(config.layout.axis, theta, chi), np.cos(chi)

    dirs1, cos1 = _draw_patch(config.detector1)
    dirs2, cos2 = _draw_patch(config.detector2)
    sigma = math.sqrt(2.0) * config.trap.confinement
    du = sigma * rng.standard_normal((samples, 3))
    base = config.layout.separation * np.asarray(config.layout.axis)
    offset = base[None, :] + du
    wavevector = config.layout.wavenumber
    phase = wavevector * (
        np.einsum("ij,ij->i", offset, dirs2) - np.einsum("ij,ij->i", offset, dirs1)
    )
    weights = cos1 * cos2
    total_weight = float(weights.sum())
    coherence = complex(np.sum(weights * np.exp(-1j * phase)))
    return _report(config, total_weight, coherence)


def theta_center_for_delta21(layout, reference_patch, chi_center, delta21):
    """Detector-2 longitude realizing a requested relative phase.

    Solves ``k d cos(theta) cos(chi_center) = phase(reference) + delta21``
    for theta; near the equator this moves the detector by roughly
    delta21 / (k d) radians.

    Raises
    ------
    InvalidInputError
        If no longitude reaches the requested phase (|cos theta| > 1).
    """
    reference_phase = farfield_phase(
        layout, reference_patch.theta_center, reference_patch.chi_center
    )
    scale = layout.wavenumber * layout.separation * np.cos(chi_center)
    cos_theta = (reference_phase + delta21) / scale
    if not abs(cos_theta) <= 1.0:  # also catches nan
        raise InvalidInputError(
            f"delta21 = {delta21:.6g} is out of reach: needs |cos theta| = "
            f"{abs(cos_theta):.6g} > 1 at this separation"
        )
    return float(np.arccos(cos_theta))


def delta_c_scan(config, quadrature, delta21_values, v12_values):
    """Concurrence error and fidelity over a grid of (delta21, v12) settings.

    Each grid point keeps the patch shapes of ``config`` but moves the
    detector-2 longitude to realize ``delta21`` and sets linear
    analyzers at relative angle arccos(sqrt(v12)) to realize ``v12``.
    Rows are produced in row-major (delta21 outer, v12 inner) order.

    Returns
    -------
    ScanResult
        All grid points plus max |delta C| and min fidelity.
    """
    delta21_values = np.atleast_1d(np.asarray(delta21_values, dtype=float))
    v12_values = np.atleast_1d(np.asarray(v12_values, dtype=float))
    if delta21_values.size == 0 or v12_values.size == 0:
        raise InvalidInputError("scan grids must be nonempty")
    if not (0.0 <= v12_values.min() and v12_values.max() <= 1.0):  # also catches nan
        raise InvalidInputError("v12 grid must lie in [0, 1]")
    points = []
    reference = replace(config.detector1, polarizer=Polarizer.linear(0.0))
    for delta in delta21_values:
        theta2 = theta_center_for_delta21(
            config.layout, reference, config.detector2.chi_center, delta
        )
        detector2 = replace(config.detector2, theta_center=theta2)
        geometry = replace(config, detector1=reference, detector2=detector2)
        # the analyzers do not enter W and M, so each geometry is averaged once
        total_weight, coherence = _coherence(geometry, quadrature)
        for v12 in v12_values:
            probe = replace(detector2, polarizer=Polarizer.linear(math.acos(math.sqrt(v12))))
            report = _report(replace(geometry, detector2=probe), total_weight, coherence)
            points.append(
                ScanPoint(
                    delta21=float(delta),
                    v12=float(v12),
                    delta_c=report.delta_c,
                    fidelity=report.fidelity,
                    concurrence_target=report.concurrence_target,
                    concurrence_generated=report.concurrence_generated,
                )
            )
    return ScanResult(
        points=tuple(points),
        max_delta_c=max(p.delta_c for p in points),
        min_fidelity=min(p.fidelity for p in points),
    )
