"""Coincidence rates and the mixed state actually generated by a herald.

The closed-form heralded state assumes point detectors and pinned
emitters.  Real detectors cover a finite patch of the far-field sphere
and the emitters move inside their traps, so each coincidence projects
onto a slightly different state and the experiment produces the
G2-weighted average

    rho = N * sum_nodes  w(node) * G2(node) * |psi(node)><psi(node)|,

with nodes running over both detector patches (solid-angle measure
cos(chi) dtheta dchi) and the Gaussian trap displacements, and N fixing
unit trace.  ``generated_state`` evaluates this average with
deterministic tensor quadrature, compares it against the point-design
target, and reports the concurrence error and fidelity.

Quadrature is deterministic: fixed node ordering, vectorized
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

#: names accepted by ``QuadratureSpec.scheme``
QUADRATURE_SCHEMES = ("gauss-legendre", "tensor-midpoint")

#: patches wider than this in theta leave the small-patch rate regime
SMALL_PATCH_LIMIT = 0.1

# trap-node chunk size for the 6-dim mode, keeps the phase matrices small
_CHUNK = 32768


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
    """Node counts and scheme for the generated-state average.

    ``points_theta`` and ``points_chi`` apply per detector patch,
    ``points_trap`` per trap displacement axis.  With
    ``trap_dims = 3`` the two emitter displacements are folded into
    their difference (a Gaussian with per-axis spread sqrt(2) * mu);
    ``trap_dims = 6`` integrates both emitters explicitly at cost
    points_trap**6.  ``trap_truncation`` bounds midpoint and Monte
    Carlo sampling at that many standard deviations; the Gauss-Hermite
    nodes of the default scheme need no truncation.
    """

    points_theta: int = 8
    points_chi: int = 8
    points_trap: int = 8
    scheme: str = "gauss-legendre"
    trap_truncation: float = 5.0
    trap_dims: int = 3

    def __post_init__(self):
        for name in ("points_theta", "points_chi", "points_trap"):
            count = getattr(self, name)
            if not isinstance(count, int) or count < 1:
                raise InvalidInputError(f"{name} must be an integer >= 1")
        if self.scheme not in QUADRATURE_SCHEMES:
            raise InvalidInputError(f"unknown quadrature scheme {self.scheme!r}")
        if not 0.0 < self.trap_truncation < np.inf:
            raise InvalidInputError("trap_truncation must be positive and finite")
        if self.trap_dims not in (3, 6):
            raise InvalidInputError("trap_dims must be 3 or 6")

    def doubled(self):
        """Same spec with every node count doubled (convergence checks)."""
        return replace(
            self,
            points_theta=2 * self.points_theta,
            points_chi=2 * self.points_chi,
            points_trap=2 * self.points_trap,
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
    if true_rate < 0.0:
        raise InvalidInputError("true_rate must be nonnegative")
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


def _interval_rule(center, width, count, scheme):
    """1-D nodes/weights on [center - width/2, center + width/2].

    Zero width collapses to a single unit-weight node at the center
    (point detector); the constant cancels in the trace normalization.
    """
    if width == 0.0:
        return np.array([center]), np.array([1.0])
    if scheme == "gauss-legendre":
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(count)
    else:
        ref_nodes = (2.0 * np.arange(count) + 1.0) / count - 1.0
        ref_weights = np.full(count, 2.0 / count)
    return center + 0.5 * width * ref_nodes, 0.5 * width * ref_weights


def _gaussian_rule(sigma, count, scheme, truncation):
    """1-D nodes/weights integrating against a centered normal density."""
    if scheme == "gauss-legendre":
        # Gauss-Hermite nodes absorb the Gaussian weight exactly
        ref_nodes, ref_weights = np.polynomial.hermite.hermgauss(count)
        return math.sqrt(2.0) * sigma * ref_nodes, ref_weights / math.sqrt(np.pi)
    nodes, weights = _interval_rule(0.0, 2.0 * truncation * sigma, count, scheme)
    density = np.exp(-0.5 * (nodes / sigma) ** 2) / (sigma * math.sqrt(2.0 * np.pi))
    return nodes, weights * density


def _tensor3(nodes, weights):
    grid_x, grid_y, grid_z = np.meshgrid(nodes, nodes, nodes, indexing="ij")
    points = np.stack([grid_x.ravel(), grid_y.ravel(), grid_z.ravel()], axis=1)
    combined = (
        weights[:, None, None] * weights[None, :, None] * weights[None, None, :]
    ).ravel()
    return points, combined


def _patch_nodes(patch, layout, quad):
    """Directions and measure weights (incl. cos chi) covering a patch."""
    theta, w_theta = _interval_rule(
        patch.theta_center, patch.span_theta, quad.points_theta, quad.scheme
    )
    chi, w_chi = _interval_rule(
        patch.chi_center, patch.span_chi, quad.points_chi, quad.scheme
    )
    if theta.min() < 0.0 or theta.max() > np.pi:
        raise InvalidInputError("detector patch leaves the valid theta range [0, pi]")
    if np.abs(chi).max() >= np.pi / 2:
        raise InvalidInputError("detector patch leaves the valid chi range (-pi/2, pi/2)")
    theta_grid, chi_grid = np.meshgrid(theta, chi, indexing="ij")
    weights = (w_theta[:, None] * (w_chi * np.cos(chi))[None, :]).ravel()
    directions = detection_direction(layout.axis, theta_grid.ravel(), chi_grid.ravel())
    return directions, weights


def _trap_difference_nodes(trap, quad):
    """Nodes/weights for the displacement difference u_b - u_a."""
    if trap.confinement == 0.0:
        return np.zeros((1, 3)), np.array([1.0])
    if quad.trap_dims == 3:
        sigma = math.sqrt(2.0) * trap.confinement
        nodes, weights = _gaussian_rule(
            sigma, quad.points_trap, quad.scheme, quad.trap_truncation
        )
        return _tensor3(nodes, weights)
    nodes, weights = _gaussian_rule(
        trap.confinement, quad.points_trap, quad.scheme, quad.trap_truncation
    )
    per_axis_diff = (nodes[None, :] - nodes[:, None]).ravel()
    per_axis_weight = (weights[:, None] * weights[None, :]).ravel()
    return _tensor3(per_axis_diff, per_axis_weight)


def _phase_moments(layout, dirs1, w1, dirs2, w2, du_nodes, du_weights):
    """Total weight W and coherence M = sum w * exp(-1j * delta21(node)).

    The relative phase of a node is k (d axis + du) . (e2 - e1), so the
    phase factor splits per channel and each trap node needs only two
    weighted patch sums.  Reduction order is fixed for determinism.
    """
    wavevector = layout.wavenumber
    base = layout.separation * np.asarray(layout.axis)
    total_weight = float(w1.sum() * w2.sum() * du_weights.sum())
    coherence = 0.0 + 0.0j
    for start in range(0, du_nodes.shape[0], _CHUNK):
        separation_vecs = base[None, :] + du_nodes[start : start + _CHUNK]
        sum1 = np.exp(1j * wavevector * (separation_vecs @ dirs1.T)) @ w1
        sum2 = np.exp(-1j * wavevector * (separation_vecs @ dirs2.T)) @ w2
        coherence += np.sum(du_weights[start : start + _CHUNK] * sum1 * sum2)
    return total_weight, complex(coherence)


def _assemble_report(target, stat, phase_part, total_weight, coherence):
    rho_raw = (
        total_weight * (np.outer(stat, stat.conj()) + np.outer(phase_part, phase_part.conj()))
        + coherence * np.outer(phase_part, stat.conj())
        + np.conj(coherence) * np.outer(stat, phase_part.conj())
    )
    trace = float(np.real(np.trace(rho_raw)))
    if trace <= 0.0 or trace < 1e-12 * max(total_weight, 1.0):
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


def _nominal_target(config):
    jones1 = polarizer_to_jones(config.detector1.polarizer)
    jones2 = polarizer_to_jones(config.detector2.polarizer)
    phase1 = farfield_phase(
        config.layout, config.detector1.theta_center, config.detector1.chi_center
    )
    phase2 = farfield_phase(
        config.layout, config.detector2.theta_center, config.detector2.chi_center
    )
    return jones1, jones2, heralded_state(jones1, jones2, phase2 - phase1)


def generated_state(config, quadrature=QuadratureSpec()):
    """Mixed state produced by finite detectors and trapped-emitter motion.

    Averages the heralded projector, weighted by the coincidence weight
    G2, over both detector patches and the Gaussian emitter
    displacements, then compares with the point-design target state at
    the patch centers.

    Parameters
    ----------
    config : ExperimentConfig
    quadrature : QuadratureSpec
        Node counts and scheme of the deterministic tensor quadrature.

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
    first phase moment sum w exp(-1j delta21); the quadrature node sum
    is evaluated exactly in that form.  Detection efficiency and dark
    counts do not enter: the state is conditioned on the herald.
    """
    jones1, jones2, target = _nominal_target(config)
    dirs1, w1 = _patch_nodes(config.detector1, config.layout, quadrature)
    dirs2, w2 = _patch_nodes(config.detector2, config.layout, quadrature)
    du_nodes, du_weights = _trap_difference_nodes(config.trap, quadrature)
    total_weight, coherence = _phase_moments(
        config.layout, dirs1, w1, dirs2, w2, du_nodes, du_weights
    )
    stat, phase_part = _component_vectors(jones1, jones2)
    return _assemble_report(target, stat, phase_part, total_weight, coherence)


def monte_carlo_state(config, samples, seed):
    """Randomized evaluation of ``generated_state`` for cross-validation.

    Draws directions uniformly over each patch (importance-weighted by
    cos chi) and displacement differences from the untruncated Gaussian
    (the mass beyond the default truncation is ~6e-7 and far below
    sampling noise).  Deterministic for a fixed ``seed``.
    """
    if samples < 1:
        raise InvalidInputError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    jones1, jones2, target = _nominal_target(config)

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
    stat, phase_part = _component_vectors(jones1, jones2)
    return _assemble_report(target, stat, phase_part, total_weight, coherence)


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
    if abs(cos_theta) > 1.0:
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
    if v12_values.min() < 0.0 or v12_values.max() > 1.0:
        raise InvalidInputError("v12 grid must lie in [0, 1]")
    points = []
    reference = replace(config.detector1, polarizer=Polarizer.linear(0.0))
    for delta in delta21_values:
        theta2 = theta_center_for_delta21(
            config.layout, reference, config.detector2.chi_center, delta
        )
        for v12 in v12_values:
            alpha = math.acos(math.sqrt(v12))
            probe = replace(
                config.detector2, theta_center=theta2, polarizer=Polarizer.linear(alpha)
            )
            scan_config = replace(config, detector1=reference, detector2=probe)
            report = generated_state(scan_config, quadrature)
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
