"""Shared generators and independent oracles for the test suite."""

import numpy as np
import scipy.linalg

from heraldsim import (
    AtomPairLayout,
    DetectorPatch,
    ExperimentConfig,
    HeraldedOutcome,
    Polarizer,
    TrapModel,
    ZeroProbabilityHeraldError,
    detection_direction,
    farfield_phase,
)
from heraldsim.geometry import _quadrature_moments
from heraldsim.optics import MIN_HERALD_WEIGHT
from heraldsim.qcore import (
    concurrence_mixed,
    concurrence_pure,
    validate_density,
    validate_state,
)

SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=complex,
)

BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
BELL_PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
BELL_PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


def random_pure_state(rng, dim=4):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_jones(rng):
    return random_pure_state(rng, dim=2)


def haar_unitary(rng, dim=2):
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(ginibre)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, rank=4):
    ginibre = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = ginibre @ ginibre.conj().T
    return rho / np.real(np.trace(rho))


def pure_to_density(state):
    """Rank-1 density matrix |state><state|."""
    return np.outer(state, state.conj())


def wrap_phase(phase):
    """Phase reduced to [-pi, pi]."""
    return np.angle(np.exp(1j * phase))


def werner_state(p):
    """p |Psi+><Psi+| + (1 - p) I/4; concurrence max(0, (3p - 1)/2)."""
    return p * np.outer(BELL_PSI_PLUS, BELL_PSI_PLUS.conj()) + (1.0 - p) * np.eye(4) / 4.0


def wootters_oracle(rho):
    """Independent concurrence via matrix square roots (Hermitian route)."""
    root = scipy.linalg.sqrtm(rho)
    flipped = SPIN_FLIP @ rho.conj() @ SPIN_FLIP
    middle = scipy.linalg.sqrtm(root @ flipped @ root)
    lam = np.sort(np.real(np.linalg.eigvals(middle)))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def heralded_state_via_operators(jones1, jones2, phase1, phase2):
    """Herald built from explicit detection operators on the emitter levels.

    Oracle for ``heralded_state``.  Each emitter has the levels e = 0,
    + = 1, - = 2, and a pair state is a length-9 vector indexed by
    ``3 * level_A + level_B``.  Detection channel i applies

        D_i = K_i (x) 1 + exp(-1j * phase_i) 1 (x) K_i,

    where the lowering operator K_i maps |e> to eps_minus |+> +
    eps_plus |-> for the analyzer (eps_plus, eps_minus) and annihilates
    the lower levels, and ``phase_i`` is the propagation phase from the
    second emitter to detector i relative to the first.  D_1 D_2 |e, e>
    is projected on (++, +-, -+, --), normalized, and its first
    non-negligible amplitude is rotated to the real nonnegative axis.
    ``delta21`` of the outcome is ``phase2 - phase1``, unreduced.
    """
    pair = np.zeros(9, dtype=complex)
    pair[0] = 1.0
    identity = np.eye(3)
    for jones, phase in ((jones2, phase2), (jones1, phase1)):
        lower = np.zeros((3, 3), dtype=complex)
        lower[1, 0], lower[2, 0] = jones[1], jones[0]
        pair = (np.kron(lower, identity)
                + np.exp(-1j * phase) * np.kron(identity, lower)) @ pair
    amps = pair[[4, 5, 7, 8]]
    weight = float(np.real(np.vdot(amps, amps)))
    if 0.5 * weight < MIN_HERALD_WEIGHT:  # the closed-form rule on 1 + v12 cos delta21
        raise ZeroProbabilityHeraldError(f"coincidence weight {weight:.3g}")
    state = amps / np.sqrt(weight)
    pivot = state[np.abs(state) > 1e-10][0]
    return HeraldedOutcome(state=state * (np.conj(pivot) / abs(pivot)), g2=weight,
                           delta21=phase2 - phase1,
                           v12=float(abs(np.vdot(jones1, jones2)) ** 2))


def fidelity_pure_target(rho, target):
    """Overlap <target| rho |target> of a density matrix with a pure target."""
    vec = validate_state(target)
    return float(np.real(vec.conj() @ validate_density(rho) @ vec))


def matrix_route(total_weight, coherence, stat, phase_part, target):
    """(C_target, C_generated, fidelity, trace) from the 4x4 generated state.

    Oracle for the closed-form figures: builds the unnormalized average
    W (|s><s| + |t><t|) + M |t><s| + M* |s><t|, normalizes it by its
    trace and runs the density-matrix checks, the Wootters concurrence
    and the fidelity with the normalized ``target``.
    """
    stat, phase_part = np.asarray(stat), np.asarray(phase_part)
    rho_raw = (total_weight * (np.outer(stat, stat.conj())
                               + np.outer(phase_part, phase_part.conj()))
               + coherence * np.outer(phase_part, stat.conj())
               + np.conj(coherence) * np.outer(stat, phase_part.conj()))
    trace = float(np.real(np.trace(rho_raw)))
    rho = validate_density(rho_raw / trace)
    return (concurrence_pure(target), concurrence_mixed(rho),
            fidelity_pure_target(rho, target), trace)


def reference_layout():
    """5 um pair separation at 650 nm emission."""
    return AtomPairLayout(separation=5e-6, wavelength=650e-9)


def reference_patch(polarizer, theta_center=np.pi / 2, span_theta=5e-3,
                    span_chi=np.pi / 6, chi_center=0.0):
    """Equatorial patch, 5 mrad by pi/6 opening."""
    return DetectorPatch(
        theta_center=theta_center,
        span_theta=span_theta,
        span_chi=span_chi,
        chi_center=chi_center,
        polarizer=polarizer,
    )


def reference_config(confinement=10e-9, angle2=np.pi / 4, repetition_rate=5e6,
                     detector_efficiency=0.3, dark_count_rate=100.0,
                     coincidence_window=10e-9, **patch_kwargs):
    """Both detectors on the equator, linear analyzers at 0 and angle2."""
    return ExperimentConfig(
        layout=reference_layout(),
        trap=TrapModel(confinement=confinement),
        detector1=reference_patch(Polarizer.linear(0.0), **patch_kwargs),
        detector2=reference_patch(Polarizer.linear(angle2), **patch_kwargs),
        repetition_rate=repetition_rate,
        detector_efficiency=detector_efficiency,
        dark_count_rate=dark_count_rate,
        coincidence_window=coincidence_window,
    )


def point_detector_config(polarizer1, polarizer2, theta2=np.pi / 2):
    """Pinned emitters observed by two point detectors."""
    return ExperimentConfig(
        layout=reference_layout(),
        trap=TrapModel(confinement=0.0),
        detector1=reference_patch(polarizer1, span_theta=0.0, span_chi=0.0),
        detector2=reference_patch(polarizer2, theta_center=theta2,
                                  span_theta=0.0, span_chi=0.0),
        repetition_rate=5e6,
    )


def _interval_nodes(center, width, count, midpoint):
    if width == 0.0:
        return np.array([center]), np.array([1.0])
    if midpoint:
        ref_nodes = (2.0 * np.arange(count) + 1.0) / count - 1.0
        ref_weights = np.full(count, 2.0 / count)
    else:
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(count)
    return center + 0.5 * width * ref_nodes, 0.5 * width * ref_weights


def _normal_nodes(sigma, count, midpoint, truncation):
    if midpoint:
        nodes, weights = _interval_nodes(0.0, 2.0 * truncation * sigma, count, True)
        density = np.exp(-0.5 * (nodes / sigma) ** 2) / (sigma * np.sqrt(2.0 * np.pi))
        return nodes, weights * density
    nodes, weights = np.polynomial.hermite.hermgauss(count)
    return np.sqrt(2.0) * sigma * nodes, weights / np.sqrt(np.pi)


def patch_moments(config, quad):
    """(W, M, delta21) as ``generated_state`` takes them: the G = 1 quadrature entry."""
    return _quadrature_moments(config.layout, config.trap, config.detector1,
                               config.detector2, quad)


def nominal_phase(config):
    """Relative far-field phase delta21 of the patch centers by the public ``farfield_phase``."""
    return float(farfield_phase(config.layout, config.detector2.theta_center,
                                config.detector2.chi_center)
                 - farfield_phase(config.layout, config.detector1.theta_center,
                                  config.detector1.chi_center))


def grid_nodes(detector, points_theta, points_chi, midpoint=False):
    """Directions and cos(chi) measure weights of a patch by the meshgrid route.

    Oracle for ``geometry._patch_nodes``: the theta-major node grid goes
    through the public, checked ``detection_direction``.
    """
    theta, w_theta = _interval_nodes(
        detector.theta_center, detector.span_theta, points_theta, midpoint)
    chi, w_chi = _interval_nodes(detector.chi_center, detector.span_chi, points_chi, midpoint)
    grid_theta, grid_chi = np.meshgrid(theta, chi, indexing="ij")
    return (detection_direction(grid_theta.ravel(), grid_chi.ravel()),
            np.outer(w_theta, w_chi * np.cos(chi)).ravel())


def quadrature_moments(config, points_patch, points_trap, midpoint=False,
                       trap_dims=3, truncation=5.0, rotation=np.eye(3)):
    """Weight W and coherence M = sum w exp(-1j delta21) by explicit node sums.

    Oracle for the closed-form trap average.  The separation is an
    explicit vector d e_x, and ``rotation`` (orthogonal 3x3) turns it
    and every node direction while the trap grid stays lab-aligned.
    Both patches take
    ``points_patch`` nodes per axis (Gauss-Legendre, or the midpoint rule
    with ``midpoint``) with the cos(chi) measure.  The trap takes
    ``points_trap`` nodes per axis: Gauss-Hermite on the displacement
    difference (spread sqrt(2) * confinement) for ``trap_dims=3``, on
    each emitter's displacement for ``trap_dims=6``, or with
    ``midpoint`` the midpoint rule truncated at ``truncation`` spreads.
    """
    def patch(detector):
        directions, weights = grid_nodes(detector, points_patch, points_patch, midpoint)
        return directions @ rotation.T, weights

    dirs1, w1 = patch(config.detector1)
    dirs2, w2 = patch(config.detector2)
    confinement = config.trap.confinement
    if confinement == 0.0:
        axis_nodes, axis_weights = np.zeros(1), np.ones(1)
    elif trap_dims == 3:
        axis_nodes, axis_weights = _normal_nodes(
            np.sqrt(2.0) * confinement, points_trap, midpoint, truncation)
    else:
        nodes, weights = _normal_nodes(confinement, points_trap, midpoint, truncation)
        axis_nodes = (nodes[None, :] - nodes[:, None]).ravel()
        axis_weights = np.outer(weights, weights).ravel()
    grids = np.meshgrid(axis_nodes, axis_nodes, axis_nodes, indexing="ij")
    du = np.stack([grid.ravel() for grid in grids], axis=1)
    du_weights = np.einsum("i,j,k->ijk", axis_weights, axis_weights, axis_weights).ravel()
    separation = rotation @ np.array([config.layout.separation, 0.0, 0.0])
    offsets = separation + du
    wavenumber = config.layout.wavenumber
    sum1 = np.exp(1j * wavenumber * (offsets @ dirs1.T)) @ w1
    sum2 = np.exp(-1j * wavenumber * (offsets @ dirs2.T)) @ w2
    total_weight = float(w1.sum() * w2.sum() * du_weights.sum())
    return total_weight, complex(np.sum(du_weights * sum1 * sum2))
