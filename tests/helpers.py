"""Shared generators and independent oracles for the test suite."""

import numpy as np
import scipy.linalg

from heraldsim import (
    AtomPairLayout,
    DetectorPatch,
    ExperimentConfig,
    Polarizer,
    TrapModel,
    detection_direction,
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


def quadrature_moments(config, points_patch, points_trap, midpoint=False,
                       trap_dims=3, truncation=5.0):
    """Weight W and coherence M = sum w exp(-1j delta21) by explicit node sums.

    Oracle for the closed-form trap average.  Both patches take
    ``points_patch`` nodes per axis (Gauss-Legendre, or the midpoint rule
    with ``midpoint``) with the cos(chi) measure.  The trap takes
    ``points_trap`` nodes per axis: Gauss-Hermite on the displacement
    difference (spread sqrt(2) * confinement) for ``trap_dims=3``, on
    each emitter's displacement for ``trap_dims=6``, or with
    ``midpoint`` the midpoint rule truncated at ``truncation`` spreads.
    """
    def patch(detector):
        theta, w_theta = _interval_nodes(
            detector.theta_center, detector.span_theta, points_patch, midpoint)
        chi, w_chi = _interval_nodes(
            detector.chi_center, detector.span_chi, points_patch, midpoint)
        grid_theta, grid_chi = np.meshgrid(theta, chi, indexing="ij")
        directions = detection_direction(
            config.layout.axis, grid_theta.ravel(), grid_chi.ravel())
        return directions, np.outer(w_theta, w_chi * np.cos(chi)).ravel()

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
    offsets = config.layout.separation * np.asarray(config.layout.axis) + du
    wavenumber = config.layout.wavenumber
    sum1 = np.exp(1j * wavenumber * (offsets @ dirs1.T)) @ w1
    sum2 = np.exp(-1j * wavenumber * (offsets @ dirs2.T)) @ w2
    total_weight = float(w1.sum() * w2.sum() * du_weights.sum())
    return total_weight, complex(np.sum(du_weights * sum1 * sum2))
