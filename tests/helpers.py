"""Shared generators and independent oracles for the test suite."""

import io
import math
import os

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
    visibility,
)
from heraldsim.geometry import (
    _SAMPLE_BLOCK,
    _directions,
    _longitudes,
    _quadrature_moments,
    _trap_spread,
)
from heraldsim.optics import MIN_HERALD_WEIGHT, _concurrence_closed_form
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


def matrix_route(m, stat, phase_part, target):
    """(C_target, C_generated, fidelity, trace) from the 4x4 generated state.

    Oracle for the closed-form figures: builds the average per unit
    weight |s><s| + |t><t| + m |t><s| + m* |s><t|, normalizes it by its
    trace and runs the density-matrix checks, the Wootters concurrence
    and the fidelity with the normalized ``target``.
    """
    stat, phase_part = np.asarray(stat), np.asarray(phase_part)
    rho_raw = (np.outer(stat, stat.conj()) + np.outer(phase_part, phase_part.conj())
               + m * np.outer(phase_part, stat.conj())
               + np.conj(m) * np.outer(stat, phase_part.conj()))
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
    """(W, m, delta21) as ``generated_state`` takes them: the G = 1 quadrature entry."""
    return _quadrature_moments(config.layout, config.trap, config.detector1,
                               config.detector2, quad)


def block_draws(seed, samples):
    """Uniforms (4, size) and normals (size,) of each block ``_sampled_moments`` draws, in order.

    Block b of ``_SAMPLE_BLOCK`` samples draws from child b of
    ``default_rng(seed).spawn``, the stream ``_sampled_moments`` builds as
    ``SeedSequence(seed, spawn_key=(b,))``: the rows theta1, z1, theta2, z2
    of uniforms, then the normals.
    """
    starts = range(0, samples, _SAMPLE_BLOCK)
    return [(rng.random((4, size)), rng.standard_normal(size))
            for rng, size in zip(np.random.default_rng(seed).spawn(len(starts)),
                                 (min(_SAMPLE_BLOCK, samples - start) for start in starts))]


def sampled_moments_one_shot(layout, trap, patch1, patch2, samples, seed):
    """(W, m, delta21) by sampling, every sample held at once.

    Oracle for the blocked ``geometry._sampled_moments``: the same draws
    (``block_draws``) joined into whole arrays, with (samples, 3) direction
    arrays, an ``einsum`` for |e2 - e1| and one complex mean; W is the patch
    measure from sin(chi + s/2) - sin(chi - s/2), a zero span counting as in
    the quadrature.
    """
    uniforms, normals = (np.concatenate(parts, axis=-1)
                         for parts in zip(*block_draws(seed, samples)))

    def draw(patch, theta_u, z_u):
        theta = patch.theta_center + patch.span_theta * (theta_u - 0.5)
        low, high = (math.sin(patch.chi_center + sign * 0.5 * patch.span_chi)
                     for sign in (-1, 1))
        z = low + (high - low) * z_u
        cos_chi = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        area = (patch.span_theta or 1.0) * ((high - low) if patch.span_chi
                                            else math.cos(patch.chi_center))
        return np.stack([np.cos(theta) * cos_chi, np.sin(theta) * cos_chi, z], axis=1), area

    (dirs1, area1), (dirs2, area2) = draw(patch1, *uniforms[:2]), draw(patch2, *uniforms[2:])
    difference = dirs2 - dirs1
    distance = np.sqrt(np.einsum("ij,ij->i", difference, difference))
    offset = math.sqrt(2.0) * trap.confinement * normals
    phase = layout.wavenumber * (layout.separation * difference[:, 0] + offset * distance)
    return (area1 * area2, complex(np.mean(np.exp(-1j * phase))),
            float(_longitudes(layout, patch1, patch2)[1][0]))


def sampled_terms_weighted_angles(layout, trap, patch1, patch2, samples, rng):
    """Weights cos chi1 cos chi2 and terms exp(-1j phase) of a weighted-angle estimator.

    Statistical oracle for ``geometry._sampled_moments``: theta and chi
    uniform over each patch, each sample weighted by cos chi1 cos chi2,
    and a three-component trap normal projected on e2 - e1.  The ratio
    ``sum w e / sum w`` estimates the same m by other draws.
    """
    def draw(patch):
        theta = patch.theta_center + patch.span_theta * (rng.random(samples) - 0.5)
        chi = patch.chi_center + patch.span_chi * (rng.random(samples) - 0.5)
        return _directions(theta, chi)

    (dirs1, cos1), (dirs2, cos2) = draw(patch1), draw(patch2)
    offset = math.sqrt(2.0) * trap.confinement * rng.standard_normal((samples, 3))
    offset[:, 0] += layout.separation
    phase = layout.wavenumber * (np.einsum("ij,ij->i", offset, dirs2)
                                 - np.einsum("ij,ij->i", offset, dirs1))
    return cos1 * cos2, np.exp(-1j * phase)


def pretend_cores(monkeypatch, cores):
    """Make this process look as if it may run on ``cores`` cores."""
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)


def block_starts(patch1, samples, seed):
    """theta1 / 2 of the first sample of each block ``_sampled_moments`` draws for ``seed``.

    A block's theta1 / 2 row, whose first entry this is, passes through ``np.tan``
    once as the block is summed, so a tangent of an array starting with one of
    these values marks a block beginning.
    """
    return [0.5 * patch1.theta_center + 0.5 * patch1.span_theta * (uniforms[0, 0] - 0.5)
            for uniforms, _ in block_draws(seed, samples)]


def _serial_block_sums(layout, trap, patch1, patch2, samples, seed, block_sums):
    """(W, m, delta21) from each block's drawn angles, the block sums added in block order.

    Each block's own draws (``block_draws``), z = sin chi uniform over each
    patch's zone: ``block_sums(kd, k_sigma, theta1, cos1, theta2, cos2, dz,
    normal)`` gives the block's sums of cos p and sin p.
    """
    k_sigma = _trap_spread(layout, trap)
    centers, area = [], 1.0
    for patch in (patch1, patch2):
        half = 0.5 * patch.span_chi
        z_center = math.sin(patch.chi_center) * math.cos(half)
        z_width = 2.0 * math.cos(patch.chi_center) * math.sin(half)
        centers += [(patch.theta_center, patch.span_theta), (z_center, z_width)]
        area *= (patch.span_theta or 1.0) * (z_width if patch.span_chi
                                             else math.cos(patch.chi_center))
    kd = layout.wavenumber * layout.separation
    real, imag = 0.0, 0.0
    for uniforms, normal in block_draws(seed, samples):
        theta1, z1, theta2, z2 = (center + span * (row - 0.5)
                                  for (center, span), row in zip(centers, uniforms))
        cos1, cos2 = (np.sqrt(np.maximum((1.0 - z) * (1.0 + z), 0.0)) for z in (z1, z2))
        cos_sum, sin_sum = block_sums(kd, k_sigma, theta1, cos1, theta2, cos2, z2 - z1,
                                      normal)
        real += cos_sum
        imag -= sin_sum
    return (area, complex(real, imag) / samples,
            float(_longitudes(layout, patch1, patch2)[1][0]))


def _half_angle_sums(kd, k_sigma, theta1, cos1, theta2, cos2, dz, normal):
    """Sums of cos p and sin p from three tangents a sample, as ``_sampled_moments`` takes them."""
    minus_x, half_y = [], []
    for theta, cos_chi in ((theta1, cos1), (theta2, cos2)):
        t = np.tan(0.5 * theta)
        q = cos_chi / (t * t + 1.0)
        minus_x.append(cos_chi - 2.0 * q)
        half_y.append(t * q)
    dx = minus_x[0] - minus_x[1]
    dy = 2.0 * (half_y[1] - half_y[0])
    tangent = np.tan(0.5 * kd * dx
                     + 0.5 * k_sigma * (normal * np.sqrt(dx * dx + dy * dy + dz * dz)))
    cos_sq = 1.0 / (tangent * tangent + 1.0)
    return 2.0 * cos_sq.sum() - len(cos_sq), 2.0 * (tangent * cos_sq).sum()


def _direct_trig_sums(kd, k_sigma, theta1, cos1, theta2, cos2, dz, normal):
    """Sums of cos p and sin p from cos and sin of both longitudes and of the phase."""
    dx = np.cos(theta2) * cos2 - np.cos(theta1) * cos1
    dy = np.sin(theta2) * cos2 - np.sin(theta1) * cos1
    phase = kd * dx + k_sigma * (normal * np.sqrt(dx * dx + dy * dy + dz * dz))
    return np.cos(phase).sum(), np.sin(phase).sum()


def sampled_moments_serial(layout, trap, patch1, patch2, samples, seed):
    """(W, m, delta21) by sampling, the blocks drawn and summed one after another on one thread.

    Oracle for ``geometry._sampled_moments``, whose threads draw and sum the
    blocks in whatever order they take them, bit for bit: the same half-angle
    sums of each block of ``_SAMPLE_BLOCK`` samples, added in block order.
    """
    return _serial_block_sums(layout, trap, patch1, patch2, samples, seed, _half_angle_sums)


def sampled_moments_direct_trig(layout, trap, patch1, patch2, samples, seed):
    """(W, m, delta21) by sampling, each block summed by cos and sin calls.

    Independent oracle for the half-angle arithmetic of
    ``geometry._sampled_moments``: the same per-block draws, with
    cos(theta) cos(chi), sin(theta) cos(chi) and exp(-1j p) taken by six
    ``cos`` and ``sin`` calls a sample.
    """
    return _serial_block_sums(layout, trap, patch1, patch2, samples, seed, _direct_trig_sums)


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
    """Weight W and coherence factor m = M / W, M = sum w exp(-1j delta21), by node sums.

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
    return total_weight, complex(np.sum(du_weights * sum1 * sum2)) / total_weight


def _fmt(value):
    return f"{value:.17g}"


def scan_csv_per_cell(result):
    """The ``uncertainty --out`` CSV of the scan ``result``, written one cell
    at a time with an f-string per figure: the CLI's former loop."""
    handle = io.StringIO()
    # every field is a number, so no csv quoting; the cells go
    # row-major (delta21 outer, v12 inner), each value through _fmt once
    handle.write("delta21_rad,v12,delta_c,fidelity,"
                 "concurrence_target,concurrence_generated\n")
    v12_fields = [_fmt(v12) for v12 in result.v12.tolist()]
    cells = (f"{delta},{v12}," for delta in map(_fmt, result.delta21.tolist())
             for v12 in v12_fields)
    figures = zip(*(map(_fmt, column.ravel().tolist()) for column in (
        result.delta_c, result.fidelity, result.concurrence_target,
        result.concurrence_generated)))
    handle.write("".join(cell + ",".join(row) + "\n"
                         for cell, row in zip(cells, figures)))
    return handle.getvalue()


def malus_csv_per_row(delta, points):
    """The ``malus --delta21 delta --points points`` CSV, written one row at a
    time with an f-string per field: the CLI's former loop."""
    alphas = np.linspace(0.0, math.pi / 2.0, points).tolist()
    reference = Polarizer.linear(0.0).jones
    v12s = [visibility(reference, Polarizer.linear(alpha).jones) for alpha in alphas]
    _, values = _concurrence_closed_form(delta, np.array(v12s))
    handle = io.StringIO()
    handle.write("alpha_rad,v12,concurrence,sin2_alpha,difference\n")
    for alpha, v12, value in zip(alphas, v12s, values.tolist()):
        malus = math.sin(alpha) ** 2
        handle.write(",".join(map(_fmt, (alpha, v12, value, malus, abs(value - malus))))
                     + "\n")
    return handle.getvalue()
