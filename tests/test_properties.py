"""Property tests of the coherence-factor core over random designs.

Geometry and trap motion reach the generated state only through the
coherence factor m = M / W, and the analyzers only through the
visibility V, so the generated concurrence has the closed form
(1 - V)|m| / (1 + V Re m), and |m| <= 1.  The closed-form figures of
``herald._figures`` are checked against the 4x4 matrix route of
``helpers.matrix_route``, and every report against the Wootters
concurrence of its own 4x4 matrix (``generated_state`` itself checks
only the rank-2 factor).  The sampled route's half-angle sums are checked
against ``cos`` and ``sin`` calls on the same draws.  Draws are
derandomized, so every run checks the same examples.
"""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heraldsim import (
    AtomPairLayout,
    DetectorPatch,
    ExperimentConfig,
    InvalidInputError,
    Polarizer,
    QuadratureSpec,
    TrapModel,
    concurrence_mixed,
    generated_state,
    geometry,
    herald,
    heralded_state,
    polarizer_to_jones,
    theta_center_for_delta21,
    visibility,
)
from heraldsim.optics import _component_vectors

from helpers import (
    block_draws,
    matrix_route,
    nominal_phase,
    patch_moments,
    sampled_moments_direct_trig,
)

QUAD = QuadratureSpec(points_theta=6, points_chi=6)
#: draws whose nominal herald weight 1 + V cos(delta21) falls below this
#: are skipped, so no draw sits at the zero-probability herald
MIN_HERALD_WEIGHT = 0.05

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)

analyzers = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda parts: np.hypot(*parts[:2]) + np.hypot(*parts[2:]) > 0.1
).map(lambda parts: Polarizer.general(complex(*parts[:2]), complex(*parts[2:])))
patches = st.builds(
    DetectorPatch,
    theta_center=st.floats(np.pi / 2 - 0.3, np.pi / 2 + 0.3),
    chi_center=st.floats(-0.3, 0.3),
    # spans below a microradian would underflow the weight product
    span_theta=st.one_of(st.just(0.0), st.floats(1e-6, 20e-3)),
    span_chi=st.one_of(st.just(0.0), st.floats(1e-6, np.pi / 4)),
    polarizer=analyzers,
)
configs = st.builds(
    ExperimentConfig,
    layout=st.builds(AtomPairLayout, separation=st.floats(2e-6, 20e-6),
                     wavelength=st.floats(400e-9, 900e-9)),
    trap=st.builds(TrapModel, confinement=st.floats(0.0, 60e-9)),
    detector1=patches,
    detector2=patches,
    repetition_rate=st.just(5e6),
)


def _coherence_factor(config):
    return patch_moments(config, QUAD)[1]


def _visibility(config):
    return visibility(polarizer_to_jones(config.detector1.polarizer),
                      polarizer_to_jones(config.detector2.polarizer))


def _heralding_delta21(config):
    """Nominal phase of ``config``, skipping draws near the zero-probability herald."""
    delta21 = nominal_phase(config)
    assume(1.0 + _visibility(config) * np.cos(delta21) >= MIN_HERALD_WEIGHT)
    return delta21


def _report(config):
    _heralding_delta21(config)
    return generated_state(config, QUAD)


@PROPERTY_SETTINGS
@given(configs)
def test_concurrence_has_the_coherence_factor_closed_form(config):
    report = _report(config)
    v12 = _visibility(config)
    m = _coherence_factor(config)
    closed = (1.0 - v12) * abs(m) / (1.0 + v12 * m.real)
    assert abs(report.concurrence_generated - closed) < 1e-9


@PROPERTY_SETTINGS
@given(configs)
def test_closed_form_figures_match_the_matrix_route(config):
    delta21 = _heralding_delta21(config)
    m = _coherence_factor(config)
    jones1 = polarizer_to_jones(config.detector1.polarizer)
    jones2 = polarizer_to_jones(config.detector2.polarizer)
    target = heralded_state(jones1, jones2, delta21)
    stat, phase_part = _component_vectors(jones1, jones2)
    closed = herald._figures(m, target.v12, delta21)
    oracle = matrix_route(m, stat, phase_part, target.state)
    for value, expected in zip(closed[:3], oracle[:3]):
        assert abs(value - expected) < 1e-12
    assert abs(closed[3] - oracle[3]) < 1e-12 * oracle[3]


@PROPERTY_SETTINGS
@given(configs)
def test_report_matches_the_wootters_route(config):
    # concurrence_mixed validates rho (Hermitian, unit trace, positive) first
    report = _report(config)
    assert abs(concurrence_mixed(report.rho_generated)
               - report.concurrence_generated) < 1e-9


@PROPERTY_SETTINGS
@given(configs)
def test_concurrence_lies_in_the_unit_interval(config):
    assert 0.0 <= _report(config).concurrence_generated <= 1.0


@PROPERTY_SETTINGS
@given(configs)
def test_swapping_the_detectors_keeps_the_concurrence(config):
    report = _report(config)
    swapped = dataclasses.replace(config, detector1=config.detector2,
                                  detector2=config.detector1)
    assert abs(generated_state(swapped, QUAD).concurrence_generated
               - report.concurrence_generated) < 1e-9


@PROPERTY_SETTINGS
@given(configs, st.floats(-np.pi, np.pi))
def test_global_analyzer_phase_keeps_the_concurrence(config, phase):
    report = _report(config)
    rotated = Polarizer.general(
        *(np.exp(1j * phase) * np.array(config.detector2.polarizer.jones)))
    shifted = dataclasses.replace(
        config, detector2=dataclasses.replace(config.detector2, polarizer=rotated))
    assert abs(generated_state(shifted, QUAD).concurrence_generated
               - report.concurrence_generated) < 1e-9


@PROPERTY_SETTINGS
@given(configs, st.floats(0.0, 60e-9))
def test_trap_motion_dephases_point_detectors(config, wider):
    # With finite patches |m| can grow with confinement (by up to 7e-3
    # over random designs of this range; the brute-force quadrature
    # agrees): the trap damps the node pairs unequally.  Between point
    # detectors it multiplies m by exp(-(k sigma)**2 |e1 - e2|**2 / 2).
    narrow, wide = sorted((config.trap.confinement, wider))
    points = dataclasses.replace(
        config,
        detector1=dataclasses.replace(config.detector1, span_theta=0.0, span_chi=0.0),
        detector2=dataclasses.replace(config.detector2, span_theta=0.0, span_chi=0.0),
    )
    m_narrow, m_wide = (_coherence_factor(dataclasses.replace(points, trap=TrapModel(mu)))
                        for mu in (narrow, wide))
    assert abs(m_wide) <= abs(m_narrow) + 1e-12
    for mu in (narrow, wide):
        m = _coherence_factor(dataclasses.replace(config, trap=TrapModel(mu)))
        assert abs(m) <= 1.0 + 1e-12


#: pair-block widths, in columns, that the stacked pass is also run with:
#: the module's own budget, one column, and blocks that end one column
#: before or one column after the first geometry boundary (these mostly
#: leave a partial last block)
BLOCK_WIDTHS = ("budget", "one column", "geometry - 1", "geometry + 1")


@PROPERTY_SETTINGS
@given(configs, st.integers(1, 12), st.integers(1, 12),
       st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8), st.sampled_from(BLOCK_WIDTHS))
def test_stacked_moments_match_one_geometry_at_a_time(config, points_theta, points_chi,
                                                      deltas, block_width):
    # the scan's one (W, m) pass over every delta21 geometry against the
    # G = 1 pass of generated_state on each moved detector
    quad = QuadratureSpec(points_theta=points_theta, points_chi=points_chi)
    detector1, detector2 = config.detector1, config.detector2
    n1, n2 = (len(geometry._patch_nodes(patch, quad, np.array([patch.theta_center]))[1])
              for patch in (detector1, detector2))
    width = {"budget": geometry._PAIR_BLOCK_BYTES // (8 * n1), "one column": 1,
             "geometry - 1": max(1, n2 - 1), "geometry + 1": n2 + 1}[block_width]
    try:
        with mock.patch.object(geometry, "_PAIR_BLOCK_BYTES", 8 * n1 * width):
            weight, m, phases = geometry._quadrature_moments(
                config.layout, config.trap, detector1, detector2, quad, np.array(deltas))
    except InvalidInputError:  # out of reach, or a moved patch leaves [0, pi]
        assume(False)
    assert m.shape == phases.shape == (len(deltas),)
    for delta, stacked_m, phase in zip(deltas, m, phases):
        moved = dataclasses.replace(detector2, theta_center=theta_center_for_delta21(
            config.layout, detector1, detector2.chi_center, delta))
        cell = dataclasses.replace(config, detector2=moved)
        one_weight, one_m, one_phase = patch_moments(cell, quad)
        assert one_weight == weight
        assert abs(stacked_m - one_m) <= 1e-15
        assert phase == one_phase


@st.composite
def sampled_patches(draw):
    """Patches up to the limits of the sphere, some with edges at theta = 0 and pi.

    A center of pi/2 with a full span reaches theta = 0, the float below pi
    reaches theta = pi, where tan(theta / 2) is 1.6e16, and 5e-324 sits at 0;
    chi centers next to +-pi/2 and chi spans to within 1e-9 of a pole reach
    cos chi near 0.  Fractions 0 give zero spans.
    """
    theta = draw(st.floats(1e-3, np.pi - 1e-3)
                 | st.sampled_from([5e-324, np.pi / 2, np.nextafter(np.pi, 0.0)]))
    chi = draw(st.floats(-1.5, 1.5)
               | st.sampled_from([0.0, np.nextafter(np.pi / 2, 0.0),
                                  -np.nextafter(np.pi / 2, 0.0)]))
    fractions = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    span_theta = draw(fractions) * 2.0 * min(theta, np.pi - theta)
    span_chi = draw(fractions) * (1.0 - 1e-9) * (np.pi - 2.0 * abs(chi))
    try:
        return DetectorPatch(theta, span_theta, span_chi, Polarizer.linear(0.0), chi)
    except InvalidInputError:  # a span a rounding past its limit
        assume(False)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(sampled_patches(), sampled_patches(),
       st.builds(AtomPairLayout, separation=st.floats(1e-7, 1e-4) | st.floats(1e-4, 0.1),
                 wavelength=st.floats(400e-9, 900e-9)),
       st.just(0.0) | st.floats(0.0, 1e-5), st.integers(1, 2 * 8192 + 3),
       st.integers(0, 2**32 - 1))
def test_sampled_moments_match_the_direct_trig_sums(patch1, patch2, layout, confinement,
                                                    samples, seed):
    # three tangents a sample against six cos / sin calls on the same draws,
    # over phases up to about 1e6 rad.  The half-angle identities are exact,
    # so the routes differ by rounding alone: 2 D - 1 and 2 T D are within
    # 2 ulp of cos p and sin p at any p, and each route rounds a direction
    # component within 2 ulp of 1, which the phase scales by up to
    # k d + k sigma |n|
    trap = TrapModel(confinement)
    arguments = (layout, trap, patch1, patch2, samples, seed)
    weight, m, delta = geometry._sampled_moments(*arguments)
    direct_weight, direct_m, direct_delta = sampled_moments_direct_trig(*arguments)
    normal = max(np.abs(normals).max() for _, normals in block_draws(seed, samples))
    scale = (layout.wavenumber * layout.separation
             + geometry._trap_spread(layout, trap) * normal)
    assert (weight, delta) == (direct_weight, direct_delta)
    assert abs(m - direct_m) <= 1e-14 + 2**-48 * scale
