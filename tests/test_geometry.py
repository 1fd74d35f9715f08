"""Emitter layout, detector patches, trap model, directions and far-field phase."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heraldsim import (
    AtomPairLayout,
    DetectorPatch,
    InvalidInputError,
    Polarizer,
    QuadratureSpec,
    TrapModel,
    detection_direction,
    detection_probability,
    farfield_phase,
    theta_center_for_delta21,
)
from heraldsim.geometry import _patch_nodes

from helpers import reference_layout, reference_patch

#: values no patch field takes, whatever the bounds
NOT_AN_ANGLE = st.sampled_from([math.nan, math.inf, -math.inf, True, None, "1"])


class TestLayout:
    def test_wavenumber(self):
        layout = reference_layout()
        assert layout.wavenumber == pytest.approx(2.0 * np.pi / 650e-9, rel=1e-15)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidInputError):
            AtomPairLayout(separation=0.0, wavelength=650e-9)
        with pytest.raises(InvalidInputError):
            AtomPairLayout(separation=5e-6, wavelength=-1.0)
        for bad in (True, "5e-6", None):
            for name in ("separation", "wavelength"):
                arguments = {"separation": 5e-6, "wavelength": 650e-9, name: bad}
                with pytest.raises(InvalidInputError, match=f"{name} must be a finite real"):
                    AtomPairLayout(**arguments)


class TestPatchAndAccessories:
    def test_patch_rejects_poles_and_negative_spans(self):
        pol = Polarizer.linear(0.0)
        with pytest.raises(InvalidInputError):
            DetectorPatch(theta_center=0.0, span_theta=0.1, span_chi=0.1, polarizer=pol)
        with pytest.raises(InvalidInputError):
            DetectorPatch(theta_center=np.pi, span_theta=0.1, span_chi=0.1, polarizer=pol)
        with pytest.raises(InvalidInputError):
            DetectorPatch(theta_center=1.0, span_theta=-0.1, span_chi=0.1, polarizer=pol)
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidInputError):
                DetectorPatch(theta_center=1.0, span_theta=bad, span_chi=0.1, polarizer=pol)
            with pytest.raises(InvalidInputError):
                DetectorPatch(theta_center=1.0, span_theta=0.1, span_chi=bad, polarizer=pol)
        with pytest.raises(InvalidInputError):
            DetectorPatch(
                theta_center=1.0, span_theta=0.1, span_chi=0.1,
                chi_center=np.pi / 2, polarizer=pol,
            )
        for bad in (True, "1", None):
            for name in ("theta_center", "span_theta", "span_chi", "chi_center"):
                arguments = {"theta_center": 1.0, "span_theta": 0.1, "span_chi": 0.1, name: bad}
                with pytest.raises(InvalidInputError, match=f"{name} must be a finite real"):
                    DetectorPatch(polarizer=pol, **arguments)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(theta_center=st.floats(-1.0, np.pi + 1.0) | NOT_AN_ANGLE,
           chi_center=st.floats(-2.0, 2.0) | NOT_AN_ANGLE,
           # the weights are scaled by a power of two, so no positive span,
           # subnormal included, underflows them
           span_theta=st.just(0.0) | st.floats(5e-324, 7.0) | st.floats(-7.0, -1e-6)
           | NOT_AN_ANGLE,
           span_chi=st.just(0.0) | st.floats(5e-324, 4.0) | st.floats(-4.0, -1e-6)
           | NOT_AN_ANGLE)
    # edges 0.0084 past pi and 0.03 past pi/2: outer nodes past them too
    @example(theta_center=3.0, chi_center=0.0, span_theta=0.3, span_chi=0.0)
    @example(theta_center=1.0, chi_center=1.5, span_theta=0.0, span_chi=0.2)
    def test_a_patch_that_builds_fits_on_the_sphere(self, theta_center, chi_center,
                                                     span_theta, span_chi):
        try:
            patch = DetectorPatch(theta_center=theta_center, chi_center=chi_center,
                                  span_theta=span_theta, span_chi=span_chi,
                                  polarizer=Polarizer.linear(0.0))
        except InvalidInputError:
            return
        dirs, weights, _ = _patch_nodes(patch, QuadratureSpec(),
                                        np.array([patch.theta_center]))
        # e = (cos theta cos chi, sin theta cos chi, sin chi) and the weights
        # carry cos chi: |chi| < pi/2 makes them positive, and then theta in
        # [0, pi] makes sin theta cos chi nonnegative
        assert (weights > 0.0).all()
        assert (dirs[..., 1] >= 0.0).all()
        assert detection_probability(patch) < 1.0

    def test_point_patch_is_allowed(self):
        patch = DetectorPatch(
            theta_center=1.0, span_theta=0.0, span_chi=0.0,
            polarizer=Polarizer.linear(0.0),
        )
        assert patch.span_theta == 0.0

    def test_trap_rejects_negative_confinement(self):
        with pytest.raises(InvalidInputError):
            TrapModel(confinement=-1e-9)
        for bad in (True, "1e-9", None, np.nan, np.inf):
            with pytest.raises(InvalidInputError, match="confinement must be a finite real"):
                TrapModel(confinement=bad)


class TestLatitudeSolve:
    def test_latitude_past_the_reference_chi_span_solves(self):
        # |1.4| + (pi/6) / 2 > pi/2: the reference's chi span does not fit at
        # that latitude, but only the latitude enters the solve
        layout, patch = reference_layout(), reference_patch(Polarizer.linear(0.0))
        assert theta_center_for_delta21(layout, patch, 1.4, 0.0) == 1.5707963267948963
        assert theta_center_for_delta21(layout, patch, 1.4, 1.0) == 1.448763417078838


class TestDirections:
    def test_unit_norm_and_axis_projection(self):
        # lab components with the pair on x: the x component is the projection
        rng = np.random.default_rng(41)
        for _ in range(200):
            theta = rng.uniform(0.01, np.pi - 0.01)
            chi = rng.uniform(-1.4, 1.4)
            direction = detection_direction(theta, chi)
            assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-12)
            assert np.array_equal(direction, [
                np.cos(theta) * np.cos(chi), np.sin(theta) * np.cos(chi), np.sin(chi)])

    def test_broadcasts_over_grids(self):
        thetas = np.linspace(0.1, 3.0, 5)
        dirs = detection_direction(thetas, 0.0)
        assert dirs.shape == (5, 3)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("theta, chi", [
        (np.nan, 0.0), (np.inf, 0.0), (0.5, -np.inf), ([0.1, np.nan], 0.0),
        (0.5, [0.0, np.inf]), (True, 0.0), ("1.0", 0.0), (0.5, [False, True]),
        (["0.1"], 0.0), (None, 0.0), (0.5, 1j),
    ])
    def test_non_finite_angles_raise(self, theta, chi):
        with pytest.raises(InvalidInputError, match="must be finite"):
            detection_direction(theta, chi)


class TestFarfieldPhase:
    def test_on_axis_value(self):
        layout = reference_layout()
        expected = 2.0 * np.pi * 5e-6 / 650e-9
        assert farfield_phase(layout, 0.0, 0.0) == pytest.approx(expected, rel=1e-12)
        # k d for a 5 um pair at 650 nm is about 48.33 rad
        assert farfield_phase(layout, 0.0, 0.0) == pytest.approx(48.332, abs=5e-3)

    def test_equator_is_zero(self):
        layout = reference_layout()
        for chi in np.linspace(-1.0, 1.0, 11):
            assert abs(farfield_phase(layout, np.pi / 2, chi)) < 1e-12

    def test_sixty_degree_value(self):
        layout = reference_layout()
        kd = layout.wavenumber * layout.separation
        assert farfield_phase(layout, np.pi / 3, 0.0) == pytest.approx(
            kd / 2.0, rel=1e-12
        )

    def test_even_in_chi_and_decreasing_in_theta(self):
        layout = reference_layout()
        for chi in (0.1, 0.5, 1.0):
            assert farfield_phase(layout, 1.0, chi) == pytest.approx(
                farfield_phase(layout, 1.0, -chi), rel=1e-15
            )
        thetas = np.linspace(0.1, np.pi - 0.1, 40)
        values = [farfield_phase(layout, t, 0.0) for t in thetas]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("theta, chi", [
        (np.nan, 0.0), (-np.inf, 0.0), (0.5, np.nan), (np.array([0.1, np.inf]), 0.0),
        ("1.0", 0.0), (True, 0.0), (0.5, "0"), (np.array([True]), 0.0), (None, 0.0),
    ])
    def test_non_finite_angles_raise(self, theta, chi):
        with pytest.raises(InvalidInputError, match="must be finite"):
            farfield_phase(reference_layout(), theta, chi)

    def test_equator_sensitivity_matches_wavenumber(self):
        # near theta = pi/2 the phase slope is -k d per rad of theta
        layout = reference_layout()
        kd = layout.wavenumber * layout.separation
        h = 1e-6
        slope = (
            farfield_phase(layout, np.pi / 2 + h, 0.0)
            - farfield_phase(layout, np.pi / 2 - h, 0.0)
        ) / (2.0 * h)
        assert slope == pytest.approx(-kd, rel=1e-9)
        slope_chi = (
            farfield_phase(layout, np.pi / 2, h) - farfield_phase(layout, np.pi / 2, -h)
        ) / (2.0 * h)
        assert abs(slope_chi) < 1e-6 * kd
