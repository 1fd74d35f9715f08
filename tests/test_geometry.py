"""Emitter layout, detector patches, trap model, directions and far-field phase."""

import numpy as np
import pytest

from heraldsim import (
    AtomPairLayout,
    DetectorPatch,
    InvalidInputError,
    Polarizer,
    TrapModel,
    detection_direction,
    farfield_phase,
)

from helpers import reference_layout


class TestLayout:
    def test_wavenumber(self):
        layout = reference_layout()
        assert layout.wavenumber == pytest.approx(2.0 * np.pi / 650e-9, rel=1e-15)

    def test_axis_is_normalized(self):
        layout = AtomPairLayout(separation=1e-6, wavelength=1e-6, axis=(0.0, 0.0, 2.0))
        assert np.allclose(layout.axis, [0.0, 0.0, 1.0], atol=1e-15)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidInputError):
            AtomPairLayout(separation=0.0, wavelength=650e-9)
        with pytest.raises(InvalidInputError):
            AtomPairLayout(separation=5e-6, wavelength=-1.0)
        with pytest.raises(InvalidInputError):
            AtomPairLayout(separation=5e-6, wavelength=650e-9, axis=(0.0, 0.0, 0.0))


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

    def test_point_patch_is_allowed(self):
        patch = DetectorPatch(
            theta_center=1.0, span_theta=0.0, span_chi=0.0,
            polarizer=Polarizer.linear(0.0),
        )
        assert patch.span_theta == 0.0

    def test_trap_rejects_negative_confinement(self):
        with pytest.raises(InvalidInputError):
            TrapModel(confinement=-1e-9)


class TestDirections:
    def test_unit_norm_and_axis_projection(self):
        rng = np.random.default_rng(41)
        axis = np.array([1.0, 0.0, 0.0])
        for _ in range(200):
            theta = rng.uniform(0.01, np.pi - 0.01)
            chi = rng.uniform(-1.4, 1.4)
            direction = detection_direction(axis, theta, chi)
            assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-12)
            assert direction @ axis == pytest.approx(
                np.cos(theta) * np.cos(chi), abs=1e-12
            )

    def test_broadcasts_over_grids(self):
        axis = np.array([0.0, 1.0, 0.0])
        thetas = np.linspace(0.1, 3.0, 5)
        dirs = detection_direction(axis, thetas, 0.0)
        assert dirs.shape == (5, 3)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("theta, chi", [
        (np.nan, 0.0), (np.inf, 0.0), (0.5, -np.inf), ([0.1, np.nan], 0.0),
        (0.5, [0.0, np.inf]),
    ])
    def test_non_finite_angles_raise(self, theta, chi):
        with pytest.raises(InvalidInputError, match="must be finite"):
            detection_direction((1.0, 0.0, 0.0), theta, chi)

    def test_tilted_axis_consistency(self):
        # the polar angle is measured from the pair axis whatever it is
        axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        direction = detection_direction(axis, 0.3, 0.2)
        assert direction @ axis == pytest.approx(np.cos(0.3) * np.cos(0.2), abs=1e-12)


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
