"""Generated-state averaging, rates, scans, and their cross-checks."""

import dataclasses

import numpy as np
import pytest

from heraldsim import (
    CountRates,
    ExperimentConfig,
    InvalidInputError,
    Polarizer,
    QuadratureSpec,
    TrapModel,
    ZeroProbabilityHeraldError,
    accidental_fraction,
    concurrence_analytic,
    count_rate,
    delta_c_scan,
    detection_probability,
    farfield_phase,
    g2,
    generated_state,
    monte_carlo_state,
    theta_center_for_delta21,
    wrap_phase,
)
from heraldsim import herald
from heraldsim.optics import _component_vectors
from heraldsim.qcore import validate_density

from helpers import (
    point_detector_config,
    quadrature_moments,
    reference_config,
    reference_layout,
    reference_patch,
)

FAST_QUAD = QuadratureSpec(points_theta=6, points_chi=6, points_trap=6)


def _oracle_report(config, points_patch, points_trap, **rule):
    """Report assembled from the brute-force node sums of ``quadrature_moments``."""
    jones1, jones2, target = herald._nominal_target(config)
    stat, phase_part = _component_vectors(jones1, jones2)
    moments = quadrature_moments(config, points_patch, points_trap, **rule)
    return herald._assemble_report(target, stat, phase_part, *moments)


def _with_delta21(config, delta):
    """Move detector 2 along the equator to realize a relative phase."""
    theta2 = theta_center_for_delta21(
        config.layout, config.detector1, config.detector2.chi_center, delta
    )
    detector2 = dataclasses.replace(config.detector2, theta_center=theta2)
    return dataclasses.replace(config, detector2=detector2)


class TestDetectionProbability:
    def test_reference_patch_value(self):
        patch = reference_patch(Polarizer.linear(0.0))
        assert detection_probability(patch) == pytest.approx(0.005 / 24.0, rel=1e-15)

    def test_point_patch_has_zero_probability(self):
        patch = reference_patch(Polarizer.linear(0.0), span_theta=0.0, span_chi=0.0)
        assert detection_probability(patch) == 0.0

    def test_full_sphere_recovers_unity(self):
        patch = reference_patch(
            Polarizer.linear(0.0), span_theta=2.0, span_chi=2.0 * np.pi
        )
        with pytest.warns(UserWarning):
            value = detection_probability(patch)
        assert value == pytest.approx(1.0, rel=1e-15)

    def test_warns_when_patch_is_large(self):
        patch = reference_patch(Polarizer.linear(0.0), span_theta=0.1)
        with pytest.warns(UserWarning):
            detection_probability(patch)


class TestCountRates:
    def test_reference_rate_value(self):
        config = reference_config()
        rates = count_rate(config, v12=1.0, delta21=0.0)
        prob = 0.005 / 24.0
        assert rates.raw == pytest.approx(2.0 * 5e6 * prob * prob * 4.0, rel=1e-12)
        assert rates.raw == pytest.approx(1.7361111111111112, rel=1e-12)
        assert rates.corrected == pytest.approx(rates.raw * 0.09, rel=1e-15)

    def test_scales_with_repetition_rate_and_patch_area(self):
        slow = reference_config(repetition_rate=1e6)
        fast = reference_config(repetition_rate=2e6)
        assert count_rate(fast, 0.5, 0.0).raw == pytest.approx(
            2.0 * count_rate(slow, 0.5, 0.0).raw, rel=1e-12
        )
        wide = reference_config(span_theta=10e-3)
        assert count_rate(wide, 0.5, 0.0).raw == pytest.approx(
            4.0 * count_rate(reference_config(), 0.5, 0.0).raw, rel=1e-12
        )

    def test_destructive_phase_kills_the_rate(self):
        config = reference_config()
        assert count_rate(config, 1.0, np.pi).raw == pytest.approx(0.0, abs=1e-15)

    def test_returns_count_rates_tuple(self):
        rates = count_rate(reference_config(), 0.0, 0.0)
        assert isinstance(rates, CountRates)


class TestAccidentalFraction:
    def test_zero_dark_counts(self):
        config = reference_config(dark_count_rate=0.0)
        assert accidental_fraction(config, true_rate=1.0) == 0.0

    def test_only_dark_counts(self):
        config = reference_config()
        assert accidental_fraction(config, true_rate=0.0) == 1.0

    def test_everything_zero(self):
        config = reference_config(dark_count_rate=0.0)
        assert accidental_fraction(config, true_rate=0.0) == 0.0

    def test_reference_value_is_small(self):
        # 100 Hz dark rate, 10 ns window, 1/s coincidences
        config = reference_config()
        singles = 2.0 * (2.0 * 5e6 * 0.3 * 0.005 / 24.0)
        expected_acc = 100.0 * singles * 10e-9 + 100.0**2 * 10e-9
        expected = expected_acc / (expected_acc + 1.0)
        fraction = accidental_fraction(config, true_rate=1.0)
        assert fraction == pytest.approx(expected, rel=1e-12)
        assert fraction < 0.01

    def test_monotone_in_dark_rate(self):
        values = [
            accidental_fraction(reference_config(dark_count_rate=d), true_rate=1.0)
            for d in (0.0, 10.0, 100.0, 1000.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_negative_true_rate(self):
        with pytest.raises(InvalidInputError):
            accidental_fraction(reference_config(), true_rate=-1.0)


class TestConfigValidation:
    def test_rejects_bad_efficiency(self):
        with pytest.raises(InvalidInputError):
            reference_config(detector_efficiency=1.5)
        with pytest.raises(InvalidInputError):
            reference_config(detector_efficiency=-0.1)

    def test_rejects_bad_rates(self):
        with pytest.raises(InvalidInputError):
            reference_config(repetition_rate=0.0)
        with pytest.raises(InvalidInputError):
            reference_config(dark_count_rate=-1.0)
        with pytest.raises(InvalidInputError):
            reference_config(coincidence_window=-1e-9)
        for bad in (np.nan, np.inf):
            for name in ("repetition_rate", "dark_count_rate", "coincidence_window"):
                with pytest.raises(InvalidInputError):
                    reference_config(**{name: bad})

    def test_quadrature_spec_validation(self):
        with pytest.raises(InvalidInputError):
            QuadratureSpec(points_theta=0)
        with pytest.raises(InvalidInputError):
            QuadratureSpec(points_trap=0)

    def test_doubled_spec(self):
        # the trap average takes no nodes, so points_trap stays as given
        doubled = QuadratureSpec(points_theta=3, points_chi=4, points_trap=5).doubled()
        assert (doubled.points_theta, doubled.points_chi, doubled.points_trap) == (6, 8, 5)


class TestGeneratedStatePointLimit:
    def test_point_detectors_reproduce_the_target(self):
        config = point_detector_config(Polarizer.circular(+1), Polarizer.circular(-1))
        report = generated_state(config)
        assert report.delta_c <= 1e-12
        assert report.fidelity >= 1.0 - 1e-12
        target_rho = np.outer(report.target_state, report.target_state.conj())
        assert np.allclose(report.rho_generated, target_rho, atol=1e-12)

    def test_point_detectors_match_analytic_concurrence(self):
        layout = reference_layout()
        base = reference_patch(Polarizer.linear(0.0), span_theta=0.0, span_chi=0.0)
        for delta in (-2.0, -0.5, 1.0, 2.5):
            theta2 = theta_center_for_delta21(layout, base, 0.0, delta)
            for angle in (0.2, 0.9, 1.3):
                config = point_detector_config(
                    Polarizer.linear(0.0), Polarizer.linear(angle), theta2=theta2
                )
                report = generated_state(config)
                v12 = np.cos(angle) ** 2
                assert report.v12 == pytest.approx(v12, abs=1e-12)
                assert wrap_phase(report.delta21_nominal - delta) == pytest.approx(
                    0.0, abs=1e-9
                )
                assert report.concurrence_generated == pytest.approx(
                    concurrence_analytic(report.delta21_nominal, report.v12), abs=1e-10
                )
                assert report.heralding_weight == pytest.approx(
                    g2(report.delta21_nominal, report.v12), abs=1e-12
                )

    def test_tiny_patch_is_not_a_vanishing_herald(self):
        # the weight of a 1 urad x 0.1 urad patch is 1e-13 sr; the herald
        # still fires, and the state is the point-design one
        point = point_detector_config(Polarizer.linear(0.0), Polarizer.linear(0.3))
        tiny = dataclasses.replace(
            point,
            detector2=dataclasses.replace(point.detector2, span_theta=1e-6, span_chi=1e-7),
        )
        report = generated_state(tiny)
        assert report.heralding_weight < 1e-12
        assert report.concurrence_generated == pytest.approx(
            generated_state(point).concurrence_generated, abs=1e-10
        )

    def test_nominal_zero_probability_raises(self):
        config = point_detector_config(Polarizer.linear(0.0), Polarizer.linear(0.0))
        singular = _with_delta21(config, np.pi)
        with pytest.raises(ZeroProbabilityHeraldError):
            generated_state(singular)


class TestGeneratedStateFinitePatches:
    def test_reference_configuration_figures(self):
        report = generated_state(reference_config())
        assert report.delta_c < 0.01
        assert report.fidelity > 0.99
        assert report.concurrence_target == pytest.approx(1.0 / 3.0, abs=1e-9)
        validate_density(report.rho_generated)

    def test_heralding_weight_matches_brute_force_average(self):
        # independent oracle: dense midpoint tensor over both patches
        # with the analytic coincidence weight, no moment factorization
        config = reference_config(confinement=0.0)
        report = generated_state(config)

        def patch_phase_grid(patch, count=60):
            thetas = patch.theta_center + patch.span_theta * (
                (np.arange(count) + 0.5) / count - 0.5
            )
            chis = patch.chi_center + patch.span_chi * (
                (np.arange(count) + 0.5) / count - 0.5
            )
            cell = (patch.span_theta / count) * (patch.span_chi / count)
            grid_t, grid_c = np.meshgrid(thetas, chis, indexing="ij")
            phases = np.array(
                [
                    farfield_phase(config.layout, t, c)
                    for t, c in zip(grid_t.ravel(), grid_c.ravel())
                ]
            )
            weights = cell * np.cos(grid_c.ravel())
            return phases, weights

        phases1, weights1 = patch_phase_grid(config.detector1)
        phases2, weights2 = patch_phase_grid(config.detector2)
        v12 = report.v12
        cos_matrix = np.cos(phases2[None, :] - phases1[:, None])
        oracle = 2.0 * (
            weights1.sum() * weights2.sum()
            + v12 * float(weights1 @ cos_matrix @ weights2)
        )
        assert report.heralding_weight == pytest.approx(oracle, rel=1e-4)

    def test_quadrature_convergence_under_doubling(self):
        config = reference_config()
        base = generated_state(config, FAST_QUAD)
        fine = generated_state(config, FAST_QUAD.doubled())
        assert abs(base.delta_c - fine.delta_c) < 1e-3
        assert abs(base.fidelity - fine.fidelity) < 1e-3

    def test_difference_mode_matches_explicit_six_dim_trap(self):
        # the closed-form trap average against Gauss-Hermite node sums
        # over the displacement difference and over both emitters; six
        # nodes per axis already resolve the trap to rounding error
        config = reference_config(confinement=15e-9)
        closed = generated_state(config, QuadratureSpec(points_theta=6, points_chi=6))
        for trap_dims in (3, 6):
            oracle = _oracle_report(config, 6, 6, trap_dims=trap_dims)
            assert abs(closed.delta_c - oracle.delta_c) < 1e-10
            assert abs(closed.fidelity - oracle.fidelity) < 1e-10
            assert closed.heralding_weight == pytest.approx(
                oracle.heralding_weight, rel=1e-10
            )

    def test_midpoint_scheme_agrees_with_gauss(self):
        # Gauss-Legendre patches with the exact trap average against the
        # midpoint rule on both patches and the truncated trap Gaussian
        config = reference_config()
        gauss = generated_state(config)
        midpoint = _oracle_report(config, 16, 16, midpoint=True)
        assert abs(gauss.delta_c - midpoint.delta_c) < 1e-4
        assert abs(gauss.fidelity - midpoint.fidelity) < 1e-4

    def test_monte_carlo_cross_check(self):
        config = reference_config()
        exact = generated_state(config)
        sampled = monte_carlo_state(config, samples=150_000, seed=7)
        assert abs(exact.delta_c - sampled.delta_c) < 5e-4
        assert abs(exact.fidelity - sampled.fidelity) < 5e-4

    def test_monte_carlo_rejects_bad_sample_count(self):
        with pytest.raises(InvalidInputError):
            monte_carlo_state(reference_config(), samples=0, seed=1)

    def test_error_grows_with_confinement(self):
        # at quarter-period phase the coherence decay is first order,
        # so wider traps must monotonically degrade the state
        reports = []
        for mu in (0.0, 5e-9, 10e-9, 20e-9, 50e-9):
            config = _with_delta21(
                reference_config(confinement=mu, angle2=np.pi / 2), np.pi / 2
            )
            reports.append(generated_state(config, FAST_QUAD))
        deltas = [r.delta_c for r in reports]
        fidelities = [r.fidelity for r in reports]
        assert all(a < b for a, b in zip(deltas, deltas[1:]))
        assert all(a > b for a, b in zip(fidelities, fidelities[1:]))

    def test_infidelity_shrinks_quadratically_with_patch_size(self):
        infidelities = []
        for span in (4e-3, 2e-3, 1e-3):
            config = reference_config(
                confinement=0.0, span_theta=span, span_chi=span
            )
            infidelities.append(1.0 - generated_state(config).fidelity)
        assert infidelities[0] > infidelities[1] > infidelities[2] > 0.0
        for coarse, fine in zip(infidelities, infidelities[1:]):
            assert coarse / fine == pytest.approx(4.0, abs=0.5)


class TestThetaForPhase:
    def test_roundtrip_on_the_equator(self):
        layout = reference_layout()
        base = reference_patch(Polarizer.linear(0.0))
        for delta in np.linspace(-np.pi, np.pi, 9):
            theta2 = theta_center_for_delta21(layout, base, 0.0, delta)
            realized = farfield_phase(layout, theta2, 0.0) - farfield_phase(
                layout, base.theta_center, 0.0
            )
            assert wrap_phase(realized - delta) == pytest.approx(0.0, abs=1e-9)

    def test_out_of_reach_phase_raises(self):
        layout = reference_layout()
        base = reference_patch(Polarizer.linear(0.0))
        with pytest.raises(InvalidInputError):
            theta_center_for_delta21(layout, base, 0.0, 60.0)


class TestScan:
    def test_grid_order_and_extrema(self):
        config = reference_config(confinement=0.0)
        deltas = [0.0, np.pi / 2]
        visibilities = [0.0, 0.5, 1.0]
        result = delta_c_scan(config, FAST_QUAD, deltas, visibilities)
        assert len(result.points) == 6
        expected_cells = [(d, v) for d in deltas for v in visibilities]
        assert [(p.delta21, p.v12) for p in result.points] == expected_cells
        assert result.max_delta_c == pytest.approx(
            max(p.delta_c for p in result.points), rel=1e-15
        )
        assert result.min_fidelity == pytest.approx(
            min(p.fidelity for p in result.points), rel=1e-15
        )

    def test_targets_follow_analytic_concurrence(self):
        config = reference_config(confinement=0.0)
        result = delta_c_scan(config, FAST_QUAD, [0.0, 1.0], [0.25, 0.75])
        for point in result.points:
            assert point.concurrence_target == pytest.approx(
                concurrence_analytic(point.delta21, point.v12), abs=1e-9
            )

    def test_rejects_bad_grids(self):
        config = reference_config()
        with pytest.raises(InvalidInputError):
            delta_c_scan(config, FAST_QUAD, [], [0.5])
        with pytest.raises(InvalidInputError):
            delta_c_scan(config, FAST_QUAD, [0.0], [1.5])
