"""Generated-state averaging, rates, scans, and their cross-checks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from heraldsim import (
    CountRates,
    InvalidInputError,
    Polarizer,
    QuadratureSpec,
    ZeroProbabilityHeraldError,
    accidental_fraction,
    concurrence_analytic,
    count_rate,
    delta_c_scan,
    detection_probability,
    farfield_phase,
    g2,
    generated_state,
    heralded_state,
    load_scenario,
    monte_carlo_state,
    polarizer_to_jones,
    theta_center_for_delta21,
)
from heraldsim import herald
from heraldsim.optics import _component_vectors
from heraldsim.qcore import validate_density

from helpers import (
    matrix_route,
    point_detector_config,
    quadrature_moments,
    reference_config,
    reference_layout,
    reference_patch,
    wrap_phase,
)

FAST_QUAD = QuadratureSpec(points_theta=6, points_chi=6, points_trap=6)
BASELINE = "scenarios/baseline.json"


def _oracle_report(config, points_patch, points_trap, **rule):
    """Report assembled from the brute-force node sums of ``quadrature_moments``."""
    moments = quadrature_moments(config, points_patch, points_trap, **rule)
    return herald._report(config, *moments)


def _baseline_scan():
    scenario = load_scenario(BASELINE)
    config = scenario.experiment()
    quad = scenario.quadrature_spec()
    return config, quad, delta_c_scan(config, quad, scenario.scan.delta21_grid(),
                                      scenario.scan.v12_values)


def _scan_cell(config, delta21, v12):
    """Config of one scan cell: reference analyzer 1, detector 2 moved and turned."""
    detector1 = dataclasses.replace(config.detector1, polarizer=Polarizer.linear(0.0))
    theta2 = theta_center_for_delta21(
        config.layout, detector1, config.detector2.chi_center, delta21
    )
    detector2 = dataclasses.replace(
        config.detector2,
        theta_center=theta2,
        polarizer=Polarizer.linear(np.arccos(np.sqrt(v12))),
    )
    return dataclasses.replace(config, detector1=detector1, detector2=detector2)


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
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidInputError):
                accidental_fraction(reference_config(), true_rate=bad)


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

    def test_phase_moments_memory_is_bounded(self):
        # 64 x 64 nodes per patch make 4096**2 node pairs, 134 MB as one
        # real matrix; row blocks of at most 8 MB bound the peak instead
        config = reference_config()
        quad = QuadratureSpec(points_theta=64, points_chi=64)
        tracemalloc.start()
        try:
            generated_state(config, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        weight, coherence = herald._coherence(config, quad)
        oracle_weight, oracle_coherence = quadrature_moments(config, 64, 6)
        assert abs(weight - oracle_weight) <= 1e-12 * oracle_weight
        assert abs(coherence - oracle_coherence) <= 1e-12 * abs(oracle_coherence)

    def test_moments_are_invariant_under_a_common_rotation(self):
        # the pair axis is a gauge: turning the separation and every node
        # direction together keeps (W, M), while the oracle's trap grid
        # stays lab-aligned, so this also checks the trap isotropy
        config = _with_delta21(reference_config(confinement=30e-9), np.pi / 2)
        weight, coherence = herald._coherence(
            config, QuadratureSpec(points_theta=6, points_chi=6))
        q, r = np.linalg.qr(np.random.default_rng(29).standard_normal((3, 3)))
        rotation = q * np.sign(np.diag(r))
        assert np.allclose(rotation @ rotation.T, np.eye(3), atol=1e-14)
        oracle_weight, oracle_coherence = quadrature_moments(config, 6, 6, rotation=rotation)
        assert abs(weight - oracle_weight) <= 1e-12 * oracle_weight
        assert abs(coherence - oracle_coherence) <= 1e-12 * abs(oracle_coherence)

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

    @pytest.mark.parametrize("samples, seed", [
        (2.5, 1), (float("nan"), 1), (True, 1), (100, 1.5), (100, -1),
    ], ids=["fractional-samples", "nan-samples", "bool-samples", "fractional-seed",
            "negative-seed"])
    def test_monte_carlo_rejects_non_integer_arguments(self, samples, seed):
        with pytest.raises(InvalidInputError):
            monte_carlo_state(reference_config(), samples=samples, seed=seed)

    @pytest.mark.parametrize("patch", [
        {"theta_center": 0.002, "span_theta": 0.01},
        {"chi_center": 1.3, "span_chi": 1.0},
    ], ids=["theta-edge-below-zero", "chi-edge-past-the-pole"])
    def test_patch_edges_outside_the_sphere_raise(self, patch):
        # the extent is checked on the patch edges, not on the nodes: a
        # single node at the center lies inside, the edge does not
        config = reference_config(**patch)
        with pytest.raises(InvalidInputError, match="leaves the valid"):
            monte_carlo_state(config, samples=1000, seed=1)
        with pytest.raises(InvalidInputError, match="leaves the valid"):
            generated_state(config, QuadratureSpec(points_theta=1, points_chi=1))

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
        for delta in (60.0, np.nan):
            with pytest.raises(InvalidInputError, match="out of reach"):
                theta_center_for_delta21(layout, base, 0.0, delta)


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
        with pytest.raises(InvalidInputError, match="out of reach"):
            delta_c_scan(config, FAST_QUAD, [0.0, np.nan], [0.5])
        with pytest.raises(InvalidInputError, match=r"v12 grid must lie in \[0, 1\]"):
            delta_c_scan(config, FAST_QUAD, [0.0], [0.5, np.nan])

    def test_rows_match_generated_state_of_each_cell(self):
        # the scan averages each geometry once and swaps only the analyzer;
        # every row must equal the full pipeline run on that cell's config
        config = reference_config()
        result = delta_c_scan(config, FAST_QUAD, [-1.0, 0.0, 2.0], [0.0, 0.3, 1.0])
        for point in result.points:
            cell = _scan_cell(config, point.delta21, point.v12)
            report = generated_state(cell, FAST_QUAD)
            for name in ("delta_c", "fidelity", "concurrence_target",
                         "concurrence_generated"):
                assert abs(getattr(point, name) - getattr(report, name)) <= 1e-15

    def test_baseline_rows_match_the_wootters_route(self):
        # the scan builds no density matrix; rebuild each row's matrix and
        # check the closed-form figures against Wootters and the overlap
        config, quad, result = _baseline_scan()
        assert len(result.points) == 105
        for point in result.points:
            cell = _scan_cell(config, point.delta21, point.v12)
            jones1 = polarizer_to_jones(cell.detector1.polarizer)
            jones2 = polarizer_to_jones(cell.detector2.polarizer)
            target = heralded_state(jones1, jones2, herald._nominal_phase(
                cell.layout, cell.detector1, cell.detector2))
            c_target, c_generated, fidelity, _ = matrix_route(
                *herald._coherence(cell, quad), *_component_vectors(jones1, jones2),
                target.state)
            assert abs(point.concurrence_generated - c_generated) < 1e-12
            assert abs(point.concurrence_target - c_target) < 1e-12
            assert abs(point.fidelity - fidelity) < 1e-12

    def test_zero_probability_cell_raises(self):
        # equal analyzers at delta21 = pi: the herald never fires there
        config = reference_config()
        with pytest.raises(ZeroProbabilityHeraldError):
            delta_c_scan(config, FAST_QUAD, [0.0, np.pi], [0.5, 1.0])

    def test_cached_rules_are_read_only_and_survive_scans(self):
        nodes, weights = herald._reference_rule(8)
        assert not nodes.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        first = _baseline_scan()[2]
        second = _baseline_scan()[2]
        assert first == second
        fresh_nodes, fresh_weights = np.polynomial.legendre.leggauss(8)
        assert np.array_equal(nodes, fresh_nodes)
        assert np.array_equal(weights, fresh_weights)

    def test_scan_traffic(self, monkeypatch):
        # one (W, M) pass per delta21 geometry, and no node rule recomputed
        # once the cache holds it: per-row or per-geometry recomputation
        # would show here first
        counts = {"moments": 0, "leggauss": 0}

        def counting(name, func):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(herald, "_phase_moments",
                            counting("moments", herald._phase_moments))
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            counting("leggauss", np.polynomial.legendre.leggauss))
        _baseline_scan()
        assert counts["moments"] == 21
        counts.update(moments=0, leggauss=0)
        _baseline_scan()
        assert counts == {"moments": 21, "leggauss": 0}
