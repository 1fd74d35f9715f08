"""Generated-state averaging, rates, scans, and their cross-checks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from heraldsim import (
    CountRates,
    InvalidInputError,
    NumericalFailureError,
    Polarizer,
    QuadratureSpec,
    ZeroProbabilityHeraldError,
    accidental_fraction,
    concurrence_analytic,
    concurrence_mixed,
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
from heraldsim import geometry, herald, optics
from heraldsim.cli import main
from heraldsim.optics import _component_vectors
from heraldsim.qcore import validate_density

from helpers import (
    grid_nodes,
    matrix_route,
    nominal_phase,
    patch_moments,
    point_detector_config,
    quadrature_moments,
    reference_config,
    reference_layout,
    reference_patch,
    wrap_phase,
)

FAST_QUAD = QuadratureSpec(points_theta=6, points_chi=6, points_trap=6)
BASELINE = "scenarios/baseline.json"
SCENARIOS = (BASELINE, "scenarios/point_detectors.json")


def _oracle_report(config, points_patch, points_trap, **rule):
    """Report assembled from the brute-force node sums of ``quadrature_moments``."""
    moments = quadrature_moments(config, points_patch, points_trap, **rule)
    return herald._report(config, *moments, nominal_phase(config))


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
        for bad in (-1.0, np.nan, np.inf, True, "1", None):
            with pytest.raises(InvalidInputError):
                accidental_fraction(reference_config(), true_rate=bad)


class TestConfigValidation:
    def test_rejects_bad_efficiency(self):
        with pytest.raises(InvalidInputError):
            reference_config(detector_efficiency=1.5)
        with pytest.raises(InvalidInputError):
            reference_config(detector_efficiency=-0.1)
        for bad in (True, "0.3", None, 1j):
            with pytest.raises(InvalidInputError, match="detector_efficiency must be a finite"):
                reference_config(detector_efficiency=bad)

    def test_rejects_bad_rates(self):
        with pytest.raises(InvalidInputError):
            reference_config(repetition_rate=0.0)
        with pytest.raises(InvalidInputError):
            reference_config(dark_count_rate=-1.0)
        with pytest.raises(InvalidInputError):
            reference_config(coincidence_window=-1e-9)
        for bad in (np.nan, np.inf, True, "5", None, 1j):
            for name in ("repetition_rate", "dark_count_rate", "coincidence_window"):
                with pytest.raises(InvalidInputError, match=f"{name} must be"):
                    reference_config(**{name: bad})

    def test_quadrature_spec_validation(self):
        with pytest.raises(InvalidInputError):
            QuadratureSpec(points_theta=0)
        with pytest.raises(InvalidInputError):
            QuadratureSpec(points_trap=0)
        # numpy integers are counts too, and are kept as Python ints
        spec = QuadratureSpec(points_theta=np.int64(8), points_chi=np.int32(4))
        assert spec == QuadratureSpec(points_theta=8, points_chi=4)
        assert type(spec.points_theta) is int and type(spec.doubled().points_chi) is int
        for bad in (8.0, np.float64(8.0), "8", np.int64(0), np.bool_(True)):
            with pytest.raises(InvalidInputError, match="points_chi must be an integer"):
                QuadratureSpec(points_chi=bad)

    @pytest.mark.parametrize("name", ["points_theta", "points_chi", "points_trap"])
    def test_quadrature_spec_rejects_bools(self, name):
        for flag in (True, False):
            with pytest.raises(InvalidInputError):
                QuadratureSpec(**{name: flag})

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

    def test_target_below_the_weight_floor_raises_like_the_analytic_form(self):
        # at V = 1 and 1 + cos(delta21) = 7.2e-13 the herald weight, twice
        # that, clears the 1e-12 floor, but every route compares half of it
        delta21 = np.pi - 1.2e-6
        with pytest.raises(ZeroProbabilityHeraldError):
            concurrence_analytic(delta21, 1.0)
        with pytest.raises(ZeroProbabilityHeraldError):
            herald._figures(1.0, np.exp(-1j * delta21), 1.0, delta21)
        plus = polarizer_to_jones(Polarizer.linear(0.0))
        with pytest.raises(ZeroProbabilityHeraldError):
            heralded_state(plus, plus, delta21)

    @pytest.mark.parametrize("v12", [0.0, 0.3, 0.7, 1.0])
    def test_point_coherence_gives_the_target(self, v12):
        # m = exp(-1j delta21) is the point design: the closed form must give
        # F = 1, C_gen = C_target and trace 2 (1 + V cos delta21) = 2 w0
        delta21 = np.linspace(-np.pi, np.pi, 181)
        w0 = 1.0 + v12 * np.cos(delta21)
        delta21 = delta21[w0 >= 0.05]
        w0 = w0[w0 >= 0.05]
        c_target, c_generated, fidelity, trace = herald._figures(
            1.0, np.exp(-1j * delta21), v12, delta21)
        assert np.max(np.abs(fidelity - 1.0)) <= 1e-12
        assert np.max(np.abs(c_generated - c_target)) <= 1e-12
        assert np.max(np.abs(trace - 2.0 * w0)) <= 1e-12


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
        weight, coherence, _ = patch_moments(config, quad)
        oracle_weight, oracle_coherence = quadrature_moments(config, 64, 6)
        assert abs(weight - oracle_weight) <= 1e-12 * oracle_weight
        assert abs(coherence - oracle_coherence) <= 1e-12 * abs(oracle_coherence)

    def test_wide_scan_memory_is_bounded(self):
        # 16 x 16 nodes per patch make a 512 KB pair matrix per geometry, so
        # 201 delta21 geometries would hold 103 MB at once; groups of 16
        # geometries keep the pair block within 8 MB
        config = reference_config()
        quad = QuadratureSpec(points_theta=16, points_chi=16)
        grid = np.linspace(-np.pi, np.pi, 201)
        tracemalloc.start()
        try:
            result = delta_c_scan(config, quad, grid, [0.0, 0.5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        # rows from different groups match a scan whose geometries share one
        sparse = delta_c_scan(config, quad, grid[::50], [0.0, 0.5])
        assert sparse.points[::2] == result.points[::100]
        assert sparse.points[1::2] == result.points[1::100]

    def test_moments_are_invariant_under_a_common_rotation(self):
        # the pair axis is a gauge: turning the separation and every node
        # direction together keeps (W, M), while the oracle's trap grid
        # stays lab-aligned, so this also checks the trap isotropy
        config = _with_delta21(reference_config(confinement=30e-9), np.pi / 2)
        weight, coherence, _ = patch_moments(
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
        {"theta_center": np.pi - 0.002, "span_theta": 0.01},
        {"chi_center": 1.3, "span_chi": 1.0},
        {"chi_center": -1.3, "span_chi": 1.0},
    ], ids=["theta-edge-below-zero", "theta-edge-past-pi", "chi-edge-past-the-pole",
            "chi-edge-past-the-south-pole"])
    def test_patch_edges_outside_the_sphere_raise(self, patch):
        # the extent is checked on the patch edges, not on the nodes: a
        # single node at the center lies inside, the edge does not
        config = reference_config(**patch)
        one_node = QuadratureSpec(points_theta=1, points_chi=1)
        with pytest.raises(InvalidInputError, match="leaves the valid"):
            monte_carlo_state(config, samples=1000, seed=1)
        with pytest.raises(InvalidInputError, match="leaves the valid"):
            generated_state(config, one_node)
        with pytest.raises(InvalidInputError, match="leaves the valid"):
            geometry._patch_nodes(config.detector2, one_node,
                                  np.array([config.detector2.theta_center]))

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


def _scenario_report(path):
    """(config, W, M, report) of a scenario at its own quadrature."""
    scenario = load_scenario(path)
    config = scenario.experiment()
    total_weight, coherence, delta21 = patch_moments(config, scenario.quadrature_spec())
    return (config, total_weight, coherence,
            herald._report(config, total_weight, coherence, delta21))


def _drift_concurrence(c_target, c_generated, fidelity, trace):
    return c_target, c_generated + 1e-8, fidelity, trace


class TestReportHealthCheck:
    """The report checks its closed form on the rank-2 factor of rho; the
    4x4 route (``concurrence_mixed``, ``eigvalsh``) stays here as the oracle."""

    @pytest.mark.parametrize("path", SCENARIOS)
    def test_report_matches_the_wootters_route(self, path):
        report = _scenario_report(path)[3]
        # concurrence_mixed runs validate_density on rho first
        assert abs(concurrence_mixed(report.rho_generated)
                   - report.concurrence_generated) < 1e-9

    @pytest.mark.parametrize("path", SCENARIOS)
    def test_spectrum_is_that_of_the_two_by_two_mixing_matrix(self, path):
        # rho = X B X^dag / tr with X = [s t]: its nonzero eigenvalues are
        # those of B G / tr, G = X^dag X the Gram matrix, and two are 0
        config, total_weight, coherence, report = _scenario_report(path)
        basis = np.array(_component_vectors(
            polarizer_to_jones(config.detector1.polarizer),
            polarizer_to_jones(config.detector2.polarizer))).T
        mixing = np.array([[total_weight, np.conj(coherence)], [coherence, total_weight]])
        closed = np.sort(np.linalg.eigvals(
            mixing @ (basis.conj().T @ basis) / report.heralding_weight).real)
        spectrum = np.linalg.eigvalsh(report.rho_generated)
        assert np.max(np.abs(spectrum[2:] - closed)) <= 1e-12
        assert np.max(np.abs(spectrum[:2])) <= 1e-12

    @pytest.mark.parametrize("corrupt, message", [
        (_drift_concurrence, "misses the closed form"),
        (lambda c_target, c_generated, fidelity, trace:
            (c_target, c_generated, fidelity, trace * (1.0 + 1e-9)), "rho with trace"),
        (lambda c_target, c_generated, fidelity, trace:
            (c_target, c_generated, fidelity, np.nan), "rho with trace"),
    ], ids=["concurrence-off-by-1e-8", "trace-off-by-1e-9", "trace-nan"])
    def test_a_corrupted_closed_form_raises(self, monkeypatch, corrupt, message):
        figures = herald._figures
        monkeypatch.setattr(herald, "_figures", lambda *args: corrupt(*figures(*args)))
        config = reference_config()
        # dividing rho by a nan trace also sets numpy's invalid flag, which
        # the suite turns into an error before the check could raise
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalFailureError, match=message):
                generated_state(config, FAST_QUAD)
            with pytest.raises(NumericalFailureError, match=message):
                monte_carlo_state(config, samples=1000, seed=1)

    @pytest.mark.parametrize("scale", [1.0 + 9e-10, 1.0 - 9e-10])
    def test_analyzers_accepted_off_norm_give_the_unit_report(self, scale):
        # Polarizer accepts a norm within JONES_NORM_ATOL of 1 and stores the
        # unit vector, so the report cannot see the offset
        scenario = load_scenario(BASELINE)
        config, quad = scenario.experiment(), scenario.quadrature_spec()
        scaled = dataclasses.replace(config, **{
            name: dataclasses.replace(detector, polarizer=Polarizer(
                tuple(scale * c for c in detector.polarizer.jones)))
            for name, detector in (("detector1", config.detector1),
                                   ("detector2", config.detector2))})
        for run in (lambda c: generated_state(c, quad),
                    lambda c: monte_carlo_state(c, samples=2000, seed=7)):
            expected, report = run(config), run(scaled)
            for name in ("concurrence_target", "concurrence_generated", "delta_c",
                         "fidelity", "heralding_weight", "v12"):
                assert abs(getattr(report, name) - getattr(expected, name)) <= 1e-12
            assert np.max(np.abs(report.rho_generated - expected.rho_generated)) <= 1e-12

    def test_cli_exits_4_when_the_closed_form_drifts(self, monkeypatch, capsys):
        figures = herald._figures
        monkeypatch.setattr(herald, "_figures",
                            lambda *args: _drift_concurrence(*figures(*args)))
        assert main(["uncertainty", "--config", BASELINE]) == 4
        assert "misses the closed form" in capsys.readouterr().err

    def test_hot_path_runs_one_two_by_two_svd_and_no_eigensolver(self, monkeypatch):
        # counts calls, never times them: a refactor that puts the 4x4
        # eigensolver route back on generated_state shows here
        scenario = load_scenario(BASELINE)
        config, quad = scenario.experiment(), scenario.quadrature_spec()
        generated_state(config, quad)  # fill the node-rule cache
        calls = []

        def counting(name, func):
            def wrapper(matrix, *args, **kwargs):
                calls.append((name, np.shape(matrix)))
                return func(matrix, *args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        generated_state(config, quad)
        assert calls == [("svd", (2, 2))]


class TestPatchNodes:
    @pytest.mark.parametrize("patch, quad", [
        ({}, QuadratureSpec()),
        ({"chi_center": 0.4, "span_chi": 0.3, "theta_center": 1.2}, QuadratureSpec()),
        ({"span_theta": 0.0, "span_chi": 0.0}, QuadratureSpec()),
        ({}, QuadratureSpec(points_theta=1, points_chi=1)),
        ({"span_theta": 0.02, "span_chi": 0.8}, QuadratureSpec(points_theta=13, points_chi=13)),
        ({"chi_center": -0.3}, QuadratureSpec(points_theta=1, points_chi=13)),
    ], ids=["baseline", "off-equator", "point", "one-node", "thirteen-nodes", "one-by-13"])
    def test_nodes_match_the_meshgrid_route(self, patch, quad):
        detector = reference_patch(Polarizer.linear(0.0), **patch)
        (dirs,), weights = geometry._patch_nodes(detector, quad,
                                                 np.array([detector.theta_center]))
        expected_dirs, expected_weights = grid_nodes(
            detector, quad.points_theta, quad.points_chi)
        assert dirs.shape == expected_dirs.shape and weights.shape == expected_weights.shape
        # one ulp at most (identical arithmetic, so in practice exact)
        assert np.all(np.abs(dirs - expected_dirs) <= np.spacing(np.abs(expected_dirs)))
        assert np.all(np.abs(weights - expected_weights) <= np.spacing(expected_weights))
        assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) <= 1e-15


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
        with pytest.raises(InvalidInputError, match="out of reach"):
            theta_center_for_delta21(layout, base, 0.0, 60.0)
        # a phase that is not a finite real number is rejected before the solve
        for delta in (np.nan, np.inf, "1", True, None):
            with pytest.raises(InvalidInputError, match="delta21 must be a finite real number"):
                theta_center_for_delta21(layout, base, 0.0, delta)
        # so is a latitude no detector patch accepts
        for chi in (2.0, -np.pi / 2, np.pi / 2):
            with pytest.raises(InvalidInputError, match=r"chi_center must lie strictly"):
                theta_center_for_delta21(layout, base, chi, 0.0)
        for chi in (np.nan, "0", True):
            with pytest.raises(InvalidInputError, match="chi_center must be a finite real"):
                theta_center_for_delta21(layout, base, chi, 0.0)


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
        for delta21_values, v12_values in (([], [0.5]), ([[0.0, 0.1]], [0.5]),
                                           ([0.0], [[0.5]])):
            with pytest.raises(InvalidInputError, match="nonempty and one-dimensional"):
                delta_c_scan(config, FAST_QUAD, delta21_values, v12_values)
        with pytest.raises(InvalidInputError):
            delta_c_scan(config, FAST_QUAD, [0.0], [1.5])
        with pytest.raises(InvalidInputError, match="out of reach"):
            delta_c_scan(config, FAST_QUAD, [0.0, 60.0], [0.5])
        with pytest.raises(InvalidInputError, match="delta21 must be a finite real number"):
            delta_c_scan(config, FAST_QUAD, [0.0, np.nan], [0.5])
        for delta21_values, v12_values in ((["0"], [0.5]), ([True], [0.5]), ([0.0], ["0.5"]),
                                           ([0.0], [True, False]), ([0.0], [0.5j])):
            with pytest.raises(InvalidInputError, match="must be finite integers or floats"):
                delta_c_scan(config, FAST_QUAD, delta21_values, v12_values)
        with pytest.raises(InvalidInputError, match=r"v12 grid must lie in \[0, 1\]"):
            delta_c_scan(config, FAST_QUAD, [0.0], [0.5, np.nan])

    @pytest.mark.parametrize("edge", [48.3321705, -48.3321705], ids=["past-0", "past-pi"])
    def test_last_geometry_past_the_pole_raises(self, edge):
        # +-k d cos(0.001): the last phase moves detector 2 to theta = 0.001
        # or pi - 0.001, inside the sphere, but its 5 mrad wide patch crosses
        # the pole; every moved geometry is checked, not only the first
        config = reference_config()
        delta_c_scan(config, FAST_QUAD, [0.0], [0.5])
        with pytest.raises(InvalidInputError, match="leaves the valid theta range"):
            delta_c_scan(config, FAST_QUAD, [0.0, edge], [0.5])

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
            weight, coherence, delta21 = patch_moments(cell, quad)
            target = heralded_state(jones1, jones2, delta21)
            c_target, c_generated, fidelity, _ = matrix_route(
                weight, coherence, *_component_vectors(jones1, jones2), target.state)
            assert abs(point.concurrence_generated - c_generated) < 1e-12
            assert abs(point.concurrence_target - c_target) < 1e-12
            assert abs(point.fidelity - fidelity) < 1e-12

    def test_zero_probability_cell_raises(self):
        # equal analyzers at delta21 = pi: the herald never fires there
        config = reference_config()
        with pytest.raises(ZeroProbabilityHeraldError):
            delta_c_scan(config, FAST_QUAD, [0.0, np.pi], [0.5, 1.0])

    def test_cached_rules_are_read_only_and_survive_scans(self):
        nodes, weights = geometry._reference_rule(8)
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
        # one (W, M) pass and one node build per detector for the whole
        # grid, no scalar longitude solve, no node rule recomputed once the
        # cache holds it, and no analyzer vectors at all (the scan works
        # from V alone): per-row or per-geometry recomputation would show
        # here first
        counts = {"entry": 0, "moments": 0, "nodes": 0, "longitudes": 0, "leggauss": 0,
                  "vectors": 0}

        def counting(name, func):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)
            return wrapper

        # delta_c_scan looks the entry up in herald, where it is imported
        monkeypatch.setattr(herald, "_quadrature_moments",
                            counting("entry", geometry._quadrature_moments))
        monkeypatch.setattr(geometry, "_phase_moments",
                            counting("moments", geometry._phase_moments))
        monkeypatch.setattr(geometry, "_patch_nodes",
                            counting("nodes", geometry._patch_nodes))
        monkeypatch.setattr(geometry, "theta_center_for_delta21",
                            counting("longitudes", geometry.theta_center_for_delta21))
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            counting("leggauss", np.polynomial.legendre.leggauss))
        for module in (herald, optics):
            monkeypatch.setattr(module, "_component_vectors",
                                counting("vectors", _component_vectors))
        _baseline_scan()
        assert counts["entry"] == counts["moments"] == 1
        assert counts["nodes"] == 2 and counts["vectors"] == 0
        counts.update(entry=0, moments=0, nodes=0, leggauss=0)
        _baseline_scan()
        assert counts == {"entry": 1, "moments": 1, "nodes": 2, "longitudes": 0,
                          "leggauss": 0, "vectors": 0}
