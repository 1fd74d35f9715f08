"""Generated-state averaging, rates, scans, and their cross-checks."""

import dataclasses
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from heraldsim import (
    AtomPairLayout,
    CountRates,
    DetectorPatch,
    ExperimentConfig,
    InvalidInputError,
    NumericalFailureError,
    Polarizer,
    QuadratureSpec,
    TrapModel,
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
    block_draws,
    block_starts,
    grid_nodes,
    matrix_route,
    nominal_phase,
    patch_moments,
    point_detector_config,
    pretend_cores,
    quadrature_moments,
    reference_config,
    reference_layout,
    reference_patch,
    sampled_moments_one_shot,
    sampled_moments_serial,
    sampled_terms_weighted_angles,
    wrap_phase,
)

FAST_QUAD = QuadratureSpec(points_theta=6, points_chi=6, points_trap=6)
BASELINE = "scenarios/baseline.json"
SCENARIOS = (BASELINE, "scenarios/point_detectors.json")


class _NumpyReads:
    """Stands in for numpy in one module and records each name read from it."""

    def __init__(self, read):
        self._read = read

    def __getattr__(self, name):
        self._read.append(name)
        return getattr(np, name)


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


#: the (n_delta21, n_v12) figure arrays of a ScanResult
SCAN_FIGURES = ("delta_c", "fidelity", "concurrence_target", "concurrence_generated")


def _cells(result):
    """(delta21, v12, (i, j)) of every scan cell, delta21 outer and v12 inner."""
    return [(delta, v12, (i, j)) for i, delta in enumerate(result.delta21.tolist())
            for j, v12 in enumerate(result.v12.tolist())]


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


#: every number of a config's records, as ``_config_from`` builds it
_RECORD_NUMBERS = {
    "separation": 5e-6, "wavelength": 650e-9, "confinement": 10e-9,
    "theta_center1": 1.5, "theta_center2": 1.6, "chi_center": 0.1,
    "span_theta": 5e-3, "span_chi": 0.5, "repetition_rate": 5e6,
    "detector_efficiency": 0.3, "dark_count_rate": 100.0, "coincidence_window": 1e-8,
}
#: how a caller may give those numbers; ``int`` takes only the integral ones
_NUMBER_KINDS = {
    "fraction": lambda x: Fraction(repr(x)),
    "float32": np.float32,
    "float64": np.float64,
    "int": lambda x: int(x) if x.is_integer() else x,
}


def _config_from(number):
    """A finite-patch config whose every record number is ``number(value)``."""
    n = {name: number(value) for name, value in _RECORD_NUMBERS.items()}

    def patch(theta_center, angle):
        return DetectorPatch(theta_center=theta_center, chi_center=n["chi_center"],
                             span_theta=n["span_theta"], span_chi=n["span_chi"],
                             polarizer=Polarizer.linear(angle))

    return ExperimentConfig(
        layout=AtomPairLayout(separation=n["separation"], wavelength=n["wavelength"]),
        trap=TrapModel(confinement=n["confinement"]),
        detector1=patch(n["theta_center1"], 0.0),
        detector2=patch(n["theta_center2"], 0.7),
        repetition_rate=n["repetition_rate"],
        detector_efficiency=n["detector_efficiency"],
        dark_count_rate=n["dark_count_rate"],
        coincidence_window=n["coincidence_window"],
    )


def _bits(value):
    """``value`` with every float and array as its exact bits and type."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, [_bits(getattr(value, f.name))
                                      for f in dataclasses.fields(value)]
    return type(value).__name__, repr(value)


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

    def test_largest_patch_has_flat_fraction_a_quarter_pi(self):
        # theta from pole to pole and chi just short of both poles: the
        # largest patch that fits on the sphere, flat area pi * pi
        widest_chi = np.nextafter(np.pi, 0.0)
        patch = reference_patch(Polarizer.linear(0.0), span_theta=np.pi,
                                span_chi=widest_chi)
        assert detection_probability(patch) == pytest.approx(np.pi / 4.0, rel=1e-15)
        for spans in ((np.nextafter(np.pi, 4.0), widest_chi), (np.pi, np.pi)):
            with pytest.raises(InvalidInputError, match="leaves the valid"):
                reference_patch(Polarizer.linear(0.0), span_theta=spans[0],
                                span_chi=spans[1])

    @pytest.mark.parametrize("spans", [(3.0, 6.0), (1e200, 1e200)],
                             ids=["flat-area-above-one", "infinite-flat-area"])
    def test_patch_larger_than_the_sphere_raises(self, spans):
        with pytest.raises(InvalidInputError, match="leaves the valid"):
            reference_patch(Polarizer.linear(0.0), span_theta=spans[0], span_chi=spans[1])


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

    def test_rate_is_returned_where_twice_the_repetition_rate_overflows(self):
        # 2 r is beyond the float range, the rate 2 r P1 P2 G2 is not
        huge = count_rate(reference_config(repetition_rate=1.5e308), 0.5, 0.0)
        reference = count_rate(reference_config(), 0.5, 0.0)
        assert huge.raw == pytest.approx(3e301 * reference.raw, rel=1e-12)
        assert huge.corrected == pytest.approx(3e301 * reference.corrected, rel=1e-12)

    def test_rate_beyond_the_float_range_raises(self):
        config = reference_config(repetition_rate=1.7e308, span_theta=3.0, span_chi=3.0)
        with pytest.raises(InvalidInputError, match="coincidence rate"):
            count_rate(config, 0.5, 0.0)


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

    def test_patch_larger_than_the_sphere_raises_not_nan(self):
        # at zero efficiency the singles would be 0 * inf, so the fraction nan;
        # such a patch is not built
        with pytest.raises(InvalidInputError, match="leaves the valid"):
            reference_config(detector_efficiency=0.0, span_theta=1e200, span_chi=1e200)

    def test_overflowing_accidental_rate_gives_the_limit(self):
        # dark**2 * window overflows: the fraction is 1.0, not inf / inf
        config = reference_config(dark_count_rate=1e300, coincidence_window=1e-9)
        assert accidental_fraction(config, true_rate=1.0) == 1.0
        assert accidental_fraction(config, true_rate=1e308) == 1.0

    def test_overflowing_sum_of_rates_keeps_their_ratio(self):
        # R_acc and true_rate are finite, their sum is not
        config = reference_config(dark_count_rate=1e154, coincidence_window=1.0)
        accidental = 1e154 * 1e154  # the singles term is negligible
        fraction = accidental_fraction(config, true_rate=accidental)
        assert fraction == pytest.approx(0.5, rel=1e-12)

    def test_no_window_means_no_accidentals_whatever_the_rates(self):
        config = reference_config(repetition_rate=1.7e308, span_theta=3.0, span_chi=3.0,
                                  dark_count_rate=1e300, coincidence_window=0.0)
        assert accidental_fraction(config, true_rate=1.0) == 0.0

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

    @pytest.mark.parametrize("kind", _NUMBER_KINDS)
    def test_records_hold_python_floats(self, kind):
        config = _config_from(_NUMBER_KINDS[kind])
        records = {"config": config, "layout": config.layout, "trap": config.trap,
                   "detector1": config.detector1, "detector2": config.detector2}
        numbers = {f"{label}.{field.name}": getattr(record, field.name)
                   for label, record in records.items()
                   for field in dataclasses.fields(record)
                   if not dataclasses.is_dataclass(getattr(record, field.name))}
        assert len(numbers) == 15
        assert {name: type(x) for name, x in numbers.items() if type(x) is not float} == {}

    @pytest.mark.parametrize("kind", _NUMBER_KINDS)
    def test_reports_scans_and_rates_match_the_float_twins(self, kind):
        # a Fraction once reached numpy as an object array (TypeError), and a
        # float32 span gave single-precision rates
        number = _NUMBER_KINDS[kind]
        config, twin = _config_from(number), _config_from(lambda x: float(number(x)))
        for run in (lambda c: generated_state(c, FAST_QUAD),
                    lambda c: monte_carlo_state(c, samples=500, seed=3),
                    lambda c: delta_c_scan(c, FAST_QUAD, [-0.3, 0.0, 0.4], [0.2, 0.9]),
                    lambda c: count_rate(c, 0.5, 0.3),
                    lambda c: accidental_fraction(c, count_rate(c, 0.5, 0.3).corrected)):
            assert _bits(run(config)) == _bits(run(twin))

    @pytest.mark.parametrize("polarizer", [
        None, (1, 0), np.array([1, 0]), Polarizer.linear(0.0).jones,
    ], ids=["none", "tuple", "array", "jones"])
    def test_a_patch_takes_only_a_polarizer(self, polarizer):
        # once these built, generated_state raised a bare AttributeError while
        # delta_c_scan and count_rate returned numbers
        with pytest.raises(InvalidInputError, match="polarizer must be of type Polarizer"):
            reference_patch(polarizer)
        with pytest.raises(InvalidInputError, match="polarizer must be of type Polarizer"):
            dataclasses.replace(reference_patch(Polarizer.linear(0.0)), polarizer=polarizer)

    def test_a_config_takes_only_the_model_records(self):
        with pytest.raises(InvalidInputError, match="layout must be of type AtomPairLayout"):
            ExperimentConfig(layout=None, trap=None, detector1=None, detector2=None,
                             repetition_rate=5e6)
        config = reference_config()
        for name, kind in (("layout", "AtomPairLayout"), ("trap", "TrapModel"),
                           ("detector1", "DetectorPatch"), ("detector2", "DetectorPatch")):
            for wrong in (None, config.trap if name == "layout" else config.layout):
                with pytest.raises(InvalidInputError, match=f"{name} must be of type {kind}"):
                    dataclasses.replace(config, **{name: wrong})

    @pytest.mark.parametrize("call, name, kind", [
        (lambda c: generated_state(None), "config", "ExperimentConfig"),
        (lambda c: generated_state(c, None), "quadrature", "QuadratureSpec"),
        (lambda c: generated_state(c, (8, 8, 8)), "quadrature", "QuadratureSpec"),
        (lambda c: delta_c_scan(c.layout, FAST_QUAD, [0.0], [0.5]), "config",
         "ExperimentConfig"),
        (lambda c: delta_c_scan(c, None, [0.0], [0.5]), "quadrature", "QuadratureSpec"),
        (lambda c: monte_carlo_state(None, 100, 1), "config", "ExperimentConfig"),
        (lambda c: count_rate(None, 0.5, 0.3), "config", "ExperimentConfig"),
        (lambda c: accidental_fraction(c.detector1, 1.0), "config", "ExperimentConfig"),
        (lambda c: detection_probability(c), "patch", "DetectorPatch"),
        (lambda c: farfield_phase(None, 0.1), "layout", "AtomPairLayout"),
        (lambda c: farfield_phase(c, 0.1), "layout", "AtomPairLayout"),
        (lambda c: theta_center_for_delta21(None, c.detector1, 0.0, 0.1), "layout",
         "AtomPairLayout"),
        (lambda c: theta_center_for_delta21(c.layout, None, 0.0, 0.1), "reference_patch",
         "DetectorPatch"),
    ], ids=["state-config", "state-none-spec", "state-tuple-spec", "scan-config",
            "scan-spec", "monte-carlo-config", "rate-config", "accidental-config",
            "probability-patch", "phase-none-layout", "phase-config-layout",
            "solve-layout", "solve-patch"])
    def test_entry_points_take_only_their_records(self, call, name, kind, monkeypatch):
        # these raised a bare AttributeError, or returned a number; the Monte
        # Carlo route checks its config before it builds a block's generator
        def no_draws(*args, **kwargs):
            raise AssertionError("a generator was built before the check")

        monkeypatch.setattr(np.random, "Generator", no_draws)
        with pytest.raises(InvalidInputError, match=f"^{name} must be of type {kind}, got "):
            call(reference_config())

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

    def test_fidelity_is_at_most_one(self):
        # within an ulp of the point design the closed form rounds to 1 + 2**-52
        # or more: the baseline with both patches 1e-38 rad wide, and the v12 = 1
        # column of its scan, read at most 1
        config, quad, scan = _baseline_scan()
        tiny = dataclasses.replace(config, **{
            name: dataclasses.replace(getattr(config, name), span_theta=1e-38, span_chi=1e-38)
            for name in ("detector1", "detector2")})
        assert generated_state(tiny, quad).fidelity <= 1.0
        column = scan.fidelity[:, scan.v12 == 1.0]
        assert column.shape == (21, 1)
        assert (column <= 1.0).all()

    @pytest.mark.parametrize("span", [1e-38, 1e-60, 1e-79, 1e-100, 1e-300])
    def test_tiny_patches_are_point_detectors(self, span):
        # the patch measure span**4 leaves the float range, but the quadrature
        # weights are scaled by a power of two: both patches span x span give
        # the point-design figures, and the weight is never nan
        point = point_detector_config(Polarizer.linear(0.0), Polarizer.linear(0.3))
        tiny = dataclasses.replace(point, **{
            name: dataclasses.replace(getattr(point, name), span_theta=span, span_chi=span)
            for name in ("detector1", "detector2")})
        expected, report = generated_state(point), generated_state(tiny)
        for name in ("concurrence_target", "concurrence_generated", "delta_c", "fidelity",
                     "delta21_nominal", "v12"):
            assert abs(getattr(report, name) - getattr(expected, name)) <= 1e-12
        assert np.max(np.abs(report.rho_generated - expected.rho_generated)) <= 1e-12
        assert not np.isnan(report.heralding_weight)
        if span**4 >= sys.float_info.min:
            assert abs(report.heralding_weight / span**4
                       - expected.heralding_weight) <= 1e-12 * expected.heralding_weight
        grids = (np.linspace(-1.0, 1.0, 5), [0.0, 0.5, 1.0])
        expected_scan, scan = (delta_c_scan(config, FAST_QUAD, *grids)
                               for config in (point, tiny))
        for name in ("delta_c", "fidelity", "concurrence_target", "concurrence_generated"):
            assert np.max(np.abs(getattr(scan, name) - getattr(expected_scan, name))) <= 1e-12

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
            herald._figures(np.exp(-1j * delta21), 1.0, delta21)
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
            np.exp(-1j * delta21), v12, delta21)
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
        # real matrix; 16 column blocks of 256 columns, 8 MB each, bound
        # the peak instead
        config = reference_config()
        quad = QuadratureSpec(points_theta=64, points_chi=64)
        tracemalloc.start()
        try:
            generated_state(config, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        weight, m, _ = patch_moments(config, quad)
        oracle_weight, oracle_m = quadrature_moments(config, 64, 6)
        assert abs(weight - oracle_weight) <= 1e-12 * oracle_weight
        assert abs(m - oracle_m) <= 1e-12 * abs(oracle_m)

    def test_wide_scan_memory_is_bounded(self):
        # 16 x 16 nodes per patch make a 512 KB pair matrix per geometry, so
        # 201 delta21 geometries would hold 103 MB at once; 13 column blocks
        # of 4096 columns, the last one partial, keep the pair block within 8 MB
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
        # geometries from different column blocks match a scan that holds
        # them all in one block
        sparse = delta_c_scan(config, quad, grid[::50], [0.0, 0.5])
        assert np.array_equal(sparse.v12, result.v12)
        for name in ("delta21",) + SCAN_FIGURES:
            assert np.array_equal(getattr(sparse, name), getattr(result, name)[::50])

    def test_moments_are_invariant_under_a_common_rotation(self):
        # the pair axis is a gauge: turning the separation and every node
        # direction together keeps (W, m), while the oracle's trap grid
        # stays lab-aligned, so this also checks the trap isotropy
        config = _with_delta21(reference_config(confinement=30e-9), np.pi / 2)
        weight, m, _ = patch_moments(
            config, QuadratureSpec(points_theta=6, points_chi=6))
        q, r = np.linalg.qr(np.random.default_rng(29).standard_normal((3, 3)))
        rotation = q * np.sign(np.diag(r))
        assert np.allclose(rotation @ rotation.T, np.eye(3), atol=1e-14)
        oracle_weight, oracle_m = quadrature_moments(config, 6, 6, rotation=rotation)
        assert abs(weight - oracle_weight) <= 1e-12 * oracle_weight
        assert abs(m - oracle_m) <= 1e-12 * abs(oracle_m)

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
        # both weights are the patch measure, not a sum over nodes or samples
        assert abs(sampled.heralding_weight - exact.heralding_weight) \
            <= 1e-3 * exact.heralding_weight

    def test_monte_carlo_weight_of_point_detectors_is_the_quadrature_one(self):
        # a zero span counts as 1 on both routes
        config = point_detector_config(Polarizer.linear(0.0), Polarizer.linear(0.3),
                                       theta2=1.5)
        config = dataclasses.replace(config, detector2=dataclasses.replace(
            config.detector2, chi_center=0.4))
        exact = generated_state(config)
        sampled = monte_carlo_state(config, samples=1000, seed=3)
        assert abs(sampled.heralding_weight - exact.heralding_weight) \
            <= 1e-12 * exact.heralding_weight

    @pytest.mark.parametrize("samples", [1, 8191, 8192, 8193, 3 * 8192 + 7])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_sampled_moments_match_the_one_shot_sums(self, samples, seed):
        # the same draws and estimator summed in blocks of _SAMPLE_BLOCK = 8192
        # samples, across the block edges, on both latitudes off the equator
        config = reference_config(confinement=30e-9, chi_center=0.2)
        config = dataclasses.replace(config, detector2=dataclasses.replace(
            config.detector2, theta_center=1.5, chi_center=-0.15))
        arguments = (config.layout, config.trap, config.detector1, config.detector2, samples)
        weight, m, delta = geometry._sampled_moments(*arguments, seed)
        oracle_weight, oracle_m, oracle_delta = sampled_moments_one_shot(*arguments, seed)
        assert abs(weight - oracle_weight) <= 1e-13 * oracle_weight
        assert abs(m - oracle_m) <= 1e-13
        assert delta == oracle_delta

    @pytest.mark.parametrize("detector1, detector2", [
        ({}, {}),
        ({"span_chi": 0.0, "chi_center": 0.3}, {"span_chi": 0.0}),
        ({"span_theta": 0.0, "span_chi": 0.0}, {"span_theta": 0.0, "span_chi": 0.0,
                                                "chi_center": 0.4, "theta_center": 1.5}),
        ({"span_theta": 1e-300}, {}),
        ({"span_chi": 1e-300, "chi_center": -0.2}, {}),
        ({"span_theta": 1e-300, "span_chi": 1e-300}, {}),  # 1e-600 underflows on both
        # patch edges within 1e-9 of the north and the south pole
        ({"chi_center": 0.3, "span_chi": 2 * (np.pi / 2 - 0.3 - 1e-9)},
         {"chi_center": -0.3, "span_chi": 2 * (np.pi / 2 - 0.3 - 1e-9)}),
    ], ids=["baseline", "zero-chi-span", "point-detectors", "tiny-theta-span",
            "tiny-chi-span", "tiny-spans", "poles"])
    def test_sampled_weight_is_the_quadrature_measure(self, detector1, detector2):
        # every sample weighs 1 and W is the exact measure A1 A2, a zero span
        # counting as it does in the quadrature; near a pole cos chi is clamped
        # at 0, so no sample warns or gives nan
        config = reference_config(confinement=30e-9)
        config = dataclasses.replace(
            config, detector1=dataclasses.replace(config.detector1, **detector1),
            detector2=dataclasses.replace(config.detector2, **detector2))
        arguments = (config.layout, config.trap, config.detector1, config.detector2)
        exact = geometry._quadrature_moments(*arguments, QuadratureSpec())[0]
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            weight, m, _ = geometry._sampled_moments(*arguments, 20_000, 1)
        assert abs(weight - exact) <= 1e-12 * exact
        assert np.isfinite(m) and abs(m) <= 1.0

    def test_cos_latitude_of_a_rounded_edge_is_zero(self):
        # z = sin chi a rounding past +-1, as at the edge of a patch within rounding
        # of a pole, gives cos chi = 0, not nan; it is written over z
        z = np.array([np.nextafter(1.0, 2.0), -np.nextafter(1.0, 2.0), 1.0, -1.0, 0.0])
        with np.errstate(all="raise"):
            assert geometry._cos_latitude(z, np.empty_like(z)) is z
        assert z.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_sampled_and_weighted_angle_estimators_agree_with_fine_quadrature(self):
        # draws uniform in solid angle with one trap normal, and draws uniform
        # in angle weighted by cos chi1 cos chi2 with three trap normals: both
        # within 5 standard errors of 48 x 48 nodes, on 40 mrad patches off the
        # equator and a 60 nm trap
        config = reference_config(confinement=60e-9, span_theta=40e-3, chi_center=0.2)
        config = dataclasses.replace(config, detector2=dataclasses.replace(
            config.detector2, theta_center=1.5, chi_center=-0.15))
        arguments = (config.layout, config.trap, config.detector1, config.detector2)
        exact = geometry._quadrature_moments(*arguments, QuadratureSpec(48, 48))[1]
        samples = 20_000
        for seed in range(10):
            m = geometry._sampled_moments(*arguments, samples, seed)[1]
            # every term has modulus 1, so its mean square deviation is 1 - |m|**2
            assert abs(m - exact) <= 5 * np.sqrt((1 - abs(m) ** 2) / samples)
            weight, terms = sampled_terms_weighted_angles(*arguments, samples,
                                                          np.random.default_rng(seed))
            ratio = weight @ terms / weight.sum()
            error = np.sqrt(np.sum(weight ** 2 * np.abs(terms - ratio) ** 2)) / weight.sum()
            assert abs(ratio - exact) <= 5 * error

    def test_a_block_takes_one_normal_row_and_three_tan_calls(self, monkeypatch):
        # counts, never times: each block draws one (size,) normal row and calls
        # np.tan three times, on its two halved longitude rows and its half
        # phase, never on a latitude row, and takes np.cos / np.sin of no array
        config = reference_config(confinement=30e-9, chi_center=0.2)
        samples, seed = 3 * geometry._SAMPLE_BLOCK + 7, 8
        uniforms = np.concatenate([uniforms for uniforms, _ in block_draws(seed, samples)],
                                  axis=1)
        normal_rows, tan_rows, trig_rows = [], [], []

        class CountingGenerator(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                normal_rows.append(np.shape(kwargs.get("out", args[0] if args else ())))
                return super().standard_normal(*args, **kwargs)

        def counting(function, rows):
            def trig(x, *args, **kwargs):
                rows.append(np.array(x, copy=True))
                return function(x, *args, **kwargs)
            return trig

        monkeypatch.setattr(np.random, "Generator", CountingGenerator)
        for name, rows in (("tan", tan_rows), ("cos", trig_rows), ("sin", trig_rows)):
            monkeypatch.setattr(np, name, counting(getattr(np, name), rows))
        geometry._sampled_moments(config.layout, config.trap, config.detector1,
                                  config.detector2, samples, seed)
        monkeypatch.undo()
        sizes = [min(geometry._SAMPLE_BLOCK, samples - start)
                 for start in range(0, samples, geometry._SAMPLE_BLOCK)]
        assert sorted(normal_rows) == sorted((size,) for size in sizes)
        assert sorted(len(row) for row in tan_rows) == sorted(3 * sizes)
        # the nominal phase of the patch centers takes its trig on single values
        assert not [row for row in trig_rows if row.size > 1]
        patches = (config.detector1, config.detector2)
        firsts = {row[0] for row in tan_rows}
        for patch, theta_u, z_u in zip(patches, uniforms[0::2], uniforms[1::2]):
            halves = (0.5 * patch.theta_center
                      + 0.5 * patch.span_theta * (theta_u[::geometry._SAMPLE_BLOCK] - 0.5))
            assert set(halves.tolist()) <= firsts
            half = 0.5 * patch.span_chi
            z = (np.sin(patch.chi_center) * np.cos(half)
                 + 2 * np.cos(patch.chi_center) * np.sin(half) * (z_u - 0.5))
            starts = set(z[::geometry._SAMPLE_BLOCK].tolist())
            chi = set(np.arcsin(z[::geometry._SAMPLE_BLOCK]).tolist())
            assert not firsts & (starts | chi)

    def test_half_phase_sums_are_cos_and_sin_of_any_phase(self):
        # with T = tan(p / 2) and D = 1 / (1 + T**2), 2 D - 1 = cos p and
        # 2 T D = sin p within 2 ulp of 1, for phases from 1e-300 to 1e101 rad
        # of either sign: numpy's tan reduces every argument as its cos and sin do
        rng = np.random.default_rng(0)
        phases = np.concatenate([np.geomspace(1e-300, 1e101, 100_000),
                                 rng.uniform(-1e6, 1e6, 100_000)])
        phases = np.concatenate([phases, -phases])
        tangent = np.tan(0.5 * phases)
        cos_sq = 1.0 / (tangent * tangent + 1.0)
        assert np.abs(2.0 * cos_sq - 1.0 - np.cos(phases)).max() <= 2**-51
        assert np.abs(2.0 * tangent * cos_sq - np.sin(phases)).max() <= 2**-51

    @pytest.mark.parametrize("samples", [1, 8191, 8192, 8193, 3 * 8192 + 7, 200_000])
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("confinement", [0.0, 30e-9])
    def test_sampled_moments_are_the_serial_sums(self, samples, seed, confinement):
        # each block drawn from its own stream and summed on one of several
        # threads, the block sums added in block order: the serial draws and
        # sums bit for bit
        config = reference_config(confinement=confinement, chi_center=0.2)
        config = dataclasses.replace(config, detector2=dataclasses.replace(
            config.detector2, theta_center=1.5, chi_center=-0.15))
        arguments = (config.layout, config.trap, config.detector1, config.detector2, samples)
        threads = threading.active_count()
        assert (geometry._sampled_moments(*arguments, seed)
                == sampled_moments_serial(*arguments, seed))
        assert threading.active_count() == threads

    @pytest.mark.parametrize("samples", [3 * 8192 + 7, 200_000])
    @pytest.mark.parametrize("cores", [1, 2, 3, 64])
    def test_sampled_moments_do_not_depend_on_the_worker_count(self, cores, samples,
                                                               monkeypatch):
        # one thread, or as many as the cores and the cap allow switching every
        # microsecond, a partial last block on any of them: each thread draws a
        # block from the block's own stream and sums it in its own buffer, so
        # the sums keep their bits
        config = reference_config(confinement=30e-9)
        arguments = (config.layout, config.trap, config.detector1, config.detector2,
                     samples)
        expected = sampled_moments_serial(*arguments, 5)
        pretend_cores(monkeypatch, cores)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert geometry._sampled_moments(*arguments, 5) == expected
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("samples, cores, most", [
        (1, 64, 0), (8192, 64, 0), (8193, 64, 1), (3 * 8192 + 7, 64, 3),
        (200_000, 64, geometry._SAMPLE_WORKERS), (200_000, 2, 2), (200_000, 1, 1)])
    def test_sampled_moments_start_at_most_the_capped_workers(self, samples, cores, most,
                                                              monkeypatch):
        # the calling thread takes blocks too, so one block starts no thread,
        # and no more threads run than the cap, the cores or the blocks
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        pretend_cores(monkeypatch, cores)
        config = reference_config()
        geometry._sampled_moments(config.layout, config.trap, config.detector1,
                                  config.detector2, samples, 2)
        assert len(started) <= most

    def test_sampled_moments_memory_is_bounded(self):
        # each thread draws and sums a block in place in its own reused
        # buffer (56 B per sample of a block); sums over
        # whole (samples, 3) direction and offset arrays and a complex phase
        # array peak at 136 B per sample
        config = reference_config()
        samples = 200_000
        tracemalloc.start()
        try:
            geometry._sampled_moments(config.layout, config.trap, config.detector1,
                                      config.detector2, samples, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 80 * samples

    def test_sampled_moments_memory_does_not_grow_with_cores_or_samples(self, monkeypatch):
        # 64 cores still give at most _SAMPLE_WORKERS threads, each with one
        # buffer: a million samples fit the bound of 200 000
        pretend_cores(monkeypatch, 64)
        config = reference_config()
        for samples in (200_000, 1_000_000):
            tracemalloc.start()
            try:
                geometry._sampled_moments(config.layout, config.trap, config.detector1,
                                          config.detector2, samples, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 80 * 200_000

    @pytest.mark.parametrize("cores", [1, 3])
    def test_sampled_moments_memory_does_not_grow_with_the_block_count(self, cores,
                                                                      monkeypatch):
        # the block sums go into one running sum in block order, a block
        # finished out of turn waiting in a small dict: 500 blocks peak within
        # 4 KB of 50, where a slot and a tuple kept for every block read
        # 25-46 KB more at 500
        pretend_cores(monkeypatch, cores)
        config = reference_config()
        peaks = []
        for blocks in (50, 500):
            tracemalloc.start()
            try:
                geometry._sampled_moments(config.layout, config.trap, config.detector1,
                                          config.detector2, blocks * geometry._SAMPLE_BLOCK, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 4096

    @pytest.mark.parametrize("cores", [2, 64])
    def test_a_failed_block_stops_the_rest(self, cores, monkeypatch):
        # a worker's first block fails: no thread takes a block after that, so
        # only blocks already taken, at most one per other thread, begin after
        # it, and the error reaches the caller once every worker is joined.
        # Until a worker fails the caller holds its block, and a block begun
        # after the failure is held until the failing worker has ended, its
        # error recorded: a block begun then was taken before the failure
        config = reference_config(confinement=30e-9)
        samples, seed = 200_000, 4
        starts = block_starts(config.detector1, samples, seed)
        workers = min(geometry._SAMPLE_WORKERS, cores)
        pretend_cores(monkeypatch, cores)
        log, lock, failing, failed = [], threading.Lock(), [], threading.Event()
        tan = np.tan

        def tan_failing_in_a_worker_block(x, *args, **kwargs):
            if np.shape(x) == (geometry._SAMPLE_BLOCK,) and x[0] in starts:
                with lock:
                    log.append("begin")
                    thread = threading.current_thread()
                    if not failing and thread is not threading.main_thread():
                        failing.append(thread)
                        log.append("failed")
                        failed.set()
                        raise MemoryError("a failed block")
                assert failed.wait(10), "no worker took a block"
                failing[0].join(10)
                assert not failing[0].is_alive()
            return tan(x, *args, **kwargs)

        monkeypatch.setattr(np, "tan", tan_failing_in_a_worker_block)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="a failed block"):
            geometry._sampled_moments(config.layout, config.trap, config.detector1,
                                      config.detector2, samples, seed)
        assert threading.active_count() == threads
        assert log[log.index("failed") + 1:].count("begin") <= workers - 1

    def test_blocks_finishing_out_of_order_keep_the_serial_sums(self, monkeypatch):
        # the thread holding block 0 sleeps once while the other thread sums
        # later blocks: the sums are still added in block order
        config = reference_config(confinement=30e-9)
        samples, seed = 200_000, 6
        arguments = (config.layout, config.trap, config.detector1, config.detector2,
                     samples)
        expected = sampled_moments_serial(*arguments, seed)
        starts = block_starts(config.detector1, samples, seed)
        pretend_cores(monkeypatch, 2)
        begun, asleep = [], []
        tan = np.tan

        def tan_sleeping_in_block_0(x, *args, **kwargs):
            if np.shape(x) == (geometry._SAMPLE_BLOCK,) and x[0] in starts:
                begun.append(x[0])
                if x[0] == starts[0] and not asleep:
                    asleep.append(len(begun))
                    time.sleep(0.05)
                    asleep.append(len(begun))
            return tan(x, *args, **kwargs)

        monkeypatch.setattr(np, "tan", tan_sleeping_in_block_0)
        assert geometry._sampled_moments(*arguments, seed) == expected
        assert asleep[1] > asleep[0] + 1  # later blocks began while block 0 slept

    def test_a_phase_past_the_float_range_raises(self):
        # every phase lies within 2 k d: a layout where that overflows, by a
        # huge separation or a subnormal wavelength, is refused when it is
        # built, so no route forms a nan phase
        for separation, wavelength in ((1e300, 1e-10), (5e-6, 5e-324)):
            with pytest.raises(InvalidInputError,
                               match="separation / wavelength is too large"):
                AtomPairLayout(separation=separation, wavelength=wavelength)

    def test_a_trap_spread_past_the_float_range_raises(self):
        # (k sqrt(2) confinement)**2 overflows: every route names the confinement
        config = reference_config(confinement=1e150)
        for run in (lambda: generated_state(config, FAST_QUAD),
                    lambda: delta_c_scan(config, FAST_QUAD, [0.0], [0.5]),
                    lambda: monte_carlo_state(config, samples=100, seed=1)):
            with pytest.raises(InvalidInputError, match="confinement is too large"):
                run()

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
        # the extent is checked on the patch edges when the patch is built:
        # the center lies inside, so a point patch there builds, the edge does not
        reference_config(**dict(patch, span_theta=0.0, span_chi=0.0))
        with pytest.raises(InvalidInputError, match="leaves the valid"):
            reference_config(**patch)

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
    """(config, W, m, report) of a scenario at its own quadrature."""
    scenario = load_scenario(path)
    config = scenario.experiment()
    total_weight, m, delta21 = patch_moments(config, scenario.quadrature_spec())
    return config, total_weight, m, herald._report(config, total_weight, m, delta21)


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
        # rho = X W B X^dag / tr with X = [s t] and the heralding weight tr:
        # its nonzero eigenvalues are those of W B G / tr, G = X^dag X the
        # Gram matrix, and two are 0
        config, total_weight, m, report = _scenario_report(path)
        basis = np.array(_component_vectors(
            polarizer_to_jones(config.detector1.polarizer),
            polarizer_to_jones(config.detector2.polarizer))).T
        mixing = total_weight * np.array([[1.0, np.conj(m)], [m, 1.0]])
        closed = np.sort(np.linalg.eigvals(
            mixing @ (basis.conj().T @ basis) / report.heralding_weight).real)
        spectrum = np.linalg.eigvalsh(report.rho_generated)
        assert np.max(np.abs(spectrum[2:] - closed)) <= 1e-12
        assert np.max(np.abs(spectrum[:2])) <= 1e-12

    @pytest.mark.parametrize("path", SCENARIOS)
    def test_the_patch_measure_scales_only_the_heralding_weight(self, path):
        # the report reads the state from m alone: a measure 2**-1000 times
        # smaller, exact in binary, moves nothing else by a bit
        config, total_weight, m, report = _scenario_report(path)
        scaled = herald._report(config, total_weight * 2.0**-1000, m, report.delta21_nominal)
        assert scaled.heralding_weight == report.heralding_weight * 2.0**-1000
        for name in ("concurrence_target", "concurrence_generated", "delta_c", "fidelity",
                     "delta21_nominal", "v12"):
            assert getattr(scaled, name) == getattr(report, name)
        for name in ("rho_generated", "target_state"):
            assert np.array_equal(getattr(scaled, name), getattr(report, name))

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

    @pytest.mark.parametrize("route", ["generated_state", "monte_carlo_state"])
    def test_a_report_evaluates_its_herald_once(self, route, monkeypatch):
        # counts calls, never times them: a report trusts the Polarizers of its
        # config (no unit-vector check) and builds s, t once for rho and the target
        scenario = load_scenario(BASELINE)
        config, quad = scenario.experiment(), scenario.quadrature_spec()
        calls = []

        def counting(name, func):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(optics, "_unit_vector",
                            counting("_unit_vector", optics._unit_vector))
        components = counting("_component_vectors", _component_vectors)
        for module in (optics, herald):
            monkeypatch.setattr(module, "_component_vectors", components)
        if route == "generated_state":
            generated_state(config, quad)
        else:
            monte_carlo_state(config, samples=1000, seed=1)
        assert calls == ["_component_vectors"]

    def test_malus_checks_each_analyzer_once(self, monkeypatch):
        # each Polarizer checks its own vector when it is built; the overlap
        # is taken on the stored vectors, with no visibility call
        names = []
        unit_vector = optics._unit_vector

        def recording(value, length, atol, name):
            names.append(name)
            return unit_vector(value, length, atol, name)

        monkeypatch.setattr(optics, "_unit_vector", recording)
        assert main(["malus"]) == 0
        assert names == ["polarizer jones"] * 101

    @pytest.mark.parametrize("jones", [
        (Polarizer.linear(0.0).jones, Polarizer.linear(0.7).jones),
        (np.array([0.6, 0.8j]), np.array([1.0, 0.0])),
    ], ids=["tuples", "arrays"])
    def test_heralded_state_builds_one_array(self, jones, monkeypatch):
        # counts numpy names, never times them: the analyzers are checked and
        # multiplied as Python numbers, numpy's vdot keeps the overlap's bits,
        # the weight takes numpy's cos as the scan does, and the returned
        # state is the one array heralded_state builds
        read = []
        monkeypatch.setattr(optics, "np", _NumpyReads(read))
        heralded_state(*jones, 0.3)
        assert [name for name in read if name != "ndarray"] == ["vdot", "cos", "array"]

    @pytest.mark.parametrize("block_columns", [None, 16])
    def test_trap_factor_takes_one_exp_per_pair_block(self, block_columns, monkeypatch):
        # the real exp calls are the trap factor: one per (n1, columns) block
        # of the pair matrix, 64 x 64 at 8 x 8 nodes, or 64 x 16 when a block
        # holds 16 columns
        scenario = load_scenario(BASELINE)
        config, quad = scenario.experiment(), scenario.quadrature_spec()
        if block_columns:
            monkeypatch.setattr(geometry, "_PAIR_BLOCK_BYTES", 8 * 64 * block_columns)
        shapes = []
        exp = np.exp

        def counting(values, *args, **kwargs):
            if np.isrealobj(values):
                shapes.append(np.shape(values))
            return exp(values, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting)
        generated_state(config, quad)
        assert shapes == [(64, block_columns or 64)] * (64 // (block_columns or 64))


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
        (dirs,), scaled, exponent = geometry._patch_nodes(detector, quad,
                                                          np.array([detector.theta_center]))
        weights = np.ldexp(scaled, exponent)  # exact: the weights are normal floats
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
        assert result.delta21.tolist() == deltas
        assert result.v12.tolist() == visibilities
        for name in SCAN_FIGURES:
            assert getattr(result, name).shape == (2, 3)
        assert result.max_delta_c == pytest.approx(result.delta_c.max(), rel=1e-15)
        assert result.min_fidelity == pytest.approx(result.fidelity.min(), rel=1e-15)

    def test_grid_axes_are_copies(self):
        # a caller reusing its grid arrays after the scan leaves the result alone
        config = reference_config(confinement=0.0)
        deltas, visibilities = np.array([0.0, 0.5]), np.array([0.25, 0.75])
        result = delta_c_scan(config, FAST_QUAD, deltas, visibilities)
        deltas[:] = 9.0
        visibilities[:] = 0.0
        assert result.delta21.tolist() == [0.0, 0.5]
        assert result.v12.tolist() == [0.25, 0.75]

    def test_targets_follow_analytic_concurrence(self):
        config = reference_config(confinement=0.0)
        result = delta_c_scan(config, FAST_QUAD, [0.0, 1.0], [0.25, 0.75])
        for delta, v12, cell in _cells(result):
            assert result.concurrence_target[cell] == pytest.approx(
                concurrence_analytic(delta, v12), abs=1e-9
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
        for delta, v12, cell in _cells(result):
            report = generated_state(_scan_cell(config, delta, v12), FAST_QUAD)
            for name in SCAN_FIGURES:
                assert abs(getattr(result, name)[cell] - getattr(report, name)) <= 1e-15

    def test_baseline_rows_match_the_wootters_route(self):
        # the scan builds no density matrix; rebuild each row's matrix and
        # check the closed-form figures against Wootters and the overlap
        config, quad, result = _baseline_scan()
        assert result.delta_c.shape == (21, 5)
        for delta, v12, index in _cells(result):
            cell = _scan_cell(config, delta, v12)
            jones1 = polarizer_to_jones(cell.detector1.polarizer)
            jones2 = polarizer_to_jones(cell.detector2.polarizer)
            _, m, delta21 = patch_moments(cell, quad)
            target = heralded_state(jones1, jones2, delta21)
            c_target, c_generated, fidelity, _ = matrix_route(
                m, *_component_vectors(jones1, jones2), target.state)
            assert abs(result.concurrence_generated[index] - c_generated) < 1e-12
            assert abs(result.concurrence_target[index] - c_target) < 1e-12
            assert abs(result.fidelity[index] - fidelity) < 1e-12

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
        for name in ("delta21", "v12") + SCAN_FIGURES:
            assert np.array_equal(getattr(first, name), getattr(second, name))
        assert (first.max_delta_c, first.min_fidelity) == (second.max_delta_c,
                                                           second.min_fidelity)
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


#: the one text every route gives where 1 + v12 cos delta21 falls below the floor
NEVER_FIRES = "1 + v12 cos(delta21) is below 1e-12: the herald never fires"


def _raised(call, *args):
    with pytest.raises(ZeroProbabilityHeraldError) as info:
        call(*args)
    return str(info.value)


def _cli_error(capsys):
    argv = ["state", "--polarizer1", "circular:+", "--polarizer2", "circular:+",
            "--delta21", "3.141592653589793"]
    assert main(argv) == 3
    return capsys.readouterr().err.removeprefix("error: ").removesuffix("\n")


#: equal analyzers (V = 1) at delta21 = pi, by every route that checks the floor
NEVER_FIRES_ROUTES = {
    "heralded_state": lambda capsys: _raised(
        heralded_state, [1.0, 0.0], [1.0, 0.0], np.pi),
    "concurrence_analytic": lambda capsys: _raised(concurrence_analytic, np.pi, 1.0),
    "_figures": lambda capsys: _raised(herald._figures, -1.0 + 0.0j, 1.0, np.pi),
    "delta_c_scan": lambda capsys: _raised(
        delta_c_scan, reference_config(), FAST_QUAD, [np.pi], [1.0]),
    "cli state": _cli_error,
}


@pytest.mark.parametrize("route", NEVER_FIRES_ROUTES)
def test_every_route_says_never_fires_in_one_message(route, capsys):
    assert NEVER_FIRES_ROUTES[route](capsys) == NEVER_FIRES


#: a result record of each kind, built by the function that returns it
RECORDS = {
    "HeraldedOutcome": lambda: heralded_state([1.0, 0.0], [0.6, 0.8], 0.3),
    "UncertaintyReport": lambda: generated_state(
        point_detector_config(Polarizer.linear(0.0), Polarizer.linear(0.3))),
    "ScanResult": lambda: delta_c_scan(reference_config(), FAST_QUAD, [0.0, 0.5],
                                       [0.0, 0.5]),
}


class TestResultRecords:
    @pytest.mark.parametrize("kind", RECORDS)
    def test_records_compare_and_hash(self, kind):
        first, second = RECORDS[kind](), RECORDS[kind]()
        assert first == first and first != second
        assert len({first, second}) == 2

    @pytest.mark.parametrize("kind", RECORDS)
    def test_every_array_is_read_only(self, kind):
        record = RECORDS[kind]()
        arrays = [name for name, value in vars(record).items()
                  if isinstance(value, np.ndarray)]
        assert arrays
        for name in arrays:
            with pytest.raises(ValueError, match="read-only"):
                getattr(record, name).flat[0] = 5.0

    def test_a_record_does_not_freeze_the_callers_array(self):
        state = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        outcome = optics.HeraldedOutcome(state=state, g2=2.0, delta21=0.0, v12=1.0)
        assert state.flags.writeable and not outcome.state.flags.writeable
