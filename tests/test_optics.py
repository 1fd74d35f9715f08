"""Analyzers, channel visibility, and the heralded two-emitter state."""

from fractions import Fraction

import numpy as np
import pytest

from heraldsim import (
    InvalidInputError,
    Polarizer,
    ZeroProbabilityHeraldError,
    concurrence_analytic,
    concurrence_mixed,
    concurrence_pure,
    g2,
    heralded_state,
    polarizer_to_jones,
    visibility,
)

from helpers import heralded_state_via_operators, pure_to_density, random_jones

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestPolarizers:
    def test_linear_at_zero(self):
        jones = polarizer_to_jones(Polarizer.linear(0.0))
        assert np.allclose(jones, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_linear_angle_encodes_conjugate_phases(self):
        angle = 0.3
        jones = polarizer_to_jones(Polarizer.linear(angle))
        assert jones[0] == pytest.approx(np.exp(-1j * angle) * INV_SQRT2, abs=1e-15)
        assert jones[1] == pytest.approx(np.exp(+1j * angle) * INV_SQRT2, abs=1e-15)

    def test_circular_basis_vectors(self):
        assert np.array_equal(polarizer_to_jones(Polarizer.circular(+1)), [1.0, 0.0])
        assert np.array_equal(polarizer_to_jones(Polarizer.circular(-1)), [0.0, 1.0])

    def test_equal_vectors_are_equal_analyzers(self):
        assert Polarizer.linear(0.0) == Polarizer.general(1, 1)
        assert Polarizer.circular(+1) == Polarizer.general(1, 0)
        assert Polarizer.circular(-1) == Polarizer((0.0, 1.0))

    def test_general_is_normalized(self):
        jones = polarizer_to_jones(Polarizer.general(2.0, 2.0j))
        assert np.allclose(jones, [INV_SQRT2, 1j * INV_SQRT2], atol=1e-15)
        assert np.linalg.norm(jones) == pytest.approx(1.0, abs=1e-12)

    def test_general_takes_any_finite_nonzero_pair(self):
        # a power-of-two pair is the ordinary pair to the bit
        assert Polarizer.general(2.0**-1074, 2.0**-1074) == Polarizer.general(1, 1)
        assert Polarizer.general(2.0**1023, 0.0) == Polarizer.general(1, 0)
        assert Polarizer.general(5e-324, 0.0) == Polarizer.circular(+1)
        for pair, expected in (((3e-170, 4e-170), (0.6, 0.8)),
                               ((1e308, 1e308), (INV_SQRT2, INV_SQRT2)),
                               ((1e308 + 1e308j, -1e308 - 1e308j), (0.5 + 0.5j, -0.5 - 0.5j)),
                               ((3 * 2.0**-1074, complex(0.0, 4 * 2.0**-1074)), (0.6, 0.8j))):
            jones = polarizer_to_jones(Polarizer.general(*pair))
            assert np.allclose(jones, expected, rtol=0.0, atol=1e-15)
            assert np.linalg.norm(jones) == pytest.approx(1.0, abs=1e-15)

    def test_invalid_settings_rejected(self):
        for jones in ((1.0,), (1.0, 0.0, 0.0), (1.0, 1.0), (0.6, 0.8 + 1e-6),
                      (np.nan, 1.0), (1.0, complex(0.0, np.inf))):
            with pytest.raises(InvalidInputError):
                Polarizer(jones)
        for handedness in (0, 1.7, -1.9, 1.0, "1", True, None):
            with pytest.raises(InvalidInputError):
                Polarizer.circular(handedness)
        for angle in ("0.3", True, None, 0.3j, 10**400):
            with pytest.raises(InvalidInputError):
                Polarizer.linear(angle)
        with pytest.raises(InvalidInputError):
            Polarizer.general(0.0, 0.0)
        for components in (("x", 1), (None, 1), ([1, 2], 1), (object(), 1)):
            with pytest.raises(InvalidInputError):
                Polarizer.general(*components)
            with pytest.raises(InvalidInputError):
                Polarizer(components)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInputError):
                Polarizer.linear(bad)
            with pytest.raises(InvalidInputError):
                Polarizer.general(bad, 1.0)
            with pytest.raises(InvalidInputError):
                Polarizer.general(1.0, complex(0.0, bad))


class TestVisibility:
    def test_equal_analyzers(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            jones = random_jones(rng)
            assert visibility(jones, jones) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_analyzers(self):
        plus = polarizer_to_jones(Polarizer.circular(+1))
        minus = polarizer_to_jones(Polarizer.circular(-1))
        assert visibility(plus, minus) == 0.0
        h = polarizer_to_jones(Polarizer.linear(0.0))
        v = polarizer_to_jones(Polarizer.linear(np.pi / 2))
        assert visibility(h, v) < 1e-12

    def test_linear_pair_follows_squared_cosine(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            base = rng.uniform(-np.pi, np.pi)
            offset = rng.uniform(-np.pi, np.pi)
            value = visibility(
                polarizer_to_jones(Polarizer.linear(base)),
                polarizer_to_jones(Polarizer.linear(base + offset)),
            )
            assert value == pytest.approx(np.cos(offset) ** 2, abs=1e-12)

    def test_complement_identity(self):
        # overlap and cross terms of two unit vectors partition unity
        rng = np.random.default_rng(33)
        for _ in range(1000):
            e1 = random_jones(rng)
            e2 = random_jones(rng)
            cross = abs(e2[0] * e1[1] - e2[1] * e1[0]) ** 2
            assert visibility(e1, e2) + cross == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidInputError):
            visibility(np.array([1.0, 1.0]), np.array([1.0, 0.0]))

    def test_never_exceeds_one(self):
        # equal linear analyzers round |<e, e>|^2 to 1 + 2**-51 about half the time
        rng = np.random.default_rng(34)
        for angle in rng.uniform(-np.pi, np.pi, 2000):
            jones = Polarizer.linear(angle).jones
            assert visibility(jones, jones) <= 1.0
            assert heralded_state(jones, jones, 0.0).v12 <= 1.0
        assert visibility(Polarizer.linear(0.0).jones, Polarizer.linear(0.0).jones) == 1.0

    def test_values_below_one_keep_their_bits(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            e1, e2 = random_jones(rng), random_jones(rng)
            raw = float(abs(np.vdot(e1, e2)) ** 2)
            assert visibility(e1, e2) == heralded_state(e1, e2, 0.3).v12 == raw


class TestHeraldedState:
    def test_orthogonal_circular_analyzers_give_bell_family(self):
        plus = polarizer_to_jones(Polarizer.circular(+1))
        minus = polarizer_to_jones(Polarizer.circular(-1))
        for delta in np.linspace(-np.pi, np.pi, 9):
            out = heralded_state(plus, minus, delta)
            expected = np.array([0.0, 1.0, np.exp(-1j * delta), 0.0]) * INV_SQRT2
            assert np.allclose(out.state, expected, atol=1e-12)
            assert out.v12 == 0.0
            assert out.g2 == pytest.approx(2.0, abs=1e-12)
            assert concurrence_pure(out.state) == pytest.approx(1.0, abs=1e-12)

    def test_parallel_circular_analyzers_give_product_state(self):
        plus = polarizer_to_jones(Polarizer.circular(+1))
        out = heralded_state(plus, plus, 0.4)
        assert np.allclose(out.state, [0.0, 0.0, 0.0, 1.0], atol=1e-12)
        assert out.g2 == pytest.approx(2.0 * (1.0 + np.cos(0.4)), abs=1e-12)
        assert concurrence_pure(out.state) == pytest.approx(0.0, abs=1e-12)

    def test_destructive_phase_raises(self):
        h = polarizer_to_jones(Polarizer.linear(0.0))
        with pytest.raises(ZeroProbabilityHeraldError):
            heralded_state(h, h, np.pi)
        plus = polarizer_to_jones(Polarizer.circular(+1))
        with pytest.raises(ZeroProbabilityHeraldError):
            heralded_state(plus, plus, np.pi)
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidInputError):
                heralded_state(h, plus, bad)

    def test_fires_exactly_where_the_closed_form_does(self):
        # 1 + cos(delta21) = 9.99978e-13 lies just below the floor, while half the
        # amplitudes' squared norm rounds to 1.0000008e-12, just above it
        h = polarizer_to_jones(Polarizer.linear(0.0))
        for call in (lambda: heralded_state(h, h, 3.1415912393756513),
                     lambda: concurrence_analytic(3.1415912393756513, 1.0)):
            with pytest.raises(ZeroProbabilityHeraldError):
                call()

    def test_near_destructive_draws_fire_with_concurrence_analytic(self):
        # nearly equal analyzers near delta21 = pi put 1 + v12 cos delta21 near the floor
        rng = np.random.default_rng(37)
        outcomes = set()
        for _ in range(2000):
            alpha = rng.uniform(-np.pi, np.pi)
            e1 = polarizer_to_jones(Polarizer.linear(alpha))
            e2 = polarizer_to_jones(Polarizer.linear(alpha + rng.uniform(-1.5e-6, 1.5e-6)))
            delta = np.pi * rng.choice([-1.0, 1.0]) + rng.uniform(-2e-6, 2e-6)
            try:
                out = heralded_state(e1, e2, delta)
            except ZeroProbabilityHeraldError:
                with pytest.raises(ZeroProbabilityHeraldError):
                    concurrence_analytic(delta, visibility(e1, e2))
                outcomes.add("raised")
                continue
            concurrence_analytic(delta, out.v12)
            assert out.g2 == g2(delta, out.v12)
            outcomes.add("fired")
        assert outcomes == {"raised", "fired"}

    def test_outcome_invariants_on_random_analyzers(self):
        rng = np.random.default_rng(34)
        checked = 0
        while checked < 500:
            e1 = random_jones(rng)
            e2 = random_jones(rng)
            delta = rng.uniform(-np.pi, np.pi)
            try:
                out = heralded_state(e1, e2, delta)
            except ZeroProbabilityHeraldError:
                continue
            checked += 1
            assert np.linalg.norm(out.state) == pytest.approx(1.0, abs=1e-12)
            # one closed form: the outcome's weight is g2's to the bit, never above its bound
            assert out.g2 == g2(delta, out.v12)
            assert out.g2 <= 2.0 * (1.0 + out.v12)
            # phase convention: first non-negligible amplitude real >= 0
            pivot = out.state[np.abs(out.state) > 1e-10][0]
            assert abs(pivot.imag) < 1e-12
            assert pivot.real > 0.0

    def test_concurrence_matches_analytic_form(self):
        rng = np.random.default_rng(35)
        checked = 0
        while checked < 500:
            e1 = random_jones(rng)
            e2 = random_jones(rng)
            delta = rng.uniform(-np.pi, np.pi)
            try:
                out = heralded_state(e1, e2, delta)
            except ZeroProbabilityHeraldError:
                continue
            checked += 1
            expected = concurrence_analytic(delta, out.v12)
            assert concurrence_pure(out.state) == pytest.approx(expected, abs=1e-10)


class TestOperatorRoute:
    def test_matches_closed_form_on_random_analyzers(self):
        rng = np.random.default_rng(36)
        checked = 0
        while checked < 500:
            e1 = random_jones(rng)
            e2 = random_jones(rng)
            phase1 = rng.uniform(-np.pi, np.pi)
            phase2 = rng.uniform(-np.pi, np.pi)
            try:
                via_ops = heralded_state_via_operators(e1, e2, phase1, phase2)
            except ZeroProbabilityHeraldError:
                continue
            checked += 1
            direct = heralded_state(e1, e2, phase2 - phase1)
            assert np.allclose(via_ops.state, direct.state, atol=1e-12)
            assert via_ops.g2 == pytest.approx(direct.g2, abs=1e-12)

    def test_detection_order_is_irrelevant(self):
        # the two lowering channels commute, so swapping which analyzer
        # is labeled 1 while swapping the phases reproduces the state
        rng = np.random.default_rng(37)
        for _ in range(200):
            e1 = random_jones(rng)
            e2 = random_jones(rng)
            phase1 = rng.uniform(-np.pi, np.pi)
            phase2 = rng.uniform(-np.pi, np.pi)
            try:
                forward = heralded_state_via_operators(e1, e2, phase1, phase2)
                swapped = heralded_state_via_operators(e2, e1, phase2, phase1)
            except ZeroProbabilityHeraldError:
                continue
            assert np.allclose(forward.state, swapped.state, atol=1e-12)
            assert forward.g2 == pytest.approx(swapped.g2, abs=1e-12)

    def test_mixed_basis_example(self):
        # sigma+ analyzer in channel 1, horizontal in channel 2
        plus = polarizer_to_jones(Polarizer.circular(+1))
        h = polarizer_to_jones(Polarizer.linear(0.0))
        out = heralded_state_via_operators(plus, h, 0.0, 0.0)
        # channel 1 sends the heralded emitter to |->, channel 2 is
        # balanced, and both emitters can feed either channel
        expected = np.array([0.0, 1.0, 1.0, 2.0]) / np.sqrt(6.0)
        assert np.allclose(out.state, expected, atol=1e-12)
        assert out.v12 == pytest.approx(0.5, abs=1e-12)


class TestAnalyticForms:
    def test_concurrence_known_values(self):
        assert concurrence_analytic(np.pi, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert concurrence_analytic(0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert concurrence_analytic(np.pi / 2, 0.75) == pytest.approx(0.25, abs=1e-12)
        assert concurrence_analytic(1.2, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_concurrence_extrema_over_phase(self):
        for v12 in np.linspace(0.0, 0.999, 40):
            values = [concurrence_analytic(d, v12) for d in np.linspace(-np.pi, np.pi, 81)]
            assert min(values) == pytest.approx((1.0 - v12) / (1.0 + v12), abs=1e-12)
            assert max(values) == pytest.approx(1.0, abs=1e-12)
            assert all(0.0 <= c <= 1.0 + 1e-12 for c in values)

    def test_concurrence_rejects_bad_visibility(self):
        with pytest.raises(InvalidInputError):
            concurrence_analytic(0.0, -0.1)
        with pytest.raises(InvalidInputError):
            concurrence_analytic(0.0, 1.1)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInputError):
                concurrence_analytic(bad, 0.5)

    @pytest.mark.parametrize("call", [
        lambda: concurrence_analytic(0.0, "0.5"),
        lambda: concurrence_analytic("0", 0.5),
        lambda: concurrence_analytic(True, 0.5),
        lambda: concurrence_analytic(0.0, False),
        lambda: concurrence_analytic(None, 0.5),
        lambda: concurrence_analytic(0.5j, 0.5),
        lambda: concurrence_analytic(10**400, 0.5),
        lambda: concurrence_analytic(Fraction(10**400), 0.5),
        lambda: concurrence_analytic(0.0, np.array([0.5])),
        lambda: g2(0.0, "0.5"),
        lambda: g2("0", 0.5),
        lambda: g2(np.bool_(True), 0.5),
        lambda: Polarizer.linear("0.3"),
        lambda: Polarizer.linear(False),
    ], ids=["v12-str", "phase-str", "phase-bool", "v12-bool", "phase-none",
            "phase-complex", "phase-huge-int", "phase-huge-fraction", "v12-array",
            "g2-v12-str", "g2-phase-str", "g2-numpy-bool", "angle-str", "angle-bool"])
    def test_closed_forms_take_only_finite_reals(self, call):
        with pytest.raises(InvalidInputError, match="must be a finite real number"):
            call()

    def test_closed_forms_take_numpy_and_python_reals(self):
        expected = concurrence_analytic(0.0, 0.5)
        assert concurrence_analytic(np.int64(0), np.float32(0.5)) == expected
        assert concurrence_analytic(0, np.float64(0.5)) == expected
        assert concurrence_analytic(Fraction(0), Fraction(1, 2)) == expected
        assert g2(np.float64(0.0), 1) == g2(0.0, 1.0)
        assert Polarizer.linear(np.int64(0)) == Polarizer.linear(0.0)

    def test_concurrence_singular_point_raises(self):
        with pytest.raises(ZeroProbabilityHeraldError):
            concurrence_analytic(np.pi, 1.0)

    def test_g2_known_values(self):
        assert g2(0.0, 1.0) == pytest.approx(4.0, abs=1e-12)
        assert g2(np.pi, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert g2(np.pi / 2, 0.8) == pytest.approx(2.0, abs=1e-12)
        for delta in np.linspace(-np.pi, np.pi, 21):
            for v12 in np.linspace(0.0, 1.0, 11):
                value = g2(delta, v12)
                assert -1e-12 <= value <= 4.0 + 1e-12
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidInputError):
                g2(bad, 0.5)

    def test_malus_analog(self):
        # linear analyzers offset by alpha at quarter-period phase:
        # the heralded concurrence follows sin^2(alpha)
        for alpha in np.linspace(0.0, np.pi / 2, 100):
            value = concurrence_analytic(np.pi / 2, np.cos(alpha) ** 2)
            assert value == pytest.approx(np.sin(alpha) ** 2, abs=1e-12)

    def test_malus_analog_from_full_state(self):
        h = polarizer_to_jones(Polarizer.linear(0.0))
        for alpha in np.linspace(0.05, np.pi / 2, 25):
            probe = polarizer_to_jones(Polarizer.linear(alpha))
            out = heralded_state(h, probe, np.pi / 2)
            rho = pure_to_density(out.state)
            assert concurrence_mixed(rho) == pytest.approx(
                np.sin(alpha) ** 2, abs=1e-10
            )
