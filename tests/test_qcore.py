"""Concurrence, fidelity, and state validation."""

import numpy as np
import pytest

from heraldsim import (
    InvalidInputError,
    concurrence_mixed,
    concurrence_pure,
    fidelity_pure_target,
)
from heraldsim.qcore import validate_density, validate_state

from helpers import (
    BELL_PHI_PLUS,
    BELL_PSI_MINUS,
    BELL_PSI_PLUS,
    haar_unitary,
    pure_to_density,
    random_density,
    random_pure_state,
    werner_state,
    wootters_oracle,
)


class TestConcurrencePure:
    def test_bell_states_are_maximally_entangled(self):
        phi_minus = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0)
        for bell in (BELL_PHI_PLUS, BELL_PSI_PLUS, BELL_PSI_MINUS, phi_minus):
            assert concurrence_pure(bell) == pytest.approx(1.0, abs=1e-12)

    def test_product_states_have_zero_concurrence(self):
        assert concurrence_pure([1.0, 0.0, 0.0, 0.0]) == 0.0
        assert concurrence_pure(np.full(4, 0.5)) == pytest.approx(0.0, abs=1e-12)
        rng = np.random.default_rng(11)
        for _ in range(200):
            left = random_pure_state(rng, dim=2)
            right = random_pure_state(rng, dim=2)
            assert concurrence_pure(np.kron(left, right)) < 1e-12

    def test_phase_family_stays_maximal(self):
        # relative phase between +- and -+ never changes the entanglement
        for delta in np.linspace(-np.pi, np.pi, 17):
            state = np.array([0.0, 1.0, np.exp(-1j * delta), 0.0]) / np.sqrt(2.0)
            assert concurrence_pure(state) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            state = random_pure_state(rng)
            phase = np.exp(1j * rng.uniform(-np.pi, np.pi))
            assert concurrence_pure(phase * state) == pytest.approx(
                concurrence_pure(state), abs=1e-12
            )

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            concurrence_pure([1.0, 0.0, 0.0])
        with pytest.raises(InvalidInputError):
            concurrence_pure(np.array([1.001, 0.0, 0.0, 0.0]))
        with pytest.raises(InvalidInputError):
            concurrence_pure(np.array([np.nan, 0.0, 0.0, 0.0]))


class TestConcurrenceMixed:
    def test_bell_projector(self):
        rho = pure_to_density(BELL_PSI_PLUS)
        assert concurrence_mixed(rho) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_state_is_separable(self):
        assert concurrence_mixed(np.eye(4) / 4.0) == 0.0

    def test_werner_family_closed_form(self):
        # mixing a Bell projector with white noise: max(0, (3 p - 1) / 2)
        for p in (0.0, 0.2, 1.0 / 3.0, 0.4, 0.5, 0.75, 0.9, 1.0):
            expected = max(0.0, (3.0 * p - 1.0) / 2.0)
            assert concurrence_mixed(werner_state(p)) == pytest.approx(
                expected, abs=1e-10
            )

    def test_matches_square_root_oracle_on_full_rank_mixtures(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(300):
            rho = random_density(rng, rank=4)
            worst = max(worst, abs(concurrence_mixed(rho) - wootters_oracle(rho)))
        assert worst < 1e-10

    def test_matches_square_root_oracle_on_rank_deficient_mixtures(self):
        # the square-root oracle itself is only ~1e-8 accurate at a
        # singular input, so the bound here reflects the oracle
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(150):
            rho = random_density(rng, rank=int(rng.integers(1, 4)))
            worst = max(worst, abs(concurrence_mixed(rho) - wootters_oracle(rho)))
        assert worst < 1e-7

    def test_rank_one_matches_pure_formula(self):
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(500):
            state = random_pure_state(rng)
            diff = abs(concurrence_mixed(pure_to_density(state)) - concurrence_pure(state))
            worst = max(worst, diff)
        assert worst < 1e-10

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            rho = random_density(rng)
            local = np.kron(haar_unitary(rng), haar_unitary(rng))
            rotated = local @ rho @ local.conj().T
            # re-symmetrize roundoff before validation
            rotated = 0.5 * (rotated + rotated.conj().T)
            assert concurrence_mixed(rotated) == pytest.approx(
                concurrence_mixed(rho), abs=1e-10
            )

    def test_qubit_swap_invariance(self):
        swap = np.eye(4)[[0, 2, 1, 3]]
        rng = np.random.default_rng(16)
        for _ in range(100):
            rho = random_density(rng)
            assert concurrence_mixed(swap @ rho @ swap.T) == pytest.approx(
                concurrence_mixed(rho), abs=1e-10
            )

    def test_rejects_invalid_density(self):
        with pytest.raises(InvalidInputError):
            concurrence_mixed(np.eye(4))  # trace 4
        skew = np.eye(4, dtype=complex) / 4.0
        skew[0, 1] = 1e-3
        with pytest.raises(InvalidInputError):
            concurrence_mixed(skew)  # not Hermitian
        negative = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(InvalidInputError):
            concurrence_mixed(negative)  # negative eigenvalue


class TestFidelity:
    def test_projector_reaches_one(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            state = random_pure_state(rng)
            assert fidelity_pure_target(pure_to_density(state), state) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_orthogonal_states_give_zero(self):
        rho = pure_to_density(BELL_PSI_PLUS)
        assert fidelity_pure_target(rho, BELL_PSI_MINUS) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_gives_quarter(self):
        rng = np.random.default_rng(18)
        target = random_pure_state(rng)
        assert fidelity_pure_target(np.eye(4) / 4.0, target) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_linear_in_the_density_argument(self):
        rng = np.random.default_rng(19)
        rho1 = random_density(rng)
        rho2 = random_density(rng)
        target = random_pure_state(rng)
        for p in (0.0, 0.3, 0.7, 1.0):
            mixed = p * rho1 + (1.0 - p) * rho2
            expected = p * fidelity_pure_target(rho1, target) + (1.0 - p) * (
                fidelity_pure_target(rho2, target)
            )
            assert fidelity_pure_target(mixed, target) == pytest.approx(
                expected, abs=1e-12
            )

    def test_strictly_below_one_for_noisy_state(self):
        rng = np.random.default_rng(20)
        target = random_pure_state(rng)
        noisy = 0.9 * pure_to_density(target) + 0.1 * np.eye(4) / 4.0
        assert fidelity_pure_target(noisy, target) == pytest.approx(0.925, abs=1e-12)


class TestValidation:
    def test_validate_state_wrong_shape(self):
        with pytest.raises(InvalidInputError):
            validate_state(np.zeros((2, 2)))

    def test_validate_density_wrong_shape(self):
        with pytest.raises(InvalidInputError):
            validate_density(np.eye(3) / 3.0)

    def test_validate_density_accepts_tiny_negative_eigenvalue(self):
        rho = np.diag([1.0 + 1e-11, 0.0, 0.0, -1e-11]).astype(complex)
        validate_density(rho)

    def test_validate_density_non_finite(self):
        bad = np.eye(4, dtype=complex) / 4.0
        bad[2, 2] = np.inf
        with pytest.raises(InvalidInputError):
            validate_density(bad)
