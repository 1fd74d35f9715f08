"""Two-qubit state arithmetic: validation and concurrence.

Qubits are the two stable lower levels |+> and |-> of a three-level
emitter.  Pure two-qubit states are length-4 complex arrays ordered
(++, +-, -+, --); density matrices are 4x4 in the same basis.

Inputs are validated, never silently renormalized: a state whose norm
is off by more than ``STATE_NORM_ATOL`` is rejected so that upstream
normalization bugs surface here instead of propagating.
"""

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .optics import _complex_entries, _unit_vector

__all__ = [
    "BASIS_LABELS",
    "concurrence_pure",
    "concurrence_mixed",
    "validate_state",
    "validate_density",
]

#: basis order of all two-qubit vectors and matrices
BASIS_LABELS = ("++", "+-", "-+", "--")

#: largest tolerated deviation of a pure-state norm from 1
STATE_NORM_ATOL = 1e-6

#: largest tolerated entrywise deviation from Hermiticity / unit trace
HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12

#: density-matrix eigenvalues may undershoot zero by at most this much
EIGENVALUE_FLOOR = -1e-10

#: the concurrence spectrum must reproduce tr(rho rho~) within this
SPECTRUM_CONSISTENCY_TOL = 1e-9

# sigma_y (x) sigma_y in the (++, +-, -+, --) basis
_SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=complex,
)


def validate_state(state):
    """Check that ``state`` is a normalized two-qubit vector and return it.

    Parameters
    ----------
    state : array_like
        Length-4 complex vector in the (++, +-, -+, --) basis.

    Returns
    -------
    ndarray
        The validated vector as a complex array.

    Raises
    ------
    InvalidInputError
        If the shape is wrong, an entry is not a finite number (a bool or
        a string is not one), or the norm deviates from 1 by more than
        ``STATE_NORM_ATOL``.
    """
    return np.array(_unit_vector(state, 4, STATE_NORM_ATOL, "state"))


def validate_density(rho):
    """Check that ``rho`` is a valid 4x4 density matrix and return it.

    Hermiticity and unit trace are required within ``HERMITIAN_ATOL``
    and ``TRACE_ATOL``; eigenvalues may undershoot zero by at most
    ``-EIGENVALUE_FLOOR`` (roundoff slack).

    Raises
    ------
    InvalidInputError
        If an entry is not a finite number (a bool or a string is not
        one) or any of the density-matrix conditions is violated.
    """
    mat = np.array(_complex_entries(rho, (4, 4), "rho")).reshape(4, 4)
    herm_dev = np.max(np.abs(mat - mat.conj().T))
    if herm_dev > HERMITIAN_ATOL:
        raise InvalidInputError(
            f"rho is not Hermitian: max deviation {herm_dev:.3g} > {HERMITIAN_ATOL:g}"
        )
    trace_dev = abs(np.trace(mat) - 1.0)
    if trace_dev > TRACE_ATOL:
        raise InvalidInputError(
            f"rho trace deviates from 1 by {trace_dev:.3g} > {TRACE_ATOL:g}"
        )
    evals = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
    if evals.min() < EIGENVALUE_FLOOR:
        raise InvalidInputError(
            f"rho has negative eigenvalue {evals.min():.3g} below {EIGENVALUE_FLOOR:g}"
        )
    return mat


def concurrence_pure(state):
    """Concurrence of a normalized two-qubit pure state.

    For amplitudes (a, b, c, d) in the (++, +-, -+, --) basis the
    concurrence is ``2 |a d - b c|``, the overlap with the spin-flipped
    state.  It is 0 for product states and 1 for maximally entangled
    ones.

    Parameters
    ----------
    state : array_like
        Length-4 complex vector, normalized within ``STATE_NORM_ATOL``.

    Returns
    -------
    float
        Concurrence in [0, 1].
    """
    # four amplitudes: Python complex arithmetic, no array
    a, b, c, d = _unit_vector(state, 4, STATE_NORM_ATOL, "state")
    return 2.0 * abs(a * d - b * c)


def concurrence_mixed(rho):
    """Concurrence of a two-qubit density matrix (Wootters formula).

    The concurrence is ``max(0, l1 - l2 - l3 - l4)`` with l1 >= ... >=
    l4 the square roots of the eigenvalues of ``rho @ spin_flip(rho)``,
    where ``spin_flip(rho) = (sy x sy) conj(rho) (sy x sy)``.  The
    square roots are evaluated as the singular values of the symmetric
    matrix ``X.T (sy x sy) X`` with ``rho = X X^dag``: identical
    spectrum, but stable for near-pure inputs where square roots of
    eigensolver noise would otherwise dominate the small l_i.

    Parameters
    ----------
    rho : array_like
        4x4 density matrix (Hermitian, unit trace, positive within
        roundoff).

    Returns
    -------
    float
        Concurrence in [0, 1].

    Raises
    ------
    InvalidInputError
        If ``rho`` is not a valid density matrix.
    NumericalFailureError
        If the computed spectrum fails to reproduce the trace of
        ``rho @ spin_flip(rho)`` within ``SPECTRUM_CONSISTENCY_TOL``.
    """
    mat = validate_density(rho)
    evals, basis = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    # clamp roundoff negatives before the square root
    factor = basis * np.sqrt(np.clip(evals, 0.0, None))
    lam = np.linalg.svd(factor.T @ _SPIN_FLIP @ factor, compute_uv=False)
    flipped = _SPIN_FLIP @ mat.conj() @ _SPIN_FLIP
    trace_product = float(np.real(np.trace(mat @ flipped)))
    if abs(np.sum(lam**2) - trace_product) > SPECTRUM_CONSISTENCY_TOL:
        raise NumericalFailureError(
            "concurrence spectrum is inconsistent with tr(rho spin_flip(rho)) "
            f"by {abs(np.sum(lam ** 2) - trace_product):.3g}"
        )
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
