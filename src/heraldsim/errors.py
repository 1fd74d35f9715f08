"""Exception types shared across the package."""

__all__ = [
    "HeraldSimError",
    "InvalidInputError",
    "ZeroProbabilityHeraldError",
    "NumericalFailureError",
    "ScenarioError",
]


class HeraldSimError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(HeraldSimError, ValueError):
    """An argument violates a documented precondition.

    Raised for unnormalized state vectors, non-Hermitian density
    matrices, out-of-range visibilities, malformed grids, and similar.
    Inputs are rejected rather than silently repaired so that upstream
    bugs stay visible.
    """


class ZeroProbabilityHeraldError(HeraldSimError):
    """The requested two-photon coincidence never occurs.

    The heralded state is conditioned on a joint detection event; when
    the coincidence rate vanishes there is no post-measurement state
    and no conditional concurrence.  Callers get this error instead of
    a number.
    """


class NumericalFailureError(HeraldSimError):
    """A numerical routine left its validity tolerances.

    Examples: a Wootters spectrum whose squares do not reproduce
    tr(rho spin_flip(rho)) within tolerance, or a quadrature result
    that is not a valid density matrix.
    """


class ScenarioError(InvalidInputError):
    """A scenario document is malformed (unknown key, missing key, bad value)."""
