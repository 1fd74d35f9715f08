"""Polarization analyzers and the state heralded by a two-photon coincidence.

An analyzer is its unit Jones vector in the circular basis of the
emitted photons: component 0 multiplies the sigma+ photon of the
|e> -> |-> decay, component 1 the sigma- photon of |e> -> |+>.  A
linear analyzer at angle ``alpha`` is (exp(-i alpha), exp(+i alpha)) /
sqrt(2); circular analyzers are the basis vectors themselves;
``Polarizer.general`` normalizes any nonzero pair of components.

A coincidence of one photon in each analyzed detection channel, with
relative propagation phase ``delta21`` between the channels, projects
the two emitters onto

    (1 + e)(em2 em1 |++> + ep2 ep1 |-->)
        + (ep2 em1 e + em2 ep1) |+->
        + (ep2 em1 + em2 ep1 e) |-+>,    e = exp(-1j * delta21),

where ``epi``/``emi`` are the components of analyzer ``i``.  The
squared norm of this unnormalized vector is the coincidence weight
``g2 = 2 (1 + v12 cos delta21)`` with ``v12 = |<jones1, jones2>|**2``.
"""

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ZeroProbabilityHeraldError
from .qcore import _as_complex_array, _unit_vector

__all__ = [
    "JONES_NORM_ATOL",
    "MIN_HERALD_WEIGHT",
    "Polarizer",
    "HeraldedOutcome",
    "polarizer_to_jones",
    "visibility",
    "heralded_state",
    "concurrence_analytic",
    "g2",
]

#: largest tolerated deviation of a Jones-vector norm from 1
JONES_NORM_ATOL = 1e-9

#: coincidence weights below this count as "herald never fires"
MIN_HERALD_WEIGHT = 1e-12

#: magnitudes below this count as zero when fixing the global phase
_PHASE_PIVOT_ATOL = 1e-10


@dataclass(frozen=True)
class Polarizer:
    """Analyzer setting of one detection channel: its unit Jones vector.

    ``jones`` is (eps_plus, eps_minus) as Python complex numbers.
    ``Polarizer(jones)`` requires norm 1 within ``JONES_NORM_ATOL`` and
    never renormalizes; of the constructors only ``general`` normalizes.
    """

    jones: tuple

    def __post_init__(self):
        vec = _unit_vector(self.jones, 2, JONES_NORM_ATOL, "polarizer jones")
        object.__setattr__(self, "jones", tuple(vec.tolist()))

    @classmethod
    def linear(cls, angle):
        """Linear analyzer ``angle`` radians (a finite real) from the reference axis."""
        # abs(nan) <= max is False, and the comparison is exact for huge ints
        if (isinstance(angle, bool) or not isinstance(angle, numbers.Real)
                or not abs(angle) <= sys.float_info.max):
            raise InvalidInputError(f"linear angle must be a finite real, got {angle!r}")
        phase = np.exp(-1j * float(angle))
        return cls(tuple((np.array([phase, np.conj(phase)]) / np.sqrt(2.0)).tolist()))

    @classmethod
    def circular(cls, handedness):
        """Circular analyzer passing sigma+ (integer +1) or sigma- (-1) photons."""
        if (isinstance(handedness, bool) or not isinstance(handedness, numbers.Integral)
                or handedness not in (1, -1)):
            raise InvalidInputError(f"handedness must be int +1 or -1, got {handedness!r}")
        return cls((1.0 + 0.0j, 0.0j) if handedness == 1 else (0.0j, 1.0 + 0.0j))

    @classmethod
    def general(cls, eps_plus, eps_minus):
        """Arbitrary analyzer; the only constructor that normalizes its components."""
        vec = _as_complex_array((complex(eps_plus), complex(eps_minus)), (2,), "analyzer")
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise InvalidInputError("general analyzer must be nonzero")
        return cls(tuple((vec / norm).tolist()))


def polarizer_to_jones(polarizer):
    """Unit Jones vector (eps_plus, eps_minus) of an analyzer setting as an array."""
    return np.array(polarizer.jones)


def _validated_jones(jones, name):
    return _unit_vector(jones, 2, JONES_NORM_ATOL, name)


def visibility(jones1, jones2):
    """Squared analyzer overlap |<jones1, jones2>|^2, the fringe visibility.

    Equal analyzers give 1, orthogonal ones 0; linear analyzers at
    relative angle ``alpha`` give cos(alpha)**2.
    """
    e1 = _validated_jones(jones1, "jones1")
    e2 = _validated_jones(jones2, "jones2")
    return float(abs(np.vdot(e1, e2)) ** 2)


def _component_vectors(e1, e2):
    """Static and phase-carrying parts s, t of the unnormalized herald.

    The unnormalized heralded vector is ``s + t * exp(-1j * delta21)``
    in the (++, +-, -+, --) basis.
    """
    ep1, em1 = e1[0], e1[1]
    ep2, em2 = e2[0], e2[1]
    s = np.array([em2 * em1, em2 * ep1, ep2 * em1, ep2 * ep1])
    t = np.array([em2 * em1, ep2 * em1, em2 * ep1, ep2 * ep1])
    return s, t


def _fix_global_phase(state):
    """Rotate the first non-negligible amplitude to the real nonnegative axis."""
    for amp in state:
        if abs(amp) > _PHASE_PIVOT_ATOL:
            return state * (np.conj(amp) / abs(amp))
    return state


@dataclass(frozen=True)
class HeraldedOutcome:
    """State conditioned on a coincidence, with its weight and settings.

    Attributes
    ----------
    state : ndarray
        Normalized amplitudes on (++, +-, -+, --); the first
        non-negligible amplitude is real nonnegative.
    g2 : float
        Unnormalized coincidence weight 2 (1 + v12 cos delta21).
    delta21 : float
        Relative propagation phase between the detection channels.
    v12 : float
        Squared analyzer overlap of the two channels.
    """

    state: np.ndarray
    g2: float
    delta21: float
    v12: float


def heralded_state(jones1, jones2, delta21):
    """Two-emitter state heralded by one photon in each detection channel.

    Parameters
    ----------
    jones1, jones2 : array_like
        Unit Jones vectors of the two analyzers in the circular basis.
    delta21 : float
        Relative propagation phase (channel 2 minus channel 1) in rad.

    Returns
    -------
    HeraldedOutcome

    Raises
    ------
    ZeroProbabilityHeraldError
        If the coincidence weight falls below ``MIN_HERALD_WEIGHT``
        (equal analyzers with destructive phase, e.g. v12 = 1 and
        delta21 = pi).
    InvalidInputError
        If an analyzer is not a finite unit vector or ``delta21`` is
        not finite.
    """
    e1 = _validated_jones(jones1, "jones1")
    e2 = _validated_jones(jones2, "jones2")
    delta21 = _validated_phase(delta21)
    s, t = _component_vectors(e1, e2)
    amps = s + t * np.exp(-1j * delta21)
    weight = float(np.real(np.vdot(amps, amps)))
    if weight < MIN_HERALD_WEIGHT:
        raise ZeroProbabilityHeraldError(
            f"coincidence weight {weight:.3g} below {MIN_HERALD_WEIGHT:g}; "
            "the herald never fires for this configuration"
        )
    state = _fix_global_phase(amps / np.sqrt(weight))
    v12 = float(abs(np.vdot(e1, e2)) ** 2)
    return HeraldedOutcome(state=state, g2=weight, delta21=float(delta21), v12=v12)


def _validated_phase(delta21):
    # math.isfinite: the surface table calls this once per cell
    if not math.isfinite(delta21):
        raise InvalidInputError(f"delta21 must be finite, got {delta21!r}")
    return delta21


def _validated_v12(v12):
    v = float(v12)
    if not math.isfinite(v) or v < -1e-12 or v > 1.0 + 1e-12:
        raise InvalidInputError(f"v12 must lie in [0, 1], got {v!r}")
    return min(max(v, 0.0), 1.0)


def concurrence_analytic(delta21, v12):
    """Closed-form concurrence of the heralded state.

    C = (1 - v12) / (1 + v12 cos delta21).  Extremes over the phase:
    (1 - v12) / (1 + v12) at cos delta21 = +1, and 1 at
    cos delta21 = -1 for any v12 < 1.

    Raises
    ------
    ZeroProbabilityHeraldError
        If 1 + v12 cos delta21 falls below ``MIN_HERALD_WEIGHT``; the
        herald never fires there, so no conditional state exists.
    InvalidInputError
        If v12 lies outside [0, 1] or delta21 is not finite.
    """
    delta21 = _validated_phase(delta21)
    v = _validated_v12(v12)
    weight = 1.0 + v * np.cos(delta21)
    if weight < MIN_HERALD_WEIGHT:
        raise ZeroProbabilityHeraldError(
            f"1 + v12 cos(delta21) = {weight:.3g} below {MIN_HERALD_WEIGHT:g}"
        )
    return (1.0 - v) / weight


def g2(delta21, v12):
    """Coincidence weight 2 (1 + v12 cos delta21) of the herald.

    This is the unnormalized second-order correlation of the two
    detection channels; it vanishes at v12 = 1, delta21 = pi.
    """
    delta21 = _validated_phase(delta21)
    v = _validated_v12(v12)
    return 2.0 * (1.0 + v * np.cos(delta21))
