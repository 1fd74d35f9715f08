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

import cmath
import math
import numbers
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

#: the herald never fires where half its coincidence weight,
#: 1 + v12 cos delta21, falls below this
MIN_HERALD_WEIGHT = 1e-12

#: magnitudes below this count as zero when fixing the global phase
_PHASE_PIVOT_ATOL = 1e-10


def _finite_real(value, name):
    """``value`` as a float if it is a finite real number, not a bool or a string."""
    if type(value) is float and math.isfinite(value):  # the common case, kept cheap
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int or a fraction beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise InvalidInputError(f"{name} must be a finite real number, got {value!r}")


def _count(value, name, minimum=1):
    """``value`` as an int if it is an integer (numpy's too) >= ``minimum``, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidInputError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _real_array(values, name):
    """``values`` as a float array if it holds integers or floats, not bools or strings."""
    if (array := np.asarray(values)).dtype.kind not in "iuf":
        raise InvalidInputError(f"{name} must be finite integers or floats, got {array.dtype}")
    return array.astype(float, copy=False)


def _check_v12_grid(values):
    """Raise unless every entry of the nonempty array ``values`` lies in [0, 1]; nan does not."""
    if not (0.0 <= values.min() and values.max() <= 1.0):
        raise InvalidInputError("v12 grid must lie in [0, 1]")


def _read_only_arrays(record):
    """``__post_init__`` of a result record: its arrays become read-only views."""
    for name, value in vars(record).items():
        if isinstance(value, np.ndarray):
            object.__setattr__(record, name, value.view())
            getattr(record, name).flags.writeable = False


@dataclass(frozen=True)
class Polarizer:
    """Analyzer setting of one detection channel: its unit Jones vector.

    ``jones`` is (eps_plus, eps_minus) as Python complex numbers.
    ``Polarizer(jones)`` requires norm 1 within ``JONES_NORM_ATOL`` and
    stores the vector divided by its norm, so every analyzer is a unit
    vector to round-off; ``general`` accepts any nonzero pair.
    """

    jones: tuple

    def __post_init__(self):
        vec = _unit_vector(self.jones, 2, JONES_NORM_ATOL, "polarizer jones")
        object.__setattr__(self, "jones", tuple((vec / math.hypot(*abs(vec))).tolist()))

    @classmethod
    def linear(cls, angle):
        """Linear analyzer ``angle`` radians (a finite real) from the reference axis."""
        phase = np.exp(-1j * _finite_real(angle, "linear angle"))
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
        """Arbitrary analyzer from any nonzero pair of finite components."""
        parts = _as_complex_array((eps_plus, eps_minus), (2,), "analyzer").view(float)
        peak = np.abs(parts).max()
        if peak == 0.0:
            raise InvalidInputError("general analyzer must be nonzero")
        # rescale by a power of two first: exact, so a pair in the normal range keeps
        # its bits, and the norm of a subnormal, tiny or huge pair neither
        # underflows nor overflows
        vec = np.ldexp(parts, -math.frexp(peak)[1]).view(complex)
        return cls(tuple((vec / np.linalg.norm(vec)).tolist()))


def polarizer_to_jones(polarizer):
    """Unit Jones vector (eps_plus, eps_minus) of an analyzer setting as an array."""
    return np.array(polarizer.jones)


def visibility(jones1, jones2):
    """Squared analyzer overlap |<jones1, jones2>|^2, the fringe visibility.

    Equal analyzers give 1, orthogonal ones 0; linear analyzers at
    relative angle ``alpha`` give cos(alpha)**2.
    """
    e1 = _unit_vector(jones1, 2, JONES_NORM_ATOL, "jones1")
    e2 = _unit_vector(jones2, 2, JONES_NORM_ATOL, "jones2")
    return _overlap(e1, e2)


def _overlap(e1, e2):
    """|<e1, e2>|^2 of two unit vectors, capped at 1: equal analyzers may
    otherwise round to 1 + 2**-51.  Values below 1 keep numpy's bits."""
    return min(float(abs(np.vdot(e1, e2)) ** 2), 1.0)


def _component_vectors(e1, e2):
    """Static and phase-carrying parts s, t of the unnormalized herald.

    The unnormalized heralded vector is ``s + t * exp(-1j * delta21)``
    in the (++, +-, -+, --) basis.  Both are 4-tuples of products of the
    components of ``e1`` and ``e2``, Python complex numbers for lists.
    """
    (ep1, em1), (ep2, em2) = e1, e2
    s = (em2 * em1, em2 * ep1, ep2 * em1, ep2 * ep1)
    return s, (s[0], s[2], s[1], s[3])


def _fix_global_phase(state):
    """Rotate the first non-negligible amplitude to the real nonnegative axis."""
    for amp in state:
        if abs(amp) > _PHASE_PIVOT_ATOL:
            turn = amp.conjugate() / abs(amp)
            return [c * turn for c in state]
    return state


@dataclass(frozen=True, eq=False)
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
    __post_init__ = _read_only_arrays


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
        ``g2`` is the closed form 2 (1 + v12 cos delta21), as ``g2`` returns it;
        the amplitudes' norm only normalizes the state.

    Raises
    ------
    ZeroProbabilityHeraldError
        If half that weight is below ``MIN_HERALD_WEIGHT``, exactly where
        ``concurrence_analytic`` raises (e.g. equal analyzers, delta21 = pi).
    InvalidInputError
        If an analyzer is not a finite unit vector or ``delta21`` is
        not finite.
    """
    e1 = _unit_vector(jones1, 2, JONES_NORM_ATOL, "jones1")
    e2 = _unit_vector(jones2, 2, JONES_NORM_ATOL, "jones2")
    delta21 = _finite_real(delta21, "delta21")
    # v12 feeds every generated-state figure: keep numpy's overlap to the last bit
    v12 = _overlap(e1, e2)
    weight, _ = _concurrence_closed_form(delta21, v12)
    _check_fires(weight)
    # four amplitudes: Python complex arithmetic beats numpy's per-call cost
    turn = cmath.exp(-1j * delta21)
    amps = [a + b * turn for a, b in zip(*_component_vectors(e1.tolist(), e2.tolist()))]
    norm = math.hypot(*map(abs, amps))
    state = np.array(_fix_global_phase([a / norm for a in amps]))
    return HeraldedOutcome(state=state, g2=2.0 * weight, delta21=delta21, v12=v12)


def _validated_v12(v12):
    v = _finite_real(v12, "v12")
    if v < -1e-12 or v > 1.0 + 1e-12:
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
        If an argument is not a finite real number (a bool or a string
        is not one) or v12 lies outside [0, 1].
    """
    weight, value = _concurrence_closed_form(
        _finite_real(delta21, "delta21"), _validated_v12(v12))
    _check_fires(weight)
    return float(value)


def _check_fires(weight):
    """Raise the never-fires error if ``weight`` = 1 + v12 cos delta21 is below the floor."""
    if weight < MIN_HERALD_WEIGHT:
        raise ZeroProbabilityHeraldError(
            f"1 + v12 cos(delta21) is below {MIN_HERALD_WEIGHT:g}: the herald never fires")


def _concurrence_closed_form(delta21, v12):
    """The one evaluation of the weight w = 1 + v12 cos delta21, unchecked, and of
    (1 - v12) / w, nan where w is below ``MIN_HERALD_WEIGHT``: the herald never fires there."""
    weight = 1.0 + v12 * np.cos(delta21)
    if not isinstance(weight, np.ndarray):  # a scalar skips numpy's masked divide
        return weight, (1.0 - v12) / weight if weight >= MIN_HERALD_WEIGHT else np.nan
    return weight, np.divide(1.0 - v12, weight, out=np.full(weight.shape, np.nan),
                             where=weight >= MIN_HERALD_WEIGHT)


def g2(delta21, v12):
    """Coincidence weight 2 (1 + v12 cos delta21) of the herald.

    This is the unnormalized second-order correlation of the two
    detection channels; it vanishes at v12 = 1, delta21 = pi.
    """
    weight, _ = _concurrence_closed_form(_finite_real(delta21, "delta21"), _validated_v12(v12))
    return 2.0 * weight
