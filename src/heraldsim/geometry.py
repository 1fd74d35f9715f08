"""Emitter pair, detector patches, trap model and the far-field phase.

A detection direction is parametrized by the longitude ``theta``
measured from the emitter axis inside the reference plane and the
latitude ``chi`` out of that plane:

    e(theta, chi) = cos(theta) cos(chi) * axis
                    + sin(theta) cos(chi) * n1 + sin(chi) * n2,

with (axis, n1, n2) a right-handed orthonormal frame.  The solid-angle
measure in these coordinates is ``cos(chi) dtheta dchi``.  A photon
reaching direction ``e`` from emitter B instead of emitter A is
retarded by ``k * (R_B - R_A) . e``; for the unperturbed pair this is
``k * d * cos(theta) * cos(chi)``.  The herald layer averages the trap
displacements of ``R_B - R_A`` in closed form.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .optics import Polarizer

__all__ = [
    "AtomPairLayout",
    "DetectorPatch",
    "TrapModel",
    "detection_direction",
    "farfield_phase",
]


def _unit_axis(axis):
    vec = np.asarray(axis, dtype=float)
    if vec.shape != (3,):
        raise InvalidInputError("axis must be a 3-vector")
    norm = np.linalg.norm(vec)
    if not np.isfinite(norm) or norm == 0.0:
        raise InvalidInputError("axis must be a nonzero finite 3-vector")
    return tuple(vec / norm)


@dataclass(frozen=True)
class AtomPairLayout:
    """Two trapped emitters a fixed distance apart.

    Attributes
    ----------
    separation : float
        Distance d between the emitters in meters, > 0.
    wavelength : float
        Emission wavelength in meters, > 0.
    axis : tuple
        Unit vector from emitter A to emitter B (normalized on
        construction); defaults to the lab x axis.
    """

    separation: float
    wavelength: float
    axis: tuple = (1.0, 0.0, 0.0)

    def __post_init__(self):
        if not (self.separation > 0.0 and np.isfinite(self.separation)):
            raise InvalidInputError("separation must be positive and finite")
        if not (self.wavelength > 0.0 and np.isfinite(self.wavelength)):
            raise InvalidInputError("wavelength must be positive and finite")
        object.__setattr__(self, "axis", _unit_axis(self.axis))

    @property
    def wavenumber(self):
        """2 pi / wavelength in rad/m."""
        return 2.0 * np.pi / self.wavelength


@dataclass(frozen=True)
class DetectorPatch:
    """Finite detector surface on the far-field sphere plus its analyzer.

    ``span_theta`` and ``span_chi`` are the full angular widths of the
    patch around its center; zero widths describe an ideal point
    detector.  The patch must stay inside theta in [0, pi] and chi in
    (-pi/2, pi/2) when integrated over.
    """

    theta_center: float
    span_theta: float
    span_chi: float
    polarizer: Polarizer
    chi_center: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.theta_center < np.pi:
            raise InvalidInputError("theta_center must lie strictly inside (0, pi)")
        if not (0.0 <= self.span_theta < np.inf and 0.0 <= self.span_chi < np.inf):
            raise InvalidInputError("patch spans must be nonnegative and finite")
        if not -np.pi / 2 < self.chi_center < np.pi / 2:
            raise InvalidInputError("chi_center must lie strictly inside (-pi/2, pi/2)")


@dataclass(frozen=True)
class TrapModel:
    """Isotropic Gaussian position spread of each emitter in its trap.

    ``confinement`` is the per-axis rms displacement in meters; 0 means
    pinned emitters.
    """

    confinement: float

    def __post_init__(self):
        if self.confinement < 0.0 or not np.isfinite(self.confinement):
            raise InvalidInputError("confinement must be nonnegative and finite")


@functools.lru_cache(maxsize=32)
def _frame(axis):
    """Right-handed orthonormal frame (axis, n1, n2); cached per axis tuple, read-only."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    ref = np.array([0.0, 1.0, 0.0]) if abs(a[0]) >= 0.9 else np.array([1.0, 0.0, 0.0])
    n1 = ref - np.dot(ref, a) * a
    n1 /= np.linalg.norm(n1)
    n2 = np.cross(a, n1)
    for vec in (a, n1, n2):
        vec.flags.writeable = False
    return a, n1, n2


def _finite_angles(theta, chi):
    theta = np.asarray(theta, dtype=float)
    chi = np.asarray(chi, dtype=float)
    if not (np.isfinite(theta).all() and np.isfinite(chi).all()):
        raise InvalidInputError("theta and chi must be finite")
    return theta, chi


def detection_direction(axis, theta, chi=0.0):
    """Unit direction(s) at longitude ``theta`` and latitude ``chi``.

    ``theta`` and ``chi`` broadcast; the result has their common shape
    plus a trailing axis of length 3.  Non-finite angles raise
    ``InvalidInputError``.
    """
    a, n1, n2 = _frame(tuple(axis))
    theta, chi = _finite_angles(theta, chi)
    cos_chi = np.cos(chi)
    # summed in place: one (..., 3) array at a time on large sample sets
    directions = np.multiply.outer(np.cos(theta) * cos_chi, a)
    directions += np.multiply.outer(np.sin(theta) * cos_chi, n1)
    directions += np.multiply.outer(np.sin(chi), n2)
    return directions


def farfield_phase(layout, theta, chi=0.0):
    """Propagation phase k d cos(theta) cos(chi) of one far-field direction.

    Monotonically decreasing in theta on (0, pi) and even in chi; at
    theta = pi/2 the phase vanishes for every chi while its theta
    sensitivity peaks at k*d per radian, which is why detectors sit
    near the equator with a wide latitude opening.  Non-finite angles
    raise ``InvalidInputError``.
    """
    theta, chi = _finite_angles(theta, chi)
    return layout.wavenumber * layout.separation * np.cos(theta) * np.cos(chi)
