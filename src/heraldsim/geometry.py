"""Emitter pair, detector patches, trap model and the far-field phase.

The emitter pair lies on the lab x axis, emitter B a distance ``d``
along +x from emitter A.  A detection direction is parametrized by the
longitude ``theta`` measured from x inside the xy plane and the
latitude ``chi`` out of that plane; in lab components

    e(theta, chi) = (cos(theta) cos(chi), sin(theta) cos(chi), sin(chi)).

No generality is lost: the fringe phase and the isotropic trap spread
depend only on each direction's projection on the pair axis and on the
products e1 . e2, which a common rotation of pair and detectors keeps.
The solid-angle measure in these coordinates is ``cos(chi) dtheta
dchi``.  A photon reaching direction ``e`` from emitter B instead of
emitter A is retarded by ``k * (R_B - R_A) . e``; for the unperturbed
pair this is ``k * d * cos(theta) * cos(chi)``.  The herald layer
averages the trap displacements of ``R_B - R_A`` in closed form.
"""

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


@dataclass(frozen=True)
class AtomPairLayout:
    """Two trapped emitters a fixed distance apart.

    Attributes
    ----------
    separation : float
        Distance d between the emitters in meters, > 0.
    wavelength : float
        Emission wavelength in meters, > 0.
    """

    separation: float
    wavelength: float

    def __post_init__(self):
        if not (self.separation > 0.0 and np.isfinite(self.separation)):
            raise InvalidInputError("separation must be positive and finite")
        if not (self.wavelength > 0.0 and np.isfinite(self.wavelength)):
            raise InvalidInputError("wavelength must be positive and finite")

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
    (-pi/2, pi/2) when integrated over (``_check_patch_extent``).
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


def _check_patch_extent(patch):
    """Raise ``InvalidInputError`` unless a patch can be averaged over.

    Construction bounds only the center, so a wide patch still gives a
    detection probability; an average needs every edge inside theta in
    [0, pi] and a positive cos(chi) weight.
    """
    half_theta = 0.5 * patch.span_theta
    if patch.theta_center - half_theta < 0.0 or patch.theta_center + half_theta > np.pi:
        raise InvalidInputError("detector patch leaves the valid theta range [0, pi]")
    if not abs(patch.chi_center) + 0.5 * patch.span_chi < np.pi / 2:
        raise InvalidInputError("detector patch leaves the valid chi range (-pi/2, pi/2)")


def _finite_angles(theta, chi):
    theta = np.asarray(theta, dtype=float)
    chi = np.asarray(chi, dtype=float)
    if not (np.isfinite(theta).all() and np.isfinite(chi).all()):
        raise InvalidInputError("theta and chi must be finite")
    return theta, chi


def detection_direction(theta, chi=0.0):
    """Unit direction(s) (cos theta cos chi, sin theta cos chi, sin chi).

    ``theta`` and ``chi`` broadcast; the result has their common shape
    plus a trailing axis of length 3.  Non-finite angles raise
    ``InvalidInputError``.
    """
    theta, chi = _finite_angles(theta, chi)
    cos_chi = np.cos(chi)
    components = np.cos(theta) * cos_chi, np.sin(theta) * cos_chi, np.sin(chi)
    return np.stack(np.broadcast_arrays(*components), axis=-1)


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
