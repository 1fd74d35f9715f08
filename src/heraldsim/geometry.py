"""Emitter pair, detector patches, trap model and their phase average.

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
pair this is ``k * d * cos(theta) * cos(chi)``.  Patches and trap reach
the heralded state only through the weight W and the phase moment
M = sum w exp(-1j delta21) of this phase, m = M / W.  Two routes hand
out ``(W, M, delta21)``, with delta21 the nominal phase between the
patch centers: ``_quadrature_moments`` by quadrature, with the trap
averaged in closed form, for the configured geometry or for detector 2
moved to a whole array of phases at once, and ``_sampled_moments`` by
sampling patches and trap.  The patch nodes never leave this module.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError
from .optics import Polarizer, _count, _finite_real, _real_array

__all__ = [
    "AtomPairLayout",
    "DetectorPatch",
    "QuadratureSpec",
    "TrapModel",
    "detection_direction",
    "farfield_phase",
    "theta_center_for_delta21",
]

#: largest real (n1, n2) block of patch-node pairs ``_phase_moments`` holds
_PAIR_BLOCK_BYTES = 8 * 2**20


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
        for name in ("separation", "wavelength"):
            if not _finite_real(getattr(self, name), name) > 0.0:
                raise InvalidInputError(f"{name} must be positive and finite")

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
        if not 0.0 < _finite_real(self.theta_center, "theta_center") < np.pi:
            raise InvalidInputError("theta_center must lie strictly inside (0, pi)")
        if not (_finite_real(self.span_theta, "span_theta") >= 0.0
                and _finite_real(self.span_chi, "span_chi") >= 0.0):
            raise InvalidInputError("patch spans must be nonnegative and finite")
        if not -np.pi / 2 < _finite_real(self.chi_center, "chi_center") < np.pi / 2:
            raise InvalidInputError("chi_center must lie strictly inside (-pi/2, pi/2)")


@dataclass(frozen=True)
class TrapModel:
    """Isotropic Gaussian position spread of each emitter in its trap.

    ``confinement`` is the per-axis rms displacement in meters; 0 means
    pinned emitters.
    """

    confinement: float

    def __post_init__(self):
        if not _finite_real(self.confinement, "confinement") >= 0.0:
            raise InvalidInputError("confinement must be nonnegative and finite")


def _check_patch_extent(patch, theta_centers):
    """Raise ``InvalidInputError`` unless a patch can be averaged over.

    Construction bounds only the center, so a wide patch still gives a
    detection probability; an average needs every edge inside theta in
    [0, pi] and a positive cos(chi) weight.  The patch is checked at
    each longitude of the array ``theta_centers``.
    """
    half_theta = 0.5 * patch.span_theta
    centers = theta_centers.tolist()  # Python min and max: no numpy reduction per call
    if min(centers) - half_theta < 0.0 or max(centers) + half_theta > np.pi:
        raise InvalidInputError("detector patch leaves the valid theta range [0, pi]")
    if not abs(patch.chi_center) + 0.5 * patch.span_chi < np.pi / 2:
        raise InvalidInputError("detector patch leaves the valid chi range (-pi/2, pi/2)")


def _finite_angles(theta, chi):
    theta, chi = _real_array(theta, "theta"), _real_array(chi, "chi")
    if not (np.isfinite(theta).all() and np.isfinite(chi).all()):
        raise InvalidInputError("theta and chi must be finite")
    return theta, chi


def _directions(theta, chi):
    """Unchecked e(theta, chi) for broadcasting angles, and cos(chi)."""
    cos_chi = np.cos(chi)
    dirs = np.empty(np.broadcast(theta, chi).shape + (3,))
    np.multiply(np.cos(theta), cos_chi, out=dirs[..., 0])
    np.multiply(np.sin(theta), cos_chi, out=dirs[..., 1])
    dirs[..., 2] = np.sin(chi)
    return dirs, cos_chi


def detection_direction(theta, chi=0.0):
    """Unit direction(s) (cos theta cos chi, sin theta cos chi, sin chi).

    ``theta`` and ``chi`` broadcast; the result has their common shape
    plus a trailing axis of length 3.  Angles that are not finite
    integers or floats raise ``InvalidInputError``.
    """
    return _directions(*_finite_angles(theta, chi))[0]


def farfield_phase(layout, theta, chi=0.0):
    """Propagation phase k d cos(theta) cos(chi) of one far-field direction.

    Monotonically decreasing in theta on (0, pi) and even in chi; at
    theta = pi/2 the phase vanishes for every chi while its theta
    sensitivity peaks at k*d per radian, which is why detectors sit
    near the equator with a wide latitude opening.  Angles that are not
    finite integers or floats raise ``InvalidInputError``.
    """
    return _phase(layout, *_finite_angles(theta, chi))


def _phase(layout, theta, chi):
    """Unchecked k d cos(theta) cos(chi) for float angles that broadcast."""
    return layout.wavenumber * layout.separation * np.cos(theta) * np.cos(chi)


def _longitudes(layout, patch1, patch2, delta21=None):
    """Detector-2 longitudes, shape (G,), and the nominal phases delta21 they realize.

    With no ``delta21`` this is the longitude of ``patch2`` itself, G = 1.
    An array of G relative phases moves ``patch2`` along its latitude
    chi2: each longitude solves
    ``k d cos(theta) cos(chi2) = phase(patch1) + delta21``.
    """
    # the patches checked their angles when they were built
    reference = _phase(layout, float(patch1.theta_center), float(patch1.chi_center))
    chi2 = float(patch2.chi_center)
    if delta21 is None:
        theta2 = np.array([float(patch2.theta_center)])
    else:
        if not np.isfinite(delta21).all():
            bad = delta21[~np.isfinite(delta21)][0].item()
            raise InvalidInputError(f"delta21 must be a finite real number, got {bad!r}")
        scale = layout.wavenumber * layout.separation * np.cos(chi2)
        cos_theta = (reference + delta21) / scale
        if not (reach := np.abs(cos_theta)).max() <= 1.0:
            first = np.argmax(~(reach <= 1.0))
            raise InvalidInputError(
                f"delta21 = {delta21[first]:.6g} is out of reach: needs |cos theta| = "
                f"{reach[first]:.6g} > 1 at this separation")
        theta2 = np.arccos(cos_theta)
    return theta2, _phase(layout, theta2, chi2) - reference


def theta_center_for_delta21(layout, reference_patch, chi_center, delta21):
    """Detector-2 longitude realizing a requested relative phase.

    Solves ``k d cos(theta) cos(chi_center) = phase(reference) + delta21``
    for theta; near the equator this moves the detector by roughly
    delta21 / (k d) radians.

    Raises
    ------
    InvalidInputError
        If ``delta21`` is not a finite real number, ``chi_center`` lies
        outside (-pi/2, pi/2), or no longitude reaches the requested
        phase (|cos theta| > 1).
    """
    delta21 = np.array([_finite_real(delta21, "delta21")])
    # only the latitude of detector 2 enters the solve
    detector2 = replace(reference_patch, chi_center=chi_center)
    return float(_longitudes(layout, reference_patch, detector2, delta21)[0][0])


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre node counts per detector patch axis.

    The trap average is exact and takes no nodes.  ``points_trap`` is
    still accepted and validated because the benchmark's design sweep
    (``perfbench/workloads.py``) passes it, but nothing reads it and
    ``doubled`` leaves it as it is.
    """

    points_theta: int = 8
    points_chi: int = 8
    points_trap: int = 8

    def __post_init__(self):
        for name in ("points_theta", "points_chi", "points_trap"):
            object.__setattr__(self, name, _count(getattr(self, name), name))

    def doubled(self):
        """Same spec with the patch node counts doubled (convergence checks)."""
        return replace(
            self, points_theta=2 * self.points_theta, points_chi=2 * self.points_chi
        )


@functools.lru_cache(maxsize=32)
def _reference_rule(count):
    """Gauss-Legendre nodes/weights on [-1, 1]; shared, so read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(count)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _interval_rule(center, width, count):
    """Gauss-Legendre nodes/weights on [center - width/2, center + width/2].

    Zero width collapses to a single unit-weight node at the center
    (point detector); the constant cancels in the trace normalization.
    """
    if width == 0.0:
        return np.array([center]), np.array([1.0])
    ref_nodes, ref_weights = _reference_rule(count)
    return center + 0.5 * width * ref_nodes, 0.5 * width * ref_weights


def _patch_nodes(patch, quad, theta_centers):
    """Directions (theta-major) and measure weights (incl. cos chi) covering a patch.

    The patch is moved to each of the G longitudes of the array
    ``theta_centers``: the directions have shape (G, n, 3), while the
    weights, which do not depend on the longitude, have shape (n,).
    """
    _check_patch_extent(patch, theta_centers)  # bounds every node angle: no per-node checks
    # offsets around 0 added to the centers give the nodes of a rule around
    # each center bit for bit, since 0 + x is x
    offsets, w_theta = _interval_rule(0.0, patch.span_theta, quad.points_theta)
    chi, w_chi = _interval_rule(patch.chi_center, patch.span_chi, quad.points_chi)
    dirs, cos_chi = _directions((theta_centers[:, None] + offsets)[..., None], chi)
    return (dirs.reshape(len(theta_centers), -1, 3),
            np.multiply.outer(w_theta, w_chi * cos_chi).ravel())


def _phase_moments(layout, trap, dirs1, w1, dirs2, w2):
    """Total weight W and coherence M = sum w * exp(-1j * delta21).

    A node pair has relative phase k (d e_x + du) . (e2 - e1), where
    the displacement difference du is normal with per-axis spread
    sigma = sqrt(2) * confinement.  Averaging over du gives each pair
    the factor exp(-(k sigma)**2 |e1 - e2|**2 / 2), with
    |e1 - e2|**2 = 2 (1 - e1 . e2) for unit directions, so M is one
    weighted sum over the pairs of patch nodes.  ``dirs1`` has shape
    (n1, 3) and ``dirs2`` shape (G, n2, 3), G geometries of detector 2
    sharing the weights ``w2``; M has shape (G,).
    """
    wavenumber = layout.wavenumber
    sigma = math.sqrt(2.0) * trap.confinement
    separation = layout.separation
    n1, n2 = len(w1), len(w2)
    sum1 = w1 * np.exp(1j * wavenumber * (separation * dirs1[:, 0]))
    sum2 = w2 * np.exp(-1j * wavenumber * (separation * dirs2[..., 0]))
    # the pair matrix dominates memory: build it in blocks of at most
    # _PAIR_BLOCK_BYTES, whole geometries while they fit and row blocks of
    # one geometry when it alone does not, each in place, and take two real
    # products so that it is never cast to complex
    geometries = min(len(dirs2), max(1, _PAIR_BLOCK_BYTES // (8 * n1 * n2)))
    rows = min(n1, max(1, _PAIR_BLOCK_BYTES // (8 * n2)))
    buffer = np.empty((geometries, rows, n2))  # whole geometries, or rows of one
    vectors = np.empty((len(dirs2), 1, n2), dtype=complex)
    for first in range(0, len(dirs2), geometries):
        group = dirs2[first:first + geometries].transpose(0, 2, 1)
        real = imag = 0.0
        for start in range(0, n1, rows):
            block = slice(start, min(start + rows, n1))
            decay = np.matmul(dirs1[block], group,
                              out=buffer[: len(group), : block.stop - start])
            decay -= 1.0
            decay *= (wavenumber * sigma) ** 2
            np.exp(decay, out=decay)
            real += sum1.real[block] @ decay
            imag += sum1.imag[block] @ decay
        vectors[first:first + geometries, 0] = real + 1j * imag
    # (G, 1, n2) @ (G, n2, 1): one dot product per geometry
    coherence = (vectors @ sum2[..., None])[:, 0, 0]
    return float(w1.sum() * w2.sum()), coherence


def _quadrature_moments(layout, trap, patch1, patch2, quad, delta21=None):
    """(W, M, delta21) by patch quadrature, with the trap averaged in closed form.

    With no ``delta21`` this is the configured geometry: M is one
    complex and delta21 the nominal phase between the patch centers.
    An array of G phases moves detector 2 in longitude to each of them
    (``_longitudes``): M and the realized nominal phases then have shape
    (G,), from one stacked pass with detector 1's nodes built once.
    """
    dirs1, w1 = _patch_nodes(patch1, quad, np.array([patch1.theta_center]))
    theta2, phases = _longitudes(layout, patch1, patch2, delta21)
    dirs2, w2 = _patch_nodes(patch2, quad, theta2)
    total_weight, coherence = _phase_moments(layout, trap, dirs1[0], w1, dirs2, w2)
    if delta21 is None:
        return total_weight, complex(coherence[0]), float(phases[0])
    return total_weight, coherence, phases


def _sampled_moments(layout, trap, patch1, patch2, samples, rng):
    """(W, M, delta21) from uniform patch draws weighted by cos chi and Gaussian trap draws."""
    def draw(patch):
        _check_patch_extent(patch, np.array([patch.theta_center]))
        theta = patch.theta_center + patch.span_theta * (rng.random(samples) - 0.5)
        chi = patch.chi_center + patch.span_chi * (rng.random(samples) - 0.5)
        return _directions(theta, chi)

    (dirs1, cos1), (dirs2, cos2) = draw(patch1), draw(patch2)
    offset = math.sqrt(2.0) * trap.confinement * rng.standard_normal((samples, 3))
    offset[:, 0] += layout.separation
    phase = layout.wavenumber * (np.einsum("ij,ij->i", offset, dirs2)
                                 - np.einsum("ij,ij->i", offset, dirs1))
    weights = cos1 * cos2
    return (float(weights.sum()), complex(np.sum(weights * np.exp(-1j * phase))),
            float(_longitudes(layout, patch1, patch2)[1][0]))
