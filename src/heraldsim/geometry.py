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
the heralded state only through the coherence factor m = M / W of the
weight W and phase moment M = sum w exp(-1j delta21).  Two routes hand
out ``(W, m, delta21)``, W the patch measure and delta21 the nominal
phase between the patch centers: ``_quadrature_moments`` by quadrature
with weights scaled by a power of two, the trap averaged in closed
form, for the configured geometry or for detector 2 moved to a whole
array of phases at once, and ``_sampled_moments`` by sampling: each
patch uniformly in solid angle, uniform in theta and in z = sin chi, and
the trap along the one direction e2 - e1 its phase sees.  By the
half-angle identities a sample costs three ``tan`` calls, on theta1 / 2,
theta2 / 2 and half its phase, and one normal.  It draws each block of
``_SAMPLE_BLOCK`` samples from its own stream of the seed; its caller and
at most ``_SAMPLE_WORKERS - 1`` other threads take the blocks from one
shared cursor, and the block sums go into one running sum in block order,
so a seed gives one result on any number of threads and the memory held
does not grow with the sample, block or core count.  Patch nodes and
measure scale stay in this module.
"""

import functools
import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError
from .optics import Polarizer, _count, _finite_real, _real_array, _record, _stored_real

__all__ = [
    "AtomPairLayout",
    "DetectorPatch",
    "QuadratureSpec",
    "TrapModel",
    "detection_direction",
    "farfield_phase",
    "theta_center_for_delta21",
]

#: largest real block of node-pair columns ``_phase_moments`` holds at once
_PAIR_BLOCK_BYTES = 8 * 2**20
#: samples ``_sampled_moments`` sums over at once
_SAMPLE_BLOCK = 8192
#: most threads ``_sampled_moments`` draws and sums blocks on, its caller included:
#: each holds about 0.46 MB, its buffer of seven block rows, so a call holds under
#: 1.5 MB however many cores the machine has (1.4 MB at 1M samples, 64 cores)
_SAMPLE_WORKERS = 3


@dataclass(frozen=True)
class AtomPairLayout:
    """Two trapped emitters ``separation`` = d meters apart, emitting at ``wavelength``.

    Both lengths are in meters and > 0, and the largest phase 2 k d must be a finite float.
    """

    separation: float
    wavelength: float

    def __post_init__(self):
        for name in ("separation", "wavelength"):
            if not _stored_real(self, name) > 0.0:
                raise InvalidInputError(f"{name} must be positive and finite")
        if not math.isfinite(2.0 * self.wavenumber * self.separation):  # bounds every phase
            raise InvalidInputError("separation / wavelength is too large: the phase "
                                    "2 k d between the emitters overflows the float range")

    @property
    def wavenumber(self):
        """2 pi / wavelength in rad/m."""
        return 2.0 * np.pi / self.wavelength


@dataclass(frozen=True)
class DetectorPatch:
    """Finite detector surface on the far-field sphere plus its analyzer.

    ``span_theta`` and ``span_chi`` are the full angular widths of the
    patch around its center; zero widths describe an ideal point
    detector.  A patch is checked once, when it is built: its numbers
    are stored as Python floats, its edges lie in theta in [0, pi] and
    chi in (-pi/2, pi/2), and ``polarizer`` is a ``Polarizer``.
    """

    theta_center: float
    span_theta: float
    span_chi: float
    polarizer: Polarizer
    chi_center: float = 0.0

    def __post_init__(self):
        if not 0.0 < (theta := _stored_real(self, "theta_center")) < math.pi:
            raise InvalidInputError("theta_center must lie strictly inside (0, pi)")
        if not ((span_theta := _stored_real(self, "span_theta")) >= 0.0
                and (span_chi := _stored_real(self, "span_chi")) >= 0.0):
            raise InvalidInputError("patch spans must be nonnegative and finite")
        # implied by the extent check below, but names chi_center in theta_center_for_delta21
        if not -math.pi / 2 < (chi := _stored_real(self, "chi_center")) < math.pi / 2:
            raise InvalidInputError("chi_center must lie strictly inside (-pi/2, pi/2)")
        if theta - 0.5 * span_theta < 0.0 or theta + 0.5 * span_theta > math.pi:
            raise InvalidInputError("detector patch leaves the valid theta range [0, pi]")
        if not abs(chi) + 0.5 * span_chi < math.pi / 2:
            raise InvalidInputError("detector patch leaves the valid chi range (-pi/2, pi/2)")
        _record(self.polarizer, Polarizer, "polarizer")


@dataclass(frozen=True)
class TrapModel:
    """Isotropic Gaussian position spread of each emitter in its trap.

    ``confinement`` is the per-axis rms displacement in meters; 0 means
    pinned emitters.
    """

    confinement: float

    def __post_init__(self):
        if not _stored_real(self, "confinement") >= 0.0:
            raise InvalidInputError("confinement must be nonnegative and finite")


def _trap_spread(layout, trap):
    """k sigma, sigma = sqrt(2) confinement; 2 (k sigma)**2 bounds the decay exponents."""
    k_sigma = layout.wavenumber * (math.sqrt(2.0) * trap.confinement)
    if not math.isfinite(2.0 * k_sigma * k_sigma):
        raise InvalidInputError("confinement is too large: the trap decay exponent "
                                "(k sigma)**2 overflows the float range")
    return k_sigma


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
    _record(layout, AtomPairLayout, "layout")
    return _phase(layout, *_finite_angles(theta, chi))


def _phase(layout, theta, chi):
    """Unchecked k d cos(theta) cos(chi) for float angles that broadcast."""
    return layout.wavenumber * layout.separation * np.cos(theta) * np.cos(chi)


def _longitudes(layout, patch1, patch2, delta21=None):
    """Detector-2 longitudes, shape (G,), and the nominal phases delta21 they realize.

    With no ``delta21`` this is the longitude of ``patch2`` itself, G = 1.
    An array of G relative phases moves ``patch2`` along its latitude
    chi2: each longitude solves
    ``k d cos(theta) cos(chi2) = phase(patch1) + delta21``.  The moved
    patch is the only one not checked when it was built, so its theta
    edges are checked here: they lie in [0, pi] exactly when
    |cos theta| <= cos(span_theta / 2), which asks |cos theta| <= 1 too.
    """
    reference = _phase(layout, patch1.theta_center, patch1.chi_center)
    chi2 = patch2.chi_center
    if delta21 is None:
        theta2 = np.array([patch2.theta_center])
    else:
        if not np.isfinite(delta21).all():
            bad = delta21[~np.isfinite(delta21)][0].item()
            raise InvalidInputError(f"delta21 must be a finite real number, got {bad!r}")
        scale = layout.wavenumber * layout.separation * np.cos(chi2)
        cos_theta = (reference + delta21) / scale
        if not (reach := np.abs(cos_theta)).max() <= math.cos(0.5 * patch2.span_theta):
            if not reach.max() <= 1.0:
                first = np.argmax(~(reach <= 1.0))
                raise InvalidInputError(
                    f"delta21 = {delta21[first]:.6g} is out of reach: needs |cos theta| = "
                    f"{reach[first]:.6g} > 1 at this separation")
            raise InvalidInputError("detector patch leaves the valid theta range [0, pi]")
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
        If ``layout`` or ``reference_patch`` is not of its record type,
        ``delta21`` is not a finite real number, ``chi_center`` lies
        outside (-pi/2, pi/2), or no longitude reaches the requested
        phase (|cos theta| > 1).
    """
    _record(layout, AtomPairLayout, "layout")
    _record(reference_patch, DetectorPatch, "reference_patch")
    delta21 = np.array([_finite_real(delta21, "delta21")])
    # only the latitude of detector 2 enters the solve: a point detector there
    # fits at any latitude that the reference's own spans might not
    detector2 = replace(reference_patch, chi_center=chi_center, span_theta=0.0, span_chi=0.0)
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


def _interval_rule(width, count):
    """Gauss-Legendre offsets, weights / 2**e and e on an interval of ``width``.

    e = frexp(width)[1], so the weights are normal floats at any width.  Zero width is
    one unit-weight node at the center (point detector), e = 0: the axis counts as 1.
    """
    if width == 0.0:
        return np.zeros(1), np.ones(1), 0
    ref_nodes, ref_weights = _reference_rule(count)
    mantissa, exponent = math.frexp(width)
    return 0.5 * width * ref_nodes, 0.5 * mantissa * ref_weights, exponent


def _patch_nodes(patch, quad, theta_centers):
    """Directions (theta-major), measure weights (incl. cos chi) / 2**e and e of a patch.

    The patch is moved to each of the G longitudes of the array
    ``theta_centers``: the directions have shape (G, n, 3), while the
    weights, which do not depend on the longitude, have shape (n,).
    The patch fits on the sphere at each of them (``DetectorPatch`` and
    ``_longitudes`` check that), so no node angle is checked here.
    """
    # center + offset gives the nodes of a rule around each center bit for bit
    offsets, w_theta, e_theta = _interval_rule(patch.span_theta, quad.points_theta)
    chi_offsets, w_chi, e_chi = _interval_rule(patch.span_chi, quad.points_chi)
    dirs, cos_chi = _directions(np.add.outer(theta_centers, offsets)[..., None],
                                patch.chi_center + chi_offsets)
    return (dirs.reshape(len(theta_centers), -1, 3),
            np.multiply.outer(w_theta, w_chi * cos_chi).ravel(), e_theta + e_chi)


def _phase_moments(layout, trap, dirs1, w1, dirs2, w2):
    """Total weight W and coherence M = sum w * exp(-1j * delta21).

    A node pair has relative phase k (d e_x + du) . (e2 - e1), where
    the displacement difference du is normal with per-axis spread
    sigma = sqrt(2) * confinement.  Averaging over du gives each pair
    the factor exp(-(k sigma)**2 |e1 - e2|**2 / 2), with
    |e1 - e2|**2 = 2 (1 - e1 . e2) for unit directions, so M is one
    weighted sum over the pairs of patch nodes.  ``dirs1`` has shape
    (n1, 3) and ``dirs2`` shape (G, n2, 3), G geometries of detector 2
    sharing the weights ``w2``; M has shape (G,).  Their G * n2 nodes
    are the columns of one real (n1, G * n2) pair matrix.
    """
    wavenumber = layout.wavenumber
    k_sigma = _trap_spread(layout, trap)
    separation = layout.separation
    n1, n2 = len(w1), len(w2)
    sum1 = w1 * np.exp(1j * wavenumber * (separation * dirs1[:, 0]))
    sum2 = w2 * np.exp(-1j * wavenumber * (separation * dirs2[..., 0]))
    # the pair matrix dominates memory: build it in column blocks of at most
    # _PAIR_BLOCK_BYTES, each in place in one buffer (a contiguous view of it,
    # the partial last block included), and take two real products so that
    # it is never cast to complex
    columns = dirs2.reshape(-1, 3).T
    total = columns.shape[1]
    width = min(total, max(1, _PAIR_BLOCK_BYTES // (8 * n1)))
    buffer = np.empty(n1 * width)
    vectors = np.empty(total, dtype=complex)
    for start in range(0, total, width):
        block = slice(start, min(start + width, total))
        decay = np.matmul(dirs1, columns[:, block],
                          out=buffer[: n1 * (block.stop - start)].reshape(n1, -1))
        decay -= 1.0
        decay *= k_sigma ** 2
        np.exp(decay, out=decay)
        np.matmul(sum1.real, decay, out=vectors.real[block])
        np.matmul(sum1.imag, decay, out=vectors.imag[block])
    # (G, 1, n2) @ (G, n2, 1): one dot product per geometry
    coherence = (vectors.reshape(len(dirs2), 1, n2) @ sum2[..., None])[:, 0, 0]
    return float(w1.sum() * w2.sum()), coherence


def _quadrature_moments(layout, trap, patch1, patch2, quad, delta21=None):
    """(W, m, delta21) by patch quadrature, with the trap averaged in closed form.

    With no ``delta21`` this is the configured geometry: m is one complex and delta21
    the nominal phase between the patch centers.  An array of G phases moves detector 2
    in longitude to each of them (``_longitudes``): m and the realized nominal phases
    then have shape (G,), from one stacked pass with detector 1's nodes built once.
    W, the patch measure, is summed over scaled weights and is 0.0 where it underflows.
    """
    dirs1, w1, exponent1 = _patch_nodes(patch1, quad, np.array([patch1.theta_center]))
    theta2, phases = _longitudes(layout, patch1, patch2, delta21)
    dirs2, w2, exponent2 = _patch_nodes(patch2, quad, theta2)
    total_weight, coherence = _phase_moments(layout, trap, dirs1[0], w1, dirs2, w2)
    measure = math.ldexp(total_weight, exponent1 + exponent2)
    if delta21 is None:
        return measure, complex(coherence[0]) / total_weight, float(phases[0])
    return measure, coherence / total_weight, phases


def _zone(patch):
    """Center and width of z = sin chi over a patch, and its measure.

    Solid angle on a latitude zone is uniform in z (Archimedes' hat-box
    theorem): z lies in [sin(chi - s/2), sin(chi + s/2)], of center
    sin(chi) cos(s/2) and width 2 cos(chi) sin(s/2), and the patch measure
    is span_theta times that width.  A zero span counts as in the
    quadrature: a zero theta span as 1, a zero chi span as cos(chi).
    """
    half = 0.5 * patch.span_chi
    center = math.sin(patch.chi_center) * math.cos(half)
    width = 2.0 * math.cos(patch.chi_center) * math.sin(half)
    measure = ((patch.span_theta or 1.0)
               * (width if patch.span_chi else math.cos(patch.chi_center)))
    return center, width, measure


def _cos_latitude(z, scratch):
    """cos chi = sqrt((1 - z)(1 + z)) over z = sin chi in place, clamped at 0: no edge gives nan."""
    np.add(z, 1.0, out=scratch)
    np.subtract(1.0, z, out=z)
    z *= scratch
    np.maximum(z, 0.0, out=z)
    return np.sqrt(z, out=z)


def _sampled_moments(layout, trap, patch1, patch2, samples, seed):
    """(W, m, delta21) from directions uniform in solid angle and Gaussian trap draws.

    Sample j draws directions e1, e2 uniformly in solid angle over the two
    patches: theta uniform over its span and z = sin chi uniform over the
    patch's zone (``_zone``), so cos chi = sqrt((1 - z)(1 + z)) and every
    sample weighs 1.  The displacement difference enters the phase only
    through its projection on e2 - e1, which for an isotropic normal of
    spread sigma = sqrt(2) * confinement is |e2 - e1| sigma n, n one
    standard normal.  Then m is the plain mean of exp(-1j p),
    p = k (d (e2 - e1)_x + sigma |e2 - e1| n), and W the exact patch
    measure A1 A2.

    A sample costs three ``tan`` calls, by the half-angle identities.  The
    longitude rows hold theta / 2 (halving is exact), and with
    t = tan(theta / 2) and q = cos chi / (1 + t**2) a direction has
    cos(theta) cos(chi) = 2 q - cos chi and sin(theta) cos(chi) = 2 t q.
    With T = tan(p / 2) and D = 1 / (1 + T**2), cos p = 2 D - 1 and
    sin p = 2 T D, so a block of ``size`` samples sums
    2 sum D - size and 2 sum T D.

    Block b of ``_SAMPLE_BLOCK`` samples draws from its own PCG64 stream,
    ``SeedSequence(seed, spawn_key=(b,))``, the same as
    ``default_rng(seed).spawn(blocks)[b]``: its (4, size) uniform rows
    theta1, z1, theta2, z2, then its (size,) normals.  This thread and
    others, ``_SAMPLE_WORKERS`` at most and no more than the cores or the
    blocks, take blocks from one shared cursor, and each draws and sums a
    block in place in its own buffer of seven rows.  The block sums are
    added to one running sum in block order, a block finished out of turn
    waiting for its turn, so the result depends on ``(seed, samples)``
    alone.  After the first exception on any thread no block is taken, and
    this thread joins the others and raises it.
    """
    k_sigma = _trap_spread(layout, trap)
    kd = layout.wavenumber * layout.separation
    (z_center1, z_width1, measure1), (z_center2, z_width2, measure2) = map(
        _zone, (patch1, patch2))
    center, span = np.array([
        (0.5 * patch1.theta_center, 0.5 * patch1.span_theta), (z_center1, z_width1),
        (0.5 * patch2.theta_center, 0.5 * patch2.span_theta), (z_center2, z_width2)]).T[..., None]
    blocks = -(-samples // _SAMPLE_BLOCK)
    cursor, lock = iter(range(blocks)), threading.Lock()
    early, failures = {}, []
    turn, real, imag = 0, 0.0, 0.0

    def work():
        nonlocal turn, real, imag
        buffer = np.empty(7 * min(samples, _SAMPLE_BLOCK))
        sums = None
        try:
            while True:
                with lock:
                    if sums is not None:  # add it, and the blocks held after it, in order
                        early[block] = sums
                        while turn in early:
                            cos_sum, sin_sum = early.pop(turn)
                            real += cos_sum
                            imag -= sin_sum
                            turn += 1
                    if failures or (block := next(cursor, None)) is None:
                        return
                size = min(_SAMPLE_BLOCK, samples - block * _SAMPLE_BLOCK)
                rows = buffer[: 7 * size].reshape(7, size)
                draws, (half1, z1, half2, z2, n, dz, scratch) = rows[:4], rows
                rng = np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence(seed, spawn_key=(block,))))
                rng.random(out=draws)
                rng.standard_normal(out=n)
                # center + span * (u - 0.5), in place, bit for bit
                draws -= 0.5
                draws *= span
                draws += center
                np.subtract(z2, z1, out=dz)
                for half, z in ((half1, z1), (half2, z2)):
                    _cos_latitude(z, scratch)
                    np.tan(half, out=half)
                    np.multiply(half, half, out=scratch)
                    scratch += 1.0
                    np.divide(z, scratch, out=scratch)  # q
                    half *= scratch  # t q = sin(theta) cos(chi) / 2
                    scratch += scratch
                    z -= scratch  # cos chi - 2 q = -cos(theta) cos(chi)
                dx = np.subtract(z1, z2, out=z1)
                dy = np.subtract(half2, half1, out=half2)
                dy += dy
                phase = np.multiply(dx, dx, out=scratch)
                dy *= dy
                phase += dy
                dz *= dz
                phase += dz
                np.sqrt(phase, out=phase)
                phase *= n
                phase *= 0.5 * k_sigma
                dx *= 0.5 * kd
                phase += dx  # p / 2, bit for bit
                np.tan(phase, out=phase)
                cos_sq = np.multiply(phase, phase, out=dx)
                cos_sq += 1.0
                np.divide(1.0, cos_sq, out=cos_sq)  # D = cos(p / 2)**2
                phase *= cos_sq
                sums = 2.0 * cos_sq.sum() - size, 2.0 * phase.sum()
        except BaseException as error:  # Ctrl-C too
            failures.append(error)

    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    started = []
    try:
        for _ in range(min(_SAMPLE_WORKERS, cores, blocks) - 1):
            (thread := threading.Thread(target=work)).start()
            started.append(thread)
        work()
    except BaseException as error:  # a thread that would not start, or Ctrl-C meanwhile
        failures.append(error)
    finally:
        for thread in started:
            thread.join()
    if failures:
        raise failures[0]
    return (measure1 * measure2, complex(real, imag) / samples,
            float(_longitudes(layout, patch1, patch2)[1][0]))
