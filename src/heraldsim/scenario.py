"""Scenario documents: JSON files describing one experiment end to end.

Units are in the key names (``separation_um``, ``dark_count_rate_hz``).
One field table, ``_SCENARIO``, gives each key's kind and default and
drives all parsing.  Numbers and counts take the library's own rules,
``optics._finite_real`` (a finite real number, not a bool or a string)
and ``optics._count`` (an integer >= 1, not a bool), and their errors
become ``ScenarioError``s that start with the key's dotted path.  A
``Scenario`` keeps the validated document verbatim, so load -> save ->
load is exact, and builds the SI-unit physics objects, which hold the
range checks; their errors become ``ScenarioError``s that start with
the section path.
"""

import contextlib
import copy
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ScenarioError
from .geometry import AtomPairLayout, DetectorPatch, QuadratureSpec, TrapModel
from .herald import ExperimentConfig
from .optics import Polarizer, _count, _finite_real, _record

__all__ = ["Scenario", "load_scenario", "save_scenario", "polarizer_from_values"]

# A table row is (key, kind, default).  A kind parses the value at
# ``where``, its dotted path in the document, and returns it as the
# document keeps it; REQUIRED is the default of a key the document must give.
# A nested field table as the kind makes the value a section of its own.
REQUIRED = object()


def _enum(*choices):
    def parse(value, where):
        if value not in choices:
            raise ScenarioError(f"{where} must be one of {list(choices)}")
        return value
    return parse


def _numbers(length=None):
    """List of finite numbers: exactly ``length`` of them, or at least one."""
    def parse(value, where):
        if not (isinstance(value, list) and value
                and (length is None or len(value) == length)):
            count = "one or more" if length is None else length
            raise ScenarioError(f"{where} must be a list of {count} numbers")
        return [_finite_real(item, where) for item in value]
    return parse


@contextlib.contextmanager
def _scenario_errors(prefix=""):
    """Re-raise the library's ``InvalidInputError``s as ``ScenarioError``s, ``prefix`` first."""
    try:
        yield
    except ScenarioError:
        raise
    except InvalidInputError as exc:
        raise ScenarioError(prefix + str(exc)) from exc


def _section(raw, fields, where):
    """Validated copy of the object ``raw``, with the defaults of ``fields``."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where} must be an object")
    doc = {}
    for key, kind, default in fields:
        value = raw.get(key, default)
        if value is REQUIRED:
            raise ScenarioError(f"missing key {key!r} in {where}")
        if value is not None or default is not None:  # an optional section may be null
            path = f"{where}.{key}"
            with _scenario_errors():  # optics' number and count rules name the path
                doc[key] = (_section(value, kind, path) if isinstance(kind, tuple)
                            else kind(value, path))
    unknown = sorted(set(raw) - {key for key, _, _ in fields})
    if unknown:
        raise ScenarioError(f"unknown key(s) {unknown} in {where}")
    return doc


#: analyzer kinds and the fields each one takes besides ``kind``
_POLARIZERS = {
    "linear": (("angle_rad", _finite_real, REQUIRED),),
    "circular": (("handedness", _enum("+", "-"), REQUIRED),),
    "general": (("eps_plus", _numbers(2), REQUIRED),
                ("eps_minus", _numbers(2), REQUIRED)),
}


def _polarizer(value, where):
    """Analyzer document; its ``kind`` picks the table of the other fields."""
    kind = value.get("kind") if isinstance(value, dict) else None
    fields = _POLARIZERS.get(kind, ()) if isinstance(kind, str) else ()
    return _section(value, (("kind", _enum(*_POLARIZERS), REQUIRED),) + fields, where)


def _build_polarizer(doc, where):
    with _scenario_errors(f"{where}: "):
        if doc["kind"] == "linear":
            return Polarizer.linear(doc["angle_rad"])
        if doc["kind"] == "circular":
            return Polarizer.circular(1 if doc["handedness"] == "+" else -1)
        return Polarizer.general(complex(*doc["eps_plus"]), complex(*doc["eps_minus"]))


_DETECTOR = (
    ("theta_center_rad", _finite_real, REQUIRED),
    ("chi_center_rad", _finite_real, 0.0),
    ("span_theta_mrad", _finite_real, REQUIRED),
    ("span_chi_rad", _finite_real, REQUIRED),
    ("polarizer", _polarizer, REQUIRED),
)

_SCENARIO = (
    ("separation_um", _finite_real, REQUIRED),
    ("wavelength_nm", _finite_real, REQUIRED),
    ("confinement_nm", _finite_real, REQUIRED),
    ("repetition_rate_mhz", _finite_real, REQUIRED),
    ("detector_efficiency", _finite_real, REQUIRED),
    ("dark_count_rate_hz", _finite_real, REQUIRED),
    ("coincidence_window_ns", _finite_real, REQUIRED),
    ("detector1", _DETECTOR, REQUIRED),
    ("detector2", _DETECTOR, REQUIRED),
    ("quadrature", (
        ("points_theta", _count, 8),
        ("points_chi", _count, 8),
    ), {}),
    ("scan", (
        ("delta21_start_rad", _finite_real, REQUIRED),
        ("delta21_stop_rad", _finite_real, REQUIRED),
        ("delta21_points", _count, REQUIRED),
        ("v12_values", _numbers(), REQUIRED),
    ), None),
)


def polarizer_from_values(kind, values, where="polarizer"):
    """Analyzer whose fields share ``values`` evenly (general: [a, b], [c, d])."""
    keys = [key for key, _, _ in _POLARIZERS.get(kind, ())]
    size, extra = divmod(len(values), len(keys) or 1)
    if keys and (extra or not size):
        raise ScenarioError(f"{where}: {len(values)} values for {len(keys)} field(s)")
    doc = {"kind": kind}
    for index, key in enumerate(keys):
        group = list(values[index * size:(index + 1) * size])
        doc[key] = group[0] if size == 1 else group
    return _build_polarizer(_polarizer(doc, where), where)


class _Scan:
    """A scan section: the delta21 grid and the v12 values."""

    def __init__(self, doc):
        self.doc, self.v12_values = doc, tuple(doc["v12_values"])

    def delta21_grid(self):
        doc = self.doc
        return np.linspace(doc["delta21_start_rad"], doc["delta21_stop_rad"],
                           doc["delta21_points"])


@dataclass(frozen=True)
class Scenario:
    """Scenario document, validated on construction and kept in its file units."""

    document: dict

    def __post_init__(self):
        doc = _section(self.document, _SCENARIO, "scenario")
        scan = doc.get("scan")
        if scan and not math.isfinite(scan["delta21_stop_rad"] - scan["delta21_start_rad"]):
            raise ScenarioError(
                "scenario.scan: delta21_stop_rad - delta21_start_rad must be finite")
        object.__setattr__(self, "document", doc)

    def to_dict(self):
        return copy.deepcopy(self.document)

    @property
    def scan(self):
        """The (delta21, v12) scan grid, or None without a scan section."""
        return _Scan(self.document["scan"]) if "scan" in self.document else None

    def experiment(self):
        """SI-unit ExperimentConfig described by this document.

        The physics objects hold the range checks; their errors become
        ``ScenarioError``s that start with the section path.
        """
        doc = self.document
        patches = []
        for name in ("detector1", "detector2"):
            det = doc[name]
            polarizer = _build_polarizer(det["polarizer"], f"scenario.{name}.polarizer")
            with _scenario_errors(f"scenario.{name}: "):
                patches.append(DetectorPatch(theta_center=det["theta_center_rad"],
                                             chi_center=det["chi_center_rad"],
                                             span_theta=det["span_theta_mrad"] * 1e-3,
                                             span_chi=det["span_chi_rad"],
                                             polarizer=polarizer))
        with _scenario_errors("scenario: "):
            return ExperimentConfig(
                layout=AtomPairLayout(separation=doc["separation_um"] * 1e-6,
                                      wavelength=doc["wavelength_nm"] * 1e-9),
                trap=TrapModel(confinement=doc["confinement_nm"] * 1e-9),
                detector1=patches[0],
                detector2=patches[1],
                repetition_rate=doc["repetition_rate_mhz"] * 1e6,
                detector_efficiency=doc["detector_efficiency"],
                dark_count_rate=doc["dark_count_rate_hz"],
                coincidence_window=doc["coincidence_window_ns"] * 1e-9,
            )

    def quadrature_spec(self):
        return QuadratureSpec(**self.document["quadrature"])


def _file_path(path):
    """``path`` as a str, if it is a str or an ``os.PathLike``; no file descriptor."""
    if not isinstance(path, (str, os.PathLike)):
        raise InvalidInputError(f"path must be a str or os.PathLike, got {path!r}")
    return os.fsdecode(path)


def load_scenario(path):
    """Parse a scenario JSON file, rejecting unknown keys and non-finite numbers."""
    path = _file_path(path)
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except ValueError as exc:  # JSONDecodeError, bad UTF-8, overlong integers
            raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    return Scenario(raw)


def save_scenario(scenario, path):
    """Write a scenario document; the written file re-parses identically.

    Both arguments are checked before any file is opened, and the document
    goes to a new file in the target's directory that then replaces the
    target, so a failed save leaves an existing file as it was.
    """
    _record(scenario, Scenario, "scenario")
    text = json.dumps(scenario.to_dict(), indent=2, sort_keys=True) + "\n"
    path = _file_path(path)
    directory, name = os.path.split(path)
    temporary = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    handle = open(temporary, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temporary)
        raise
