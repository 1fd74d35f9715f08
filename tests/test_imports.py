"""Import hygiene and layering: every imported name is read or re-exported.

Parses the package modules and the test files with ``ast``, so the
check needs nothing beyond the standard library.  ``__init__.py`` is
left out: its imports are the package's re-exports.  Every ``__all__``
entry must be bound in its module, and the package ``__all__`` must
list exactly the public names ``__init__.py`` imports.  The geometry
(directions, phases, the trap spread, the patch nodes) stays behind
``geometry.py``: ``herald.py`` reads no layout or trap number, calls no
direction, phase or node function, and imports from ``geometry`` only
the model dataclasses and the two ``(W, M, delta21)`` routes.  The
number and count rules stay in ``optics.py``: no other module makes an
``isinstance(..., bool)`` test, the mark of one.  So does the herald's
weight floor: no other module names ``MIN_HERALD_WEIGHT``.  A fresh
interpreter checks what importing the package and the CLI loads, so
import-time work stays out of every command's set-up.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "heraldsim"
MODULES = sorted(PACKAGE.glob("*.py"))
SOURCES = [p for p in MODULES if p.name != "__init__.py"]
SOURCES += sorted(TESTS.glob("*.py"))


def _exported(tree):
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    """Imported names that are never read and not in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    used = read | _exported(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_unused_names():
    source = (
        "import os\nimport os.path as osp\nfrom math import pi, tau\n"
        "__all__ = ['tau']\nprint(os)\n"
    )
    assert unused_imports(source) == [(2, "osp"), (3, "pi")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_is_bound(path):
    name = "heraldsim" if path.stem == "__init__" else f"heraldsim.{path.stem}"
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_exports_exactly_its_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert _exported(tree) == {name for name in imported if not name.startswith("_")}


#: what only ``geometry.py`` may read or call: the layout and trap numbers,
#: the patch-extent check, the node rules, the patch nodes and the direction
#: and phase arithmetic
GEOMETRY_ATTRIBUTES = {"separation", "wavenumber", "confinement"}
GEOMETRY_CALLS = {"_check_patch_extent", "detection_direction", "farfield_phase",
                  "_phase", "_patch_nodes", "_phase_moments", "_longitudes",
                  "_directions", "_finite_angles", "_interval_rule", "_reference_rule",
                  "np.cos", "np.sin"}
#: all that ``herald.py`` may import from ``geometry``
GEOMETRY_INTERFACE = {"AtomPairLayout", "DetectorPatch", "QuadratureSpec", "TrapModel",
                      "_quadrature_moments", "_sampled_moments"}


def geometry_used(source):
    """Geometry attributes read and geometry functions called in ``source``."""
    nodes = list(ast.walk(ast.parse(source)))
    read = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    called = {ast.unparse(node.func) for node in nodes if isinstance(node, ast.Call)}
    return sorted((read & GEOMETRY_ATTRIBUTES) | (called & GEOMETRY_CALLS))


def geometry_imports(source):
    """Names imported from the ``geometry`` module in ``source``."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.module is not None
                  and node.module.rpartition(".")[2] == "geometry"
                  for alias in node.names)


def test_the_layering_check_sees_geometry():
    source = (
        "x = layout.separation * np.cos(theta)\nnp.sin\nsigma = trap.confinement\n"
        "_check_patch_extent(patch)\nlayout.wavelength\ndirs, w = _patch_nodes(p, q, t)\n"
        "from .geometry import TrapModel, _phase_moments\nfrom .optics import g2\n"
    )
    assert geometry_used(source) == ["_check_patch_extent", "_patch_nodes", "confinement",
                                     "np.cos", "separation"]
    assert geometry_imports(source) == ["TrapModel", "_phase_moments"]


def test_herald_leaves_the_geometry_to_geometry():
    source = (PACKAGE / "herald.py").read_text(encoding="utf-8")
    assert geometry_used(source) == []
    assert set(geometry_imports(source)) <= GEOMETRY_INTERFACE


def bool_tests(source):
    """Lines of ``isinstance(value, bool)`` calls, with ``bool`` alone or in a tuple."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance":
            kinds = node.args[-1]
            if "bool" in {ast.unparse(kind) for kind in getattr(kinds, "elts", [kinds])}:
                lines.append(node.lineno)
    return sorted(lines)


def test_the_rule_check_sees_bool_tests():
    source = (
        "isinstance(x, bool)\nisinstance(x, (int, bool))\nisinstance(x, int)\n"
        "type(x) is bool\nok = not isinstance(x, bool) and x > 0\nisinstance(x, np.bool_)\n"
    )
    assert bool_tests(source) == [1, 2, 5]


def test_number_and_count_rules_live_in_optics():
    found = {path.name: bool_tests(path.read_text(encoding="utf-8"))
             for path in MODULES if path.name != "optics.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def names_of(source, name):
    """Lines that name ``name``: as a variable, an attribute or an imported name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        names = ({node.id} if isinstance(node, ast.Name)
                 else {node.attr} if isinstance(node, ast.Attribute)
                 else {alias.name for alias in node.names}
                 if isinstance(node, (ast.Import, ast.ImportFrom)) else set())
        if name in names:
            lines.append(node.lineno)
    return sorted(lines)


def test_the_name_check_sees_every_kind_of_name():
    source = (
        "from .optics import MIN_HERALD_WEIGHT\nx = optics.MIN_HERALD_WEIGHT\n"
        "MIN_HERALD_WEIGHT = 1\n'MIN_HERALD_WEIGHT'\nMIN_HERALD = 2\n"
    )
    assert names_of(source, "MIN_HERALD_WEIGHT") == [1, 2, 3]


def test_the_weight_floor_lives_in_optics():
    found = {path.name: names_of(path.read_text(encoding="utf-8"), "MIN_HERALD_WEIGHT")
             for path in MODULES if path.name != "optics.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize("module, absent", [
    ("heraldsim", ["argparse", "gettext", "scipy", "hypothesis"]),
    ("heraldsim.cli", ["scipy", "hypothesis"]),
])
def test_import_loads_no_heavy_module(module, absent):
    probe = f"import sys, {module}; print(' '.join(sorted(set({absent!r}) & set(sys.modules))))"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), check=True)
    assert run.stdout.split() == []
