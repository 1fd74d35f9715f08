"""Outside-in span tracer for the heraldsim layers.

The program has no timers of its own yet, so the benchmark wraps each
layer's public functions (the names in each module's ``__all__``) from
outside.  A wrapper replaces the function under every name that binds it
in any ``heraldsim`` module namespace: ``from .qcore import
concurrence_mixed`` leaves a separate binding in ``herald``, and ``cli``
holds its own bindings too.  numpy's ``leggauss``/``hermgauss`` are
wrapped at the numpy attribute and traced only when ``heraldsim.herald``
calls them; they form the ``herald.node_rules`` span.

Spans (name, start, end, parent, op id, raised) are kept in flat
in-memory arrays and written out once, when the run ends.  A span's self
time is its duration minus the durations of its direct children; calls
are nested on one thread, so the children never overlap.

Run this file to self-check the self-time arithmetic on a synthetic
call tree: ``python3 perfbench/tracer.py``.
"""

import array
import functools
import importlib
import inspect
import sys
from time import perf_counter

import numpy as np

LAYERS = ("cli", "scenario", "geometry", "optics", "qcore", "herald")
NODE_RULES = "herald.node_rules"

#: function-level metrics reported next to the per-layer ones
FUNCTION_METRICS = (
    ("herald.generated_state", ("calls", "self_s")),
    (NODE_RULES, ("calls", "self_s")),
    ("herald.delta_c_scan", ("self_s",)),
    ("herald.monte_carlo_state", ("self_s",)),
    ("geometry.detection_direction", ("self_s",)),
    ("qcore.concurrence_mixed", ("calls", "self_s")),
    ("optics.concurrence_analytic", ("self_s",)),
    ("scenario.load_scenario", ("self_s",)),
)


class Tracer:
    """Records one span per wrapped call, tagged with ``current_op``."""

    def __init__(self):
        self.names = []
        self.layers = []
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.raised = array.array("b")
        self.geometry_keys = []
        self.current_op = -1
        self._stack = []

    def _intern(self, name, layer):
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def wrap(self, name, layer, func, key=None):
        """Traced stand-in for ``func``; ``key(*args, **kwargs)`` is recorded per call."""
        nid = self._intern(name, layer)
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if key is not None:
                self.geometry_keys.append((self.current_op, key(*args, **kwargs)))
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.raised.append(0)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(perf_counter())
            try:
                return func(*args, **kwargs)
            except BaseException:
                self.raised[index] = 1
                raise
            finally:
                self.end[index] = perf_counter()
                stack.pop()

        return traced

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
        }

    def save(self, path):
        """Write every span, with the name and layer tables, as one .npz file."""
        np.savez(path, names=np.array(self.names), layers=np.array(self.layers),
                 **self.arrays())

    def metrics(self, ops):
        """Per-op layer and function metrics over ``ops`` traced ops."""
        spans = self.arrays()
        own = self_times(spans["start"], spans["end"], spans["parent"])
        name_layer = np.array(self.layers + [""])
        layer = name_layer[spans["name_id"]]
        parent_layer = name_layer[np.where(spans["parent"] >= 0,
                                           spans["name_id"][spans["parent"]], -1)]
        leaving = (spans["raised"] == 1) & (layer != parent_layer)
        out = {}
        for name in LAYERS:
            mine = layer == name
            out[f"{name}.calls"] = (int(mine.sum()), "count")
            out[f"{name}.self_s"] = (float(own[mine].sum()), "s")
            out[f"{name}.errors"] = (int((mine & leaving).sum()), "count")
        names = np.array(self.names + [""])[spans["name_id"]]
        for name, kinds in FUNCTION_METRICS:
            mine = names == name
            if "calls" in kinds:
                out[f"{name}.calls"] = (int(mine.sum()), "count")
            if "self_s" in kinds:
                out[f"{name}.self_s"] = (float(own[mine].sum()), "s")
        per_op = {k: (v / ops, unit) for k, (v, unit) in out.items()}
        per_op["herald.distinct_geometry_ratio"] = (
            distinct_ratio(self.geometry_keys), "ratio")
        return per_op


def self_times(start, end, parent):
    """Span duration minus the summed durations of its direct children."""
    duration = end - start
    children = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(children, parent[nested], duration[nested])
    return duration - children


def distinct_ratio(keyed_calls):
    """Mean over ops of distinct keys / calls; 0 when nothing was called."""
    per_op = {}
    for op, key in keyed_calls:
        per_op.setdefault(op, []).append(key)
    if not per_op:
        return 0.0
    return float(np.mean([len(set(keys)) / len(keys) for keys in per_op.values()]))


def _geometry_key(signature):
    """(layout, trap, patch geometry, quadrature) of a generated_state call.

    The analyzers are left out: they do not change the geometry average.
    """
    def key(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        config, quadrature = bound.arguments["config"], bound.arguments["quadrature"]

        def patch(det):
            return (det.theta_center, det.chi_center, det.span_theta, det.span_chi)

        return (config.layout, config.trap, patch(config.detector1),
                patch(config.detector2), quadrature)

    return key


def install(tracer):
    """Rebind every public layer function and the herald node rules to traced wrappers."""
    for layer in LAYERS:
        importlib.import_module(f"heraldsim.{layer}")
    namespaces = [m for n, m in sys.modules.items()
                  if n == "heraldsim" or n.startswith("heraldsim.")]
    for layer in LAYERS:
        module = sys.modules[f"heraldsim.{layer}"]
        for attr in module.__all__:
            func = getattr(module, attr)
            if not (inspect.isfunction(func) and func.__module__ == module.__name__):
                continue
            key = None
            if f"{layer}.{attr}" == "herald.generated_state":
                key = _geometry_key(inspect.signature(func))
            traced = tracer.wrap(f"{layer}.{attr}", layer, func, key)
            for namespace in namespaces:
                for bound_name, value in list(vars(namespace).items()):
                    if value is func:
                        setattr(namespace, bound_name, traced)
    for module, attr in ((np.polynomial.legendre, "leggauss"),
                         (np.polynomial.hermite, "hermgauss")):
        original = getattr(module, attr)
        traced = tracer.wrap(NODE_RULES, "numpy", original)

        def dispatch(*args, _original=original, _traced=traced, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "heraldsim.herald":
                return _traced(*args, **kwargs)
            return _original(*args, **kwargs)

        setattr(module, attr, dispatch)


def self_check():
    """Self time and layer-leaving errors on a synthetic call tree with known answers."""
    tracer = Tracer()
    # root [0, 10] -> a [1, 5] -> a1 [2, 4];  root -> b [5, 9] -> b1 [6, 7]
    spans = [("cli.root", "cli", 0.0, 10.0, -1, 0), ("herald.a", "herald", 1.0, 5.0, 0, 0),
             ("herald.a1", "herald", 2.0, 4.0, 1, 1), ("qcore.b", "qcore", 5.0, 9.0, 0, 1),
             ("qcore.b1", "qcore", 6.0, 7.0, 3, 1)]
    for name, layer, start, end, parent, raised in spans:
        tracer.name_id.append(tracer._intern(name, layer))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.op.append(0)
        tracer.raised.append(raised)
    spans_arrays = tracer.arrays()
    own = self_times(spans_arrays["start"], spans_arrays["end"], spans_arrays["parent"])
    expected = np.array([10 - 4 - 4, 4 - 2, 2, 4 - 1, 1], dtype=float)
    if not np.array_equal(own, expected):
        raise AssertionError(f"self times {own} != {expected}")
    got = tracer.metrics(ops=1)
    want = {"cli.self_s": 2.0, "herald.self_s": 4.0, "qcore.self_s": 4.0,
            "cli.calls": 1, "herald.calls": 2, "qcore.calls": 2,
            # a1 raises inside herald (caught by a); b1 raises out through b into cli
            "herald.errors": 0, "qcore.errors": 1, "cli.errors": 0}
    for name, value in want.items():
        if got[name][0] != value:
            raise AssertionError(f"{name} = {got[name][0]}, expected {value}")
    if distinct_ratio([(0, "x"), (0, "x"), (0, "y"), (0, "y"), (1, "z")]) != 0.75:
        raise AssertionError("distinct_ratio arithmetic")


if __name__ == "__main__":
    self_check()
    print("tracer self-check passed")
