"""Every public call raises only ``HeraldSimError`` on a wrong argument.

The calls are found with ``inspect`` from ``heraldsim.__all__``: each
function, each class that is not an exception type, and each public
classmethod of such a class.  ``_valid`` holds one valid value per
parameter name; a public call added later whose parameter has no entry
there fails the walk by name, so it cannot be left out.  Each non-path argument
is set in turn to every value of ``WRONG``, the others kept valid, and the
call may return or raise a ``HeraldSimError``, nothing else.  Path
arguments are probed separately: a non-path ``path`` is refused before any
file is opened, and a failed save leaves the target's bytes as they were.
"""

import inspect
import math
import os
from pathlib import Path

import numpy as np
import pytest

import heraldsim
from heraldsim import (
    HeraldSimError,
    InvalidInputError,
    Polarizer,
    QuadratureSpec,
    load_scenario,
    save_scenario,
)

from helpers import (
    BELL_PSI_PLUS,
    reference_config,
    reference_layout,
    reference_patch,
    werner_state,
)

BASELINE = Path(__file__).resolve().parents[1] / "scenarios" / "baseline.json"

WRONG = [None, "x", True, math.nan, (1, 2, 3), object()]

#: parameters that name a file; ``test_paths_must_be_str_or_path_like`` probes them
PATHS = {"path"}


def _valid():
    config = reference_config()
    outcome_state = BELL_PSI_PLUS.copy()
    return {
        # records and their numbers
        "separation": 5e-6, "wavelength": 650e-9, "confinement": 10e-9,
        "theta_center": np.pi / 2, "span_theta": 5e-3, "span_chi": 0.5,
        "chi_center": 0.0, "polarizer": Polarizer.linear(0.0),
        "layout": reference_layout(), "trap": config.trap,
        "detector1": config.detector1, "detector2": config.detector2,
        "repetition_rate": 5e6, "detector_efficiency": 0.3,
        "dark_count_rate": 100.0, "coincidence_window": 1e-8,
        "points_theta": 4, "points_chi": 4, "points_trap": 4,
        "jones": (1.0, 0.0), "angle": 0.0, "handedness": 1,
        "eps_plus": 1.0, "eps_minus": 0.0,
        "document": load_scenario(BASELINE).to_dict(),
        "scenario": load_scenario(BASELINE),
        # result records
        "raw": 1.0, "corrected": 0.3, "state": outcome_state, "g2": 1.0,
        "rho_generated": werner_state(0.9), "target_state": outcome_state,
        "concurrence_target": 1.0, "concurrence_generated": 0.9, "delta_c": 0.1,
        "fidelity": 0.9, "heralding_weight": 1.0, "delta21_nominal": 0.0,
        "max_delta_c": 0.1, "min_fidelity": 0.9,
        # functions
        "config": config, "quadrature": QuadratureSpec(4, 4), "patch": config.detector1,
        "reference_patch": reference_patch(Polarizer.linear(0.0)),
        "delta21": 0.3, "v12": 0.5, "true_rate": 1.0, "rho": werner_state(0.9),
        "delta21_values": [0.0, 0.3], "v12_values": [0.5], "theta": 1.2, "chi": 0.1,
        "jones1": (1.0, 0.0), "jones2": (0.6, 0.8), "samples": 100, "seed": 1,
    }


def _public_calls():
    """(name, callable) of every public function, record class and classmethod."""
    for name in heraldsim.__all__:
        obj = getattr(heraldsim, name)
        if not callable(obj) or inspect.isclass(obj) and issubclass(obj, BaseException):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and isinstance(member, classmethod):
                    yield f"{name}.{attr}", getattr(obj, attr)


# ScanResult's array fields share their names with delta_c_scan's grid
_ARRAYS = {"delta21": np.zeros(1), "v12": np.ones(1), "delta_c": np.zeros((1, 1)),
           "fidelity": np.ones((1, 1)), "concurrence_target": np.ones((1, 1)),
           "concurrence_generated": np.ones((1, 1))}


def _probes():
    valid = _valid()
    for name, call in _public_calls():
        parameters = inspect.signature(call).parameters
        unknown = sorted(set(parameters) - set(valid) - PATHS)
        assert not unknown, f"{name}: no valid value for {unknown}; add it to _valid()"
        arguments = {key: (_ARRAYS[key] if name == "ScanResult" and key in _ARRAYS
                           else valid.get(key)) for key in parameters}
        for key in parameters:
            if key not in PATHS:
                yield pytest.param(call, arguments, key, id=f"{name}-{key}")


def _with_paths(arguments, directory):
    return {**arguments, **{key: directory / "probe.json" for key in PATHS & set(arguments)}}


@pytest.mark.parametrize("call, arguments, key", list(_probes()))
def test_a_wrong_argument_raises_only_heraldsim_errors(tmp_path, call, arguments, key):
    arguments = _with_paths(arguments, tmp_path)
    for wrong in WRONG:
        try:
            call(**{**arguments, key: wrong})
        except HeraldSimError:
            pass
        except Exception as error:
            pytest.fail(f"{key}={wrong!r} raised {type(error).__name__}: {error}")


def test_the_valid_arguments_are_valid(tmp_path):
    # each call accepts the values the probes start from, so a probe varies
    # one argument of a call that otherwise runs
    for call, arguments, _ in (probe.values for probe in _probes()):
        call(**_with_paths(arguments, tmp_path))


@pytest.mark.parametrize("wrong", WRONG + [{"a": 1}],
                         ids=["None", "str", "True", "nan", "tuple", "object", "document"])
def test_a_failed_save_keeps_the_file(tmp_path, wrong):
    # the scenario is checked before any file is opened, and no temporary is left
    target = tmp_path / "scenario.json"
    target.write_bytes(b"precious")
    with pytest.raises(InvalidInputError, match="scenario must be of type Scenario"):
        save_scenario(wrong, target)
    assert target.read_bytes() == b"precious"
    assert sorted(os.listdir(tmp_path)) == ["scenario.json"]


@pytest.mark.parametrize("path", [0, 1, 2, True, False, None, 1.5, b"scenario.json"])
def test_paths_must_be_str_or_path_like(tmp_path, monkeypatch, path):
    # an int or a bool would be taken as a file descriptor and closed
    monkeypatch.chdir(tmp_path)
    scenario = load_scenario(BASELINE)
    for call in (lambda: save_scenario(scenario, path), lambda: load_scenario(path)):
        with pytest.raises(InvalidInputError, match="path must be a str or os.PathLike"):
            call()
    assert os.listdir(tmp_path) == []
    for descriptor in (0, 1, 2):  # still open
        os.fstat(descriptor)


def test_a_save_replaces_the_file_whole(tmp_path):
    # the document goes to a new file beside the target, which then replaces it
    scenario = load_scenario(BASELINE)
    target = tmp_path / "scenario.json"
    target.write_bytes(b"precious")
    save_scenario(scenario, str(target))
    assert load_scenario(target) == scenario
    assert sorted(os.listdir(tmp_path)) == ["scenario.json"]


def test_a_save_that_cannot_write_keeps_the_file(tmp_path, monkeypatch):
    # a save that fails after writing leaves the target and removes the new file
    scenario = load_scenario(BASELINE)
    target = tmp_path / "scenario.json"
    target.write_bytes(b"precious")

    def failing_replace(source, destination):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_scenario(scenario, target)
    assert target.read_bytes() == b"precious"
    assert sorted(os.listdir(tmp_path)) == ["scenario.json"]
