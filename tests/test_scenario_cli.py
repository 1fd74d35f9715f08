"""Scenario files and the command line front end."""

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from heraldsim import (
    Polarizer,
    Scenario,
    ScenarioError,
    ZeroProbabilityHeraldError,
    concurrence_analytic,
    delta_c_scan,
    load_scenario,
    save_scenario,
)
from heraldsim.cli import _fmt, build_parser, main
from heraldsim.scenario import polarizer_from_values

BASELINE = "scenarios/baseline.json"
POINT = "scenarios/point_detectors.json"
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def small_scenario_dict():
    """Scenario that keeps CLI runs fast: coarse quadrature, tiny scan."""
    return {
        "separation_um": 5.0,
        "wavelength_nm": 650.0,
        "confinement_nm": 10.0,
        "repetition_rate_mhz": 5.0,
        "detector_efficiency": 0.3,
        "dark_count_rate_hz": 100.0,
        "coincidence_window_ns": 10.0,
        "detector1": {
            "theta_center_rad": np.pi / 2,
            "chi_center_rad": 0.0,
            "span_theta_mrad": 5.0,
            "span_chi_rad": np.pi / 6,
            "polarizer": {"kind": "linear", "angle_rad": 0.0},
        },
        "detector2": {
            "theta_center_rad": np.pi / 2,
            "chi_center_rad": 0.0,
            "span_theta_mrad": 5.0,
            "span_chi_rad": np.pi / 6,
            "polarizer": {"kind": "linear", "angle_rad": np.pi / 4},
        },
        "quadrature": {
            "points_theta": 4,
            "points_chi": 4,
        },
        "scan": {
            "delta21_start_rad": -np.pi / 2,
            "delta21_stop_rad": np.pi / 2,
            "delta21_points": 3,
            "v12_values": [0.0, 0.5],
        },
    }


def baseline_copy(tmp_path, detector=(), **top):
    """Path of a baseline scenario copy: ``top`` replaces top-level keys and
    ``detector`` updates the keys of both detectors."""
    doc = json.loads(Path(BASELINE).read_text())
    doc.update(top)
    for name in ("detector1", "detector2"):
        doc[name].update(detector)
    return write_scenario(tmp_path, doc)


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def parse_report(text):
    values = {}
    for line in text.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


class TestScenarioFiles:
    def test_round_trip_preserves_the_document(self, tmp_path):
        for source in (BASELINE, POINT):
            scenario = load_scenario(source)
            path = tmp_path / "copy.json"
            save_scenario(scenario, path)
            assert load_scenario(path) == scenario
            assert json.loads(path.read_text()) == scenario.to_dict()

    def test_si_conversion(self):
        config = load_scenario(BASELINE).experiment()
        assert config.layout.separation == pytest.approx(5e-6, rel=1e-15)
        assert config.layout.wavelength == pytest.approx(650e-9, rel=1e-15)
        assert config.trap.confinement == pytest.approx(10e-9, rel=1e-15)
        assert config.repetition_rate == pytest.approx(5e6, rel=1e-15)
        assert config.coincidence_window == pytest.approx(10e-9, rel=1e-15)
        assert config.detector1.span_theta == pytest.approx(5e-3, rel=1e-15)
        assert config.detector2.polarizer == Polarizer.linear(np.pi / 4)

    def test_quadrature_and_scan_sections(self):
        scenario = load_scenario(BASELINE)
        spec = scenario.quadrature_spec()
        assert (spec.points_theta, spec.points_chi) == (8, 8)
        grid = scenario.scan.delta21_grid()
        assert len(grid) == 21
        assert grid[0] == pytest.approx(-np.pi / 2, rel=1e-15)
        assert grid[-1] == pytest.approx(np.pi / 2, rel=1e-15)

    def test_quadrature_and_scan_are_optional(self, tmp_path):
        doc = small_scenario_dict()
        del doc["quadrature"]
        del doc["scan"]
        scenario = load_scenario(write_scenario(tmp_path, doc))
        assert scenario.scan is None
        assert scenario.quadrature_spec().points_theta == 8

    def test_unknown_top_level_key_rejected(self, tmp_path):
        doc = small_scenario_dict()
        doc["detuning_hz"] = 1.0
        with pytest.raises(ScenarioError, match="detuning_hz"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_unknown_nested_keys_rejected(self, tmp_path):
        doc = small_scenario_dict()
        doc["detector1"]["tilt_rad"] = 0.1
        with pytest.raises(ScenarioError, match="tilt_rad"):
            load_scenario(write_scenario(tmp_path, doc))
        doc = small_scenario_dict()
        doc["detector2"]["polarizer"]["axis"] = 1
        with pytest.raises(ScenarioError, match="axis"):
            load_scenario(write_scenario(tmp_path, doc))
        doc = small_scenario_dict()
        doc["scan"]["step"] = 0.1
        with pytest.raises(ScenarioError, match="step"):
            load_scenario(write_scenario(tmp_path, doc))
        doc = small_scenario_dict()
        doc["detector1"]["polarizer"]["handedness"] = "+"  # not a linear field
        with pytest.raises(ScenarioError, match="handedness"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_missing_required_key_rejected(self, tmp_path):
        doc = small_scenario_dict()
        del doc["wavelength_nm"]
        with pytest.raises(ScenarioError, match="wavelength_nm"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_non_numeric_value_rejected(self, tmp_path):
        doc = small_scenario_dict()
        doc["separation_um"] = "five"
        with pytest.raises(ScenarioError, match="separation_um"):
            load_scenario(write_scenario(tmp_path, doc))
        doc = small_scenario_dict()
        doc["quadrature"]["points_theta"] = 2.5
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, doc))

    @pytest.mark.parametrize("section, key", [
        ("quadrature", "points_theta"), ("quadrature", "points_chi"),
        ("scan", "delta21_points"),
    ])
    def test_zero_count_rejected_on_load(self, tmp_path, section, key):
        doc = small_scenario_dict()
        doc[section][key] = 0
        with pytest.raises(ScenarioError, match=rf"^scenario\.{section}\.{key} must be"):
            load_scenario(write_scenario(tmp_path, doc))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize(
        "path",
        [
            ("repetition_rate_mhz",),
            ("dark_count_rate_hz",),
            ("detector1", "span_theta_mrad"),
            ("detector2", "chi_center_rad"),
            ("confinement_nm",),
            ("scan", "delta21_stop_rad"),
            ("scan", "v12_values", 1),
            ("detector1", "polarizer", "eps_minus", 0),
        ],
        ids=lambda path: ".".join(map(str, path)),
    )
    def test_non_finite_number_exit_2(self, tmp_path, capsys, path, literal):
        # json reads NaN, Infinity and 1e999 as floats; each must be refused
        doc = small_scenario_dict()
        doc["detector1"]["polarizer"] = {
            "kind": "general", "eps_plus": [1.0, 0.0], "eps_minus": [0.0, 1.0],
        }
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = "PLACEHOLDER"
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(doc).replace('"PLACEHOLDER"', literal))
        key = [part for part in path if isinstance(part, str)][-1]
        with pytest.raises(ScenarioError, match=key):
            load_scenario(config)
        assert main(["uncertainty", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("path, value, message", [
        (("detector1", "theta_center_rad"), 5.0,
         r"scenario\.detector1: theta_center must lie strictly inside"),
        (("detector2", "polarizer"), {"kind": "general", "eps_plus": [0.0, 0.0],
                                      "eps_minus": [0.0, 0.0]},
         r"scenario\.detector2\.polarizer: general analyzer must be nonzero"),
        (("separation_um",), -5.0, r"scenario: separation must be positive"),
    ], ids=["theta-center", "zero-analyzer", "separation"])
    def test_range_errors_name_their_section(self, tmp_path, capsys, path, value, message):
        # the physics objects hold the range checks; the scenario names the section
        doc = small_scenario_dict()
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(ScenarioError, match="^" + message):
            Scenario(doc).experiment()
        assert main(["uncertainty", "--config", write_scenario(tmp_path, doc)]) == 2
        assert re.search("^error: " + message, capsys.readouterr().err)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_circular_polarizer_section(self, tmp_path):
        doc = small_scenario_dict()
        doc["detector1"]["polarizer"] = {"kind": "circular", "handedness": "+"}
        scenario = load_scenario(write_scenario(tmp_path, doc))
        assert scenario.experiment().detector1.polarizer == Polarizer.circular(+1)
        doc["detector1"]["polarizer"] = {"kind": "circular", "handedness": "up"}
        with pytest.raises(ScenarioError, match="handedness"):
            load_scenario(write_scenario(tmp_path, doc))


class TestSurfaceCommand:
    def test_values_on_a_small_grid(self, capsys):
        rc = main(
            [
                "surface",
                "--delta21-min", str(-np.pi), "--delta21-max", str(np.pi),
                "--delta21-points", "3",
                "--v12-min", "0.5", "--v12-max", "0.5", "--v12-points", "1",
            ]
        )
        assert rc == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["delta21_rad", "v12", "concurrence", "singular"]
        assert len(rows) == 3
        concurrences = [float(r[2]) for r in rows]
        assert concurrences[0] == pytest.approx(1.0, abs=1e-12)  # delta = -pi
        assert concurrences[1] == pytest.approx(1.0 / 3.0, abs=1e-12)  # delta = 0
        assert concurrences[2] == pytest.approx(1.0, abs=1e-12)  # delta = +pi
        assert all(r[3] == "0" for r in rows)

    def test_singular_cell_is_flagged_not_fatal(self, capsys):
        rc = main(
            [
                "surface",
                "--delta21-min", str(np.pi), "--delta21-max", str(np.pi),
                "--delta21-points", "1",
                "--v12-min", "1.0", "--v12-max", "1.0", "--v12-points", "1",
            ]
        )
        assert rc == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert rows == [[f"{np.pi:.17g}", "1", "", "1"]]

    def test_bad_visibility_bounds_exit_2(self, capsys):
        rc = main(["surface", "--v12-max", "1.5"])
        assert rc == 2
        assert capsys.readouterr().err == "error: v12 grid must lie in [0, 1]\n"

    @pytest.mark.parametrize(
        "bounds",
        [
            ["--delta21-min", "nan", "--delta21-max", "nan"],
            ["--delta21-min=-inf", "--delta21-max", "0"],
            ["--delta21-min=-1e308", "--delta21-max=1e308"],
            ["--v12-min", "nan", "--v12-max", "nan"],
            ["--v12-min", "0", "--v12-max", "inf"],
        ],
    )
    def test_non_finite_bounds_exit_2(self, capsys, bounds):
        assert main(["surface", *bounds]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    def test_directory_as_out_exit_2(self, tmp_path, capsys):
        assert main(["surface", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("grid", [
        # defaults: both singular cells, v12 = 1 at delta21 = -pi and +pi
        (-np.pi, np.pi, 81, 0.0, 1.0, 21),
        # a window around pi where the weight crosses its floor
        (np.pi - 2e-6, np.pi + 2e-6, 41, 0.99999, 1.0, 11),
        (-0.7, 2.9, 1, 0.0, 1.0, 7),
        (-np.pi, np.pi, 9, 1.0, 1.0, 1),
    ], ids=["defaults", "window-at-pi", "one-delta21", "one-v12"])
    def test_every_line_matches_the_scalar_route(self, tmp_path, capsys, grid):
        d_lo, d_hi, d_n, v_lo, v_hi, v_n = grid
        expected = ["delta21_rad,v12,concurrence,singular"]
        for delta in np.linspace(d_lo, d_hi, d_n).tolist():
            for v12 in np.linspace(v_lo, v_hi, v_n).tolist():
                try:
                    cells = [_fmt(concurrence_analytic(delta, v12)), "0"]
                except ZeroProbabilityHeraldError:
                    cells = ["", "1"]
                expected.append(",".join([_fmt(delta), _fmt(v12), *cells]))
        text = "\n".join(expected) + "\n"
        argv = ["surface", f"--delta21-min={d_lo!r}", f"--delta21-max={d_hi!r}",
                "--delta21-points", str(d_n), f"--v12-min={v_lo!r}",
                f"--v12-max={v_hi!r}", "--v12-points", str(v_n)]
        assert main(argv) == 0
        assert capsys.readouterr().out == text
        out = tmp_path / "surface.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == text.encode()

    def test_memory_stays_one_row_deep(self, tmp_path):
        # a full 4001 x 101 float64 grid alone would take 3.2 MB
        argv = ["surface", "--delta21-points", "4001", "--v12-points", "101",
                "--out", str(tmp_path / "surface.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_writes_file(self, tmp_path):
        out = tmp_path / "surface.csv"
        rc = main(["surface", "--delta21-points", "5", "--v12-points", "3",
                   "--out", str(out)])
        assert rc == 0
        header, rows = parse_csv(out.read_text())
        assert header == ["delta21_rad", "v12", "concurrence", "singular"]
        assert len(rows) == 15


class TestStateCommand:
    def test_explicit_polarizers(self, capsys):
        rc = main(
            [
                "state",
                "--polarizer1", "circular:+",
                "--polarizer2", "circular:-",
                "--delta21", "0.0",
            ]
        )
        assert rc == 0
        values = parse_report(capsys.readouterr().out)
        assert float(values["v12"]) == 0.0
        assert float(values["g2"]) == pytest.approx(2.0, abs=1e-12)
        assert float(values["concurrence_state"]) == pytest.approx(1.0, abs=1e-12)
        assert float(values["difference"]) < 1e-10

    def test_config_with_override(self, capsys):
        rc = main(["state", "--config", BASELINE, "--polarizer2", "linear:0.0"])
        assert rc == 0
        values = parse_report(capsys.readouterr().out)
        assert float(values["v12"]) == pytest.approx(1.0, abs=1e-12)
        assert float(values["delta21_rad"]) == pytest.approx(0.0, abs=1e-9)

    def test_general_polarizer_parsing(self, capsys):
        rc = main(
            [
                "state",
                "--polarizer1", "general:1,0,0,1",
                "--polarizer2", "circular:+",
                "--delta21", "0.3",
            ]
        )
        assert rc == 0
        values = parse_report(capsys.readouterr().out)
        assert float(values["v12"]) == pytest.approx(0.5, abs=1e-12)

    def test_equal_analyzers_print_v12_one(self, capsys):
        assert main(["state", "--polarizer1", "linear:0", "--polarizer2", "linear:0",
                     "--delta21", "0"]) == 0
        out = capsys.readouterr().out
        assert "v12                    = 1\n" in out
        assert "g2                     = 4\n" in out  # the closed form, not 4 + 4 ulp

    def test_huge_general_analyzer_is_the_ordinary_one(self, capsys):
        outputs = []
        for spec in ("general:1e308,0,1e308,0", "general:1,0,1,0"):
            assert main(["state", "--polarizer1", spec, "--polarizer2", "circular:+",
                         "--delta21", "0.3"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].err == ""

    def test_missing_arguments_exit_2(self, capsys):
        rc = main(["state", "--polarizer1", "linear:0.0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_polarizer_spec_exit_2(self, capsys):
        for spec in ("diagonal:1", "linear:nan", "linear:x", "circular:x", "general:1,0,0",
                     "general:1,0,inf,1"):
            rc = main(["state", "--polarizer1", spec, "--polarizer2",
                       "linear:0", "--delta21", "0"])
            assert rc == 2
            assert "error:" in capsys.readouterr().err
        # a value that is no number breaks optics' number rule, reported with its path
        with pytest.raises(ScenarioError, match=r"^--polarizer1\.angle_rad must be a finite"):
            polarizer_from_values("linear", ["x"], "--polarizer1")

    def test_zero_general_analyzer_names_its_flag(self, capsys):
        rc = main(["state", "--polarizer1", "general:0,0,0,0", "--polarizer2", "linear:0",
                   "--delta21", "0"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: --polarizer1: general analyzer must be nonzero")

    def test_destructive_configuration_exit_3(self, capsys):
        rc = main(
            [
                "state",
                "--polarizer1", "circular:+",
                "--polarizer2", "circular:+",
                "--delta21", str(np.pi),
            ]
        )
        assert rc == 3
        assert "error:" in capsys.readouterr().err


class TestUncertaintyCommand:
    def test_report_and_scan(self, tmp_path, capsys):
        path = write_scenario(tmp_path, small_scenario_dict())
        out = tmp_path / "scan.csv"
        rc = main(["uncertainty", "--config", path, "--out", str(out)])
        assert rc == 0
        values = parse_report(capsys.readouterr().out)
        assert float(values["delta_c"]) < 0.01
        assert float(values["fidelity"]) > 0.99
        assert float(values["rate_corrected_per_s"]) == pytest.approx(
            0.09 * float(values["rate_raw_per_s"]), rel=1e-12
        )
        assert 0.0 <= float(values["accidental_fraction"]) < 1.0
        header, rows = parse_csv(out.read_text())
        assert header == [
            "delta21_rad", "v12", "delta_c", "fidelity",
            "concurrence_target", "concurrence_generated",
        ]
        assert len(rows) == 6  # 3 deltas x 2 visibilities
        assert float(values["scan_max_delta_c"]) == pytest.approx(
            max(float(r[2]) for r in rows), rel=1e-15
        )
        assert float(values["scan_min_fidelity"]) == pytest.approx(
            min(float(r[3]) for r in rows), rel=1e-15
        )

    def test_csv_fields_are_the_scan_columns(self, tmp_path, capsys):
        # 3 delta21 x 2 v12: row 2 i + j holds cell (i, j), so a writer that
        # walks the figure arrays transposed or misses a column fails here
        path = write_scenario(tmp_path, small_scenario_dict())
        out = tmp_path / "scan.csv"
        assert main(["uncertainty", "--config", path, "--out", str(out)]) == 0
        capsys.readouterr()
        scenario = load_scenario(path)
        result = delta_c_scan(scenario.experiment(), scenario.quadrature_spec(),
                              scenario.scan.delta21_grid(), scenario.scan.v12_values)
        _, rows = parse_csv(out.read_text())
        assert len(rows) == 6
        for number, row in enumerate(rows):
            i, j = divmod(number, 2)
            expected = [result.delta21[i], result.v12[j], result.delta_c[i, j],
                        result.fidelity[i, j], result.concurrence_target[i, j],
                        result.concurrence_generated[i, j]]
            assert [float(field) for field in row] == expected

    def test_zero_probability_scan_cell_exit_3(self, tmp_path, capsys):
        # equal analyzers (v12 = 1) at delta21 = pi: the herald never fires
        doc = small_scenario_dict()
        doc["scan"].update(delta21_start_rad=0.0, delta21_stop_rad=np.pi,
                           delta21_points=2, v12_values=[0.5, 1.0])
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "scan.csv"
        rc = main(["uncertainty", "--config", path, "--out", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert "herald never fires" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_wide_theta_patches_run_without_warnings(self, tmp_path, capsys):
        # the flat patch area is exact in theta: a 200 mrad span is no reason to warn
        path = baseline_copy(tmp_path, {"span_theta_mrad": 200.0})
        assert main(["uncertainty", "--config", path]) == 0
        assert capsys.readouterr().err == ""
        run = subprocess.run(
            [sys.executable, "-W", "error::UserWarning", "-m", "heraldsim.cli",
             "uncertainty", "--config", path],
            capture_output=True, text=True, env=SRC_ENV, check=False)
        assert (run.returncode, run.stderr) == (0, "")

    def test_overflowing_dark_pairs_give_accidental_fraction_one(self, tmp_path, capsys):
        path = baseline_copy(tmp_path, dark_count_rate_hz=1e300, coincidence_window_ns=1.0)
        assert main(["uncertainty", "--config", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert parse_report(captured.out)["accidental_fraction"] == "1"

    def test_rates_beyond_twice_the_repetition_rate_are_reported(self, tmp_path, capsys):
        # 2 r overflows at 1.5e308 /s, but every reported rate is finite
        path = baseline_copy(tmp_path, repetition_rate_mhz=1.5e302)
        assert main(["uncertainty", "--config", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        values = parse_report(captured.out)
        assert main(["uncertainty", "--config", BASELINE]) == 0
        baseline = parse_report(capsys.readouterr().out)
        for name in ("rate_raw_per_s", "rate_corrected_per_s"):
            assert float(values[name]) == pytest.approx(3e301 * float(baseline[name]),
                                                        rel=1e-12)
        assert 0.0 < float(values["accidental_fraction"]) < 1.0

    def test_coincidence_rate_beyond_the_float_range_exit_2(self, tmp_path, capsys):
        # near-hemisphere patches: 2 r P1 P2 G2 exceeds 1.8e308 /s
        path = baseline_copy(tmp_path, {"span_theta_mrad": 3000.0, "span_chi_rad": 3.0},
                             repetition_rate_mhz=1.7e302)
        assert main(["uncertainty", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: coincidence rate 2 r P1 P2 G2 overflows the "
                                "float range\n")

    def test_out_into_missing_directory_exit_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, small_scenario_dict())
        out = tmp_path / "absent" / "scan.csv"
        rc = main(["uncertainty", "--config", path, "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_quadrature_overrides_change_the_evaluation(self, tmp_path, capsys):
        doc = small_scenario_dict()
        del doc["scan"]
        path = write_scenario(tmp_path, doc)
        rc = main(["uncertainty", "--config", path])
        assert rc == 0
        coarse = parse_report(capsys.readouterr().out)
        rc = main(["uncertainty", "--config", path, "--points-theta", "12",
                   "--points-chi", "12"])
        assert rc == 0
        fine = parse_report(capsys.readouterr().out)
        # both must be converged already at the small-scan settings
        assert float(coarse["delta_c"]) == pytest.approx(
            float(fine["delta_c"]), abs=1e-6
        )

    def test_monte_carlo_lines(self, tmp_path, capsys):
        doc = small_scenario_dict()
        del doc["scan"]
        path = write_scenario(tmp_path, doc)
        rc = main(["uncertainty", "--config", path, "--seed", "3",
                   "--samples", "20000"])
        assert rc == 0
        values = parse_report(capsys.readouterr().out)
        assert float(values["mc_delta_c_deviation"]) < 5e-3

    def test_out_without_scan_exit_2(self, tmp_path, capsys):
        doc = small_scenario_dict()
        del doc["scan"]
        path = write_scenario(tmp_path, doc)
        rc = main(["uncertainty", "--config", path, "--out",
                   str(tmp_path / "scan.csv")])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags", [
        ["--seed", "-1", "--samples", "100"],
        ["--seed", "3", "--samples", "0"],
        ["--samples", "0"],
    ], ids=["negative-seed", "zero-samples", "zero-samples-without-seed"])
    def test_bad_monte_carlo_flags_exit_2_before_any_output(self, tmp_path, capsys, flags):
        doc = small_scenario_dict()
        del doc["scan"]
        rc = main(["uncertainty", "--config", write_scenario(tmp_path, doc), *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["absent.json", ""], ids=["absent", "directory"])
    def test_missing_file_exit_2(self, tmp_path, capsys, name):
        rc = main(["uncertainty", "--config", str(tmp_path / name)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "section, fields, named",
        [
            (None, {"extra": 1}, "extra"),
            ("quadrature", {"trap_dims": 3}, "trap_dims"),
            ("scan", {"delta21_start_rad": -1e308, "delta21_stop_rad": 1e308},
             "scenario.scan"),
            ("scan", {"v12_values": [0.5, 1.5]}, "scenario.scan"),
            ("scan", {"delta21_stop_rad": 100}, "scenario.scan"),
        ],
        ids=["unknown-key", "retired-key", "overflowing-span", "v12-above-1",
             "unreachable-stop"],
    )
    def test_rejected_scenario_exit_2(self, tmp_path, capsys, section, fields, named):
        doc = small_scenario_dict()
        (doc[section] if section else doc).update(fields)
        rc = main(["uncertainty", "--config", write_scenario(tmp_path, doc)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and named in captured.err
        assert captured.out == ""

    def test_point_detector_scenario(self, capsys):
        rc = main(["uncertainty", "--config", POINT])
        assert rc == 0
        values = parse_report(capsys.readouterr().out)
        assert float(values["delta_c"]) <= 1e-12
        assert float(values["fidelity"]) >= 1.0 - 1e-12


class TestMalusCommand:
    def test_table_values(self, capsys):
        rc = main(["malus", "--points", "3"])
        assert rc == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["alpha_rad", "v12", "concurrence", "sin2_alpha", "difference"]
        assert [float(r[2]) for r in rows] == pytest.approx(
            [0.0, 0.5, 1.0], abs=1e-12
        )
        assert all(float(r[4]) < 1e-12 for r in rows)
        assert rows[0] == ["0", "1", "0", "0", "0"]  # equal analyzers: v12 exactly 1

    def test_other_quarter_wave_phases_accepted(self, capsys):
        rc = main(["malus", "--points", "2", "--delta21", str(-3.0 * np.pi / 2.0)])
        assert rc == 0

    def test_non_quarter_wave_phase_exit_2(self, capsys):
        assert main(["malus", "--delta21", "1.0"]) == 2
        assert main(["malus", "--delta21", str(np.pi)]) == 2
        # delta21 / (pi/2) rounds to an odd integer here, but cos(delta21) is -0.97
        assert main(["malus", "--delta21", "1.413198951909893e+16"]) == 2
        for delta in ("nan", "inf", "-inf"):
            capsys.readouterr()
            assert main(["malus", f"--delta21={delta}"]) == 2
            captured = capsys.readouterr()
            assert "error:" in captured.err
            assert captured.out == ""


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        path = write_scenario(tmp_path, small_scenario_dict())
        outputs = []
        files = []
        for tag in ("a", "b"):
            out = tmp_path / f"scan_{tag}.csv"
            rc = main(["uncertainty", "--config", path, "--out", str(out)])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
            files.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert files[0] == files[1]

    def test_surface_runs_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
        for path in paths:
            assert main(["surface", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestRepeatedCalls:
    def test_one_parser_tree_per_process(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()  # start as a fresh process does
        counts = []
        for argv in (["malus", "--points", "2"],
                     ["surface", "--delta21-points", "2", "--v12-points", "2"],
                     ["state", "--config", BASELINE]):
            before = len(built)
            assert main(argv) == 0
            counts.append(len(built) - before)
        assert counts == [5, 0, 0]  # the root parser and its four subcommands, once

    def test_no_flag_value_carries_over(self, capsys):
        plain = ["uncertainty", "--config", BASELINE]
        assert main(plain + ["--points-theta", "4", "--points-chi", "4"]) == 0
        coarse = capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_info:
            main(["uncertainty"])  # --config missing: argparse exits
        assert exit_info.value.code == 2
        assert main(["surface"]) == 0
        capsys.readouterr()
        assert main(plain) == 0
        in_process = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "heraldsim.cli", *plain],
                               capture_output=True, env=SRC_ENV, check=True)
        assert in_process.encode() == fresh.stdout
        assert in_process != coarse
