"""Each benchmark workload's op against the benchmark's own output check.

``perfbench/workloads.py`` checks the baseline figures against
``perfbench/reference/`` and the sweep and surface against independent
routes; running each workload's op here makes a change that moves those
figures fail the test suite, not only the benchmark.  A CLI op runs
twice in one process, as the benchmark worker runs it, and both runs
must agree.  The test reads ``perfbench/`` and writes only into its
temporary directory.
"""

import importlib.util
from pathlib import Path

import pytest

from heraldsim import accidental_fraction, count_rate, generated_state
from heraldsim.cli import main

_SOURCE = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("workloads", _SOURCE)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_op_passes_its_check(workload, tmp_path, capsys):
    spec = workloads.generate_inputs(workload, 0, tmp_path)
    if "draws" in spec:
        # the three library calls the benchmark worker makes per draw
        for index, draw in enumerate(spec["draws"]):
            config, quadrature = workloads.build_config(draw)
            report = generated_state(config, quadrature)
            rates = count_rate(config, report.v12, report.delta21_nominal)
            output = workloads.sweep_output(
                index, report, rates, accidental_fraction(config, rates.corrected))
            assert workloads.check_output(workload, output, spec) is None
        return
    # twice in one process, as the benchmark worker runs its ops back to back
    outputs = []
    for _ in range(2):
        output = {"rc": main(spec["argv"]), "stdout": capsys.readouterr().out, "csv": None}
        if spec["out_csv"] is not None:
            csv_path = Path(spec["out_csv"])
            output["csv"] = csv_path.read_text(encoding="utf-8")
            csv_path.unlink()
        assert workloads.check_output(workload, output, spec) is None
        outputs.append(output)
    assert outputs[0] == outputs[1]
