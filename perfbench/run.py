"""heraldsim benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload baseline_scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from ``--seed`` (before any clock
starts), times ``setup_s`` over fresh interpreters, runs the measured
loop in a child process (``worker.py``) for ``--seconds``, then checks
every distinct output the program produced.  With ``--trace 1`` the
loop's second half runs under the span tracer and the per-layer metrics
are reported instead of the end-to-end ones.

Prints a table of every metric with its unit, the machine and
provenance record, the physics figures produced, and, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
full record goes to ``perfbench/out/results/``.  See README.md.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, check_output, generate_inputs, physics_figures  # noqa: E402

#: fresh interpreters started per run to time set-up; the median is reported
SETUP_PROBES = 9
#: a measured process that has not finished this long after its loop is killed
WORKER_GRACE_S = 120
#: the tail percentile is the highest one with at least this many samples beyond it
TAIL_BEYOND = 10

#: the end-to-end metrics declared in BENCHMARK.json, with their units
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "cpu_per_op_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(inputs, *extra):
    return [sys.executable, str(BENCH / "worker.py"), "--inputs", str(inputs), *extra]


def _setup_seconds(inputs):
    """Fresh interpreter start to ready: imports plus loading the inputs."""
    started = time.monotonic()
    proc = subprocess.run(_worker(inputs, "--setup"), cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=WORKER_GRACE_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1]) - started


def _measured_run(inputs, seconds, trace, result, spans):
    proc = subprocess.run(
        _worker(inputs, "--seconds", str(seconds), "--trace", str(trace),
                "--result", str(result), "--spans", str(spans)),
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        raise BenchError(f"measured run failed:\n{proc.stderr}")
    return json.loads(result.read_text(encoding="utf-8"))


def tail(samples):
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples beyond it.

    Never below the median, for runs too short to leave TAIL_BEYOND
    samples beyond it.
    """
    ordered = sorted(samples)
    index = max(len(ordered) - TAIL_BEYOND - 1, (len(ordered) - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def _blas():
    """BLAS library and its thread count, as the numpy in use reports them."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": info.get("name"), "version": info.get("version"),
              "configuration": info.get("openblas configuration"),
              "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                record["threads"] = getter()
                break
    return record


def machine_record(seed):
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def run_workload(workload, seed, seconds, trace):
    """One run of one workload; returns its full record."""
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        spec = generate_inputs(workload, seed, workdir)
        inputs = workdir / "inputs.json"
        # probes before and after the measured loop sample two machine states
        setup = [_setup_seconds(inputs) for _ in range(SETUP_PROBES // 2)]
        run = _measured_run(inputs, seconds, trace, workdir / "result.json",
                            OUT / f"spans-{workload}.npz")
        setup += [_setup_seconds(inputs) for _ in range(SETUP_PROBES - len(setup))]
        for output in run["outputs"].values():
            if "csv_file" in output:
                path = output.pop("csv_file")
                output["csv"] = Path(path).read_text(encoding="utf-8") if path else None
        problems = {d: check_output(workload, out, spec) for d, out in run["outputs"].items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for d in run["digest"] if problems[d] is not None)
    attempted = len(run["digest"])
    untraced = [w for w, t in zip(run["wall"], run["traced"]) if not t]
    cpu = [c for c, t in zip(run["cpu"], run["traced"]) if not t]
    tail_value, tail_pct = tail(untraced)
    # op_p50_s and op_tail_s are printed and recorded but not declared: on a
    # machine that alternates between two speed states, a percentile of a run
    # jumps between them, and its spread over seeds exceeds any allowed bound
    op_p50 = statistics.median(untraced)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(untraced) / math.fsum(untraced),
        "cpu_per_op_s": math.fsum(cpu) / len(cpu),
        "peak_rss_mb": run["maxrss_kb"] / 1024.0,
    }
    report = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
              for name, value in metrics.items()}
    if trace:
        traced = [w for w, t in zip(run["wall"], run["traced"]) if t]
        report = {name: {"value": value, "unit": unit}
                  for name, (value, unit) in run["trace"].items()}
        report["trace.overhead_s"] = {
            "value": statistics.median(traced) - op_p50, "unit": "s"}
    passing = [run["outputs"][d] for d in dict.fromkeys(run["digest"]) if problems[d] is None]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "loop": "closed, one caller",
        "attempted": attempted, "failed": failed,
        "failed_fraction": failed / attempted,
        "problems": sorted({p for p in problems.values() if p is not None}),
        "untraced_ops": len(untraced),
        "op_p50_s": op_p50,
        "op_tail_s": tail_value,
        "tail_percentile": tail_pct,
        "setup_samples": setup,
        "end_to_end": metrics,
        "metrics": report,
        "machine": machine_record(seed),
        "physics": physics_figures(workload, passing),
    }
    name = f"{workload}-seed{seed}-trace{trace}.json"
    (OUT / "results" / name).write_text(json.dumps(record, indent=2), encoding="utf-8")
    return record


def _print_record(record):
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"{record['seconds']:g} s  {record['loop']}")
    lines = [(name, entry["value"], entry["unit"], "") for name, entry in record["metrics"].items()]
    lines += [
        ("op_p50_s", record["op_p50_s"], "s",
         f"median of {record['untraced_ops']} untraced ops, not gated"),
        ("op_tail_s", record["op_tail_s"], "s",
         f"p{record['tail_percentile']:.4g} of {record['untraced_ops']} untraced ops, not gated"),
        ("failed_fraction", record["failed_fraction"], "1",
         f"{record['failed']} of {record['attempted']} ops"),
    ]
    for name, value, unit, note in lines:
        if name == "setup_s":
            note = f"median of {SETUP_PROBES} fresh interpreters"
        print(f"  {name:40s} {value:<14.6g} {unit:6s} {note}")
    for problem in record["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print(f"  machine: {json.dumps(record['machine'])}")
    print(f"  physics: {json.dumps(record['physics'])}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "heraldsim" / "__init__.py").is_file():
        print(f"error: no heraldsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, args.trace) for w in workloads]
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        _print_record(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": entry
                   for r in records for name, entry in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
