"""Measured process of one benchmark run (started by ``run.py``).

Imports heraldsim, loads the generated inputs, then runs the workload's
op in a closed loop: one caller, the next op starts when the previous
one returned, no threads of its own.  numpy keeps its default BLAS
threading.  Each op's wall time and process CPU time (user + sys, all
threads) are taken around the op alone; its output is reduced to a
digest, and each distinct output is kept once (CSV files on disk) for
``run.py`` to check after this process has exited.

With ``--setup`` it stops once ready and prints the monotonic clock
reading, so the parent can time a fresh interpreter from start to ready.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

WARM_UP_S = 2.0


def _load(spec):
    """Import the program and load the workload's inputs.

    Returns ``(prepare, call, collect, ops per pass)``: ``call(index)``
    is the op and the only timed part; ``prepare`` and ``collect`` set
    up and read back its files and stdout.
    """
    import heraldsim
    import heraldsim.cli

    if "draws" in spec:
        from workloads import build_config, sweep_output

        configs = [build_config(draw) for draw in spec["draws"]]

        def call(index):
            config, quadrature = configs[index]
            report = heraldsim.generated_state(config, quadrature)
            rates = heraldsim.count_rate(config, report.v12, report.delta21_nominal)
            return report, rates, heraldsim.accidental_fraction(config, rates.corrected)

        def collect(index, result):
            output = sweep_output(index, *result)
            return _digest(json.dumps(output, sort_keys=True)), output

        return (lambda index: None), call, collect, len(configs)

    if "scenario" in spec:
        heraldsim.load_scenario(spec["scenario"])
    argv = spec["argv"]
    out_csv = spec["out_csv"]
    stdout = io.StringIO()

    def prepare(index):
        if out_csv is not None and os.path.exists(out_csv):
            os.remove(out_csv)
        stdout.seek(0)
        stdout.truncate()

    def call(index):
        with contextlib.redirect_stdout(stdout):
            try:
                return heraldsim.cli.main(argv)
            except SystemExit as exc:
                return exc.code

    def collect(index, rc):
        output = {"rc": rc, "stdout": stdout.getvalue(), "csv_file": None}
        has_csv = out_csv is not None and os.path.exists(out_csv)
        digest = _digest(json.dumps(output, sort_keys=True), out_csv if has_csv else None)
        kept = os.path.join(os.path.dirname(out_csv or "."), f"out-{digest}.csv")
        if has_csv:
            # keep each distinct file once, on disk: holding it in memory
            # would add the benchmark's own allocations to peak_rss_mb
            if not os.path.exists(kept):
                os.replace(out_csv, kept)
            output["csv_file"] = kept
        return digest, output

    return prepare, call, collect, 1


def _digest(text, path=None):
    """SHA-1 of ``text`` followed by the bytes of the file at ``path``, read in chunks."""
    digest = hashlib.sha1(text.encode("utf-8"))
    if path is not None:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                digest.update(chunk)
    return digest.hexdigest()


def _peak_rss_kb():
    """High-water resident set of this process image, in KiB.

    Linux carries ``ru_maxrss`` across exec, so a child started by a larger
    parent would report the parent's peak; ``VmHWM`` starts afresh at exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _measure(op, seconds, traced, tracer, record):
    """Whole passes over the inputs until ``seconds`` of loop time have passed."""
    prepare, call, collect, per_pass = op
    started = time.perf_counter()
    while True:
        for index in range(per_pass):
            prepare(index)
            if tracer is not None:
                tracer.current_op = len(record["wall"])
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                result, error = call(index), None
            except Exception as exc:  # a failed op is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            wall1, cpu1 = time.perf_counter(), time.process_time()
            if error:
                digest, output = _digest(error), {"error": error}
            else:
                digest, output = collect(index, result)
            record["outputs"].setdefault(digest, output)
            record["wall"].append(wall1 - wall0)
            record["cpu"].append(cpu1 - cpu0)
            record["digest"].append(digest)
            record["traced"].append(traced)
        if time.perf_counter() - started >= seconds:
            return


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args()

    spec = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    op = _load(spec)
    if args.setup:
        # CLOCK_MONOTONIC is system-wide on Linux, so the parent can subtract
        print(time.monotonic(), flush=True)
        return 0

    prepare, call, collect, per_pass = op
    # warm-up, not measured: lazy imports, first-call set-up, and the first
    # second or so in which ops of a fresh process run up to twice as slow
    warm_until = time.perf_counter() + WARM_UP_S
    index = 0
    while index == 0 or time.perf_counter() < warm_until:
        prepare(index % per_pass)
        try:
            collect(index % per_pass, call(index % per_pass))
        except Exception:  # the measured loop counts and reports failing ops
            pass
        index += 1
    record = {"wall": [], "cpu": [], "digest": [], "traced": [], "outputs": {}}
    if args.trace:
        import tracer as tracing

        tracing.self_check()
        _measure(op, args.seconds / 2, False, None, record)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced_from = len(record["wall"])
        _measure(op, args.seconds / 2, True, tracer, record)
        tracer.save(args.spans)
        record["trace"] = tracer.metrics(ops=len(record["wall"]) - traced_from)
    else:
        _measure(op, args.seconds, False, None, record)
    record["maxrss_kb"] = _peak_rss_kb()
    Path(args.result).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
