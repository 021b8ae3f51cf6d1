"""Benchmark of lvfront: one workload per call, one result line.

    python3 bench/run.py --workload critical_front --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --self-test

Set-up is measured from outside: after one untimed start (which fills
the disk cache and the bytecode cache), SETUPS fresh workers are started
one after another, each timed from process start to `ready` (import of
lvfront plus one warm-up call); the last of them runs the workload.
Every worker has one compute thread.  The last line of standard output
is the JSON result; with --trace 0 it holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
#: timed set-ups per run; setup_s is their median
SETUPS = 3
#: a run that has not ended by then is killed
DEADLINE_S = 170.0
#: environment that holds every BLAS and OpenMP pool to one thread
ONE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "cert_ms_p50": "ms", "cert_ms_p99": "ms"}


class BenchError(Exception):
    pass


class Worker:
    """A worker process that is killed at the run's deadline."""

    def __init__(self, args, deadline):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")] + args,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, **ONE_THREAD, "PYTHONHASHSEED": "0"})
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self.timer.start()

    def read_line(self, expect=None):
        line = self.proc.stdout.readline().strip()
        if not line or (expect is not None and line != expect):
            self.close()
            raise BenchError(f"worker ended with code {self.proc.returncode} "
                             f"before sending {expect or 'its result'}")
        return line

    def send(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def close(self):
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        self.proc.wait()
        self.timer.cancel()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{workload}-{os.getpid()}"
    workdir.mkdir()
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", str(workdir),
            "--trace-file", str(OUT / f"trace-{workload}-{seed}.json")]
    try:
        setups, latencies = [], []
        for k in range(SETUPS + 1):
            t0 = time.perf_counter()
            worker = Worker(args, deadline)
            worker.read_line("ready")
            if k > 0:
                setups.append(time.perf_counter() - t0)
            if not trace:
                # each worker times an interleaved share of the certificates
                worker.send(f"latency {SETUPS + 1} {k}")
                latencies += json.loads(worker.read_line())
            if k < SETUPS:
                worker.send("exit")
                worker.close()
        worker.send("run")
        raw = json.loads(worker.read_line())
        worker.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = raw["attempted"] + len(latencies)
    if trace:
        import tracing
        units = tracing.LAYER_UNITS
        values = raw["metrics"]
    else:
        latencies += raw["latencies_ms"]
        units = END_TO_END_UNITS
        values = {**raw["metrics"], "setup_s": statistics.median(setups),
                  "cert_ms_p50": statistics.median(latencies),
                  # from 1000 samples up, the 99th percentile has ten beyond it
                  "cert_ms_p99": statistics.quantiles(latencies, n=100)[98]}
    if raw["error"]:
        print(f"check failed: {raw['error']}", file=sys.stderr)
    return {
        "correct": raw["correct"],
        "attempted": attempted,
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("front_overshoot", "critical_front",
                                           "pulse_continuation", "certify_sweep"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run every check on reduced inputs and on corrupted outputs")
    args = ap.parse_args(argv)
    if args.self_test:
        return subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                              env={**os.environ, **ONE_THREAD}).returncode
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
