"""One workload in one fresh interpreter.

The worker imports lvfront from the checkout's `src/`, makes one untimed
warm-up call, writes `ready` on its standard output and then answers
commands read from its standard input, one JSON line each:

    latency K k time every K-th of the workload's latency certificates,
                from number k on (ms each)
    run         run the workload's timed rounds and its checks, then end
    exit        end

Anything lvfront prints goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))


def import_lvfront():
    import lvfront

    if Path(lvfront.__file__).resolve().parent != SRC / "lvfront":
        raise ImportError(f"lvfront imported from {lvfront.__file__}, not from {SRC}")
    return lvfront


def warm_up(lv):
    """One small certify and two iterations: loads every lazy scipy path
    the workloads use."""
    p = lv.SystemParams(1.0, 0.5, 0.5, 1.0)
    cert = lv.certify(p, 3.0)
    lv.iterate(cert.envelope, p, 3.0, lv.OperatorConfig(max_iters=2))


def timed_rounds(wl, budget_s, after_round=None):
    """As many whole rounds as budget_s holds at the workload's nominal
    round time (at least one), so that the count does not depend on how
    fast this run happens to be; after_round runs outside the timed part."""
    times, attempted, failed, result = [], 0, 0, None
    for _ in range(max(1, int(budget_s // wl.nominal_round_s))):
        t0 = time.perf_counter()
        n, f, result = wl.round()
        times.append(time.perf_counter() - t0)
        attempted += n
        failed += f
        if after_round is not None:
            after_round()
    return times, attempted, failed, result


def certificate_latencies(wl, stride, start):
    """Times of the workload's latency certificates start, start + stride,
    ...; none for a workload whose rounds time their certificates."""
    out = []
    for call in wl.latency_calls()[start::stride]:
        t0 = time.perf_counter()
        call()
        out.append(1e3 * (time.perf_counter() - t0))
    return out


def run(wl, seconds, trace, trace_file):
    import checks
    import tracing

    latencies = []
    if not trace:
        times, attempted, failed, result = timed_rounds(wl, seconds)
        # each sweep certificate at its median round, so that a slow spell
        # in one round moves neither the median nor the tail
        latencies = [statistics.median(ts) for ts in zip(*wl.round_latencies_ms)]
        metrics = {
            "wall_s": statistics.mean(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        counts = None
    else:
        times, attempted, failed, _ = timed_rounds(wl, seconds / 2.0)
        tracer = tracing.Tracer()
        rounds = []
        tracer.install()
        try:
            ttimes, n, f, result = timed_rounds(
                wl, seconds / 2.0, lambda: rounds.append(tracer.take()))
        finally:
            tracer.uninstall()
        attempted += n
        failed += f
        per_round = [tracing.layer_metrics(spans) for spans in rounds]
        metrics = dict(per_round[-1])
        metrics["trace.overhead_s"] = statistics.median(ttimes) - statistics.median(times)
        counts = [{k: m[k] for k in tracing.COUNT_METRICS} for m in per_round]
        with open(trace_file, "w") as fh:
            json.dump(tracing.spans_to_json(rounds[-1]), fh)
    correct, error = True, None
    try:
        wl.check(wl.output(result))
        if counts is not None:
            checks.require(all(c == counts[0] for c in counts),
                           f"per-layer counts differ between traced rounds: {counts}")
    except checks.CheckFailed as exc:
        correct, error = False, str(exc)
    return {"correct": correct, "error": error, "attempted": attempted,
            "failed": failed, "metrics": metrics, "latencies_ms": latencies}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file", required=True)
    args = ap.parse_args(argv)

    channel, sys.stdout = sys.stdout, sys.stderr
    lv = import_lvfront()
    warm_up(lv)
    channel.write("ready\n")
    channel.flush()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    for line in sys.stdin:
        cmd, *rest = line.split()
        if cmd == "latency":
            reply = certificate_latencies(wl, *map(int, rest))
        elif cmd == "run":
            reply = run(wl, args.seconds, bool(args.trace), args.trace_file)
        else:
            break
        channel.write(json.dumps(reply) + "\n")
        channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
