"""One workload in one fresh process; started by ``run.py``, not by hand.

Modes:

* ``setup``: import the library, generate the inputs, run one untimed
  warm-up op, and report the set-up time only.
* ``run``: set up, then run whole passes of ops, one at a time (a closed
  loop), until ``--seconds`` have passed; report each pass's op latencies.
* ``trace``: set up, then run the same fixed list of ops twice, untraced and
  traced, and report the per-layer metrics from the traced spans.

Set-up time runs from ``--spawned-ns`` (the parent's ``CLOCK_MONOTONIC``
just before it started this process) to the first timed op.  The result is
one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import petalstar  # noqa: E402

if not Path(petalstar.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"petalstar imported from {petalstar.__file__}, not from {SRC}")

import tracing  # noqa: E402
from workloads import WORKLOADS, certify_op  # noqa: E402


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


#: Distinct ops generated for a timed run (whole passes, at least this many).
DISTINCT_OPS = 2048


def make_inputs(workload, seed: int, passes: int = 1, min_ops: int = 0):
    """At least ``passes`` passes holding at least ``min_ops`` ops."""
    rng = np.random.default_rng(seed)
    out, ops = [], 0
    while len(out) < passes or ops < min_ops:
        out.append(workload.make_pass(rng))
        ops += len(out[-1])
    return out


def run_ops(workload, ops, tracer):
    """Run ``ops`` in order; returns ``(latencies_s, failed, wall_s)``."""
    latencies, failed = [], 0
    start = time.perf_counter()
    for i, inp in enumerate(ops):
        tracer.op_id = i
        t0 = time.perf_counter()
        try:
            tracer.call("op", workload.op, inp, tracer)
        except Exception as exc:  # a failed op is counted, never ends the run
            failed += 1
            print(f"op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        latencies.append(time.perf_counter() - t0)
    return latencies, failed, time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    if args.mode == "trace":
        # both phases together take about --seconds
        inputs = make_inputs(wl, args.seed, max(1, round(args.seconds / 2.0 / wl.pass_s)))
    else:
        # a fixed stock of inputs, so set-up does not grow with --seconds;
        # a long run reuses it cyclically
        inputs = make_inputs(wl, args.seed, min_ops=DISTINCT_OPS)
    run_ops(wl, inputs[0][:1], tracing.NullTracer())  # warm-up op
    setup_s = (now_ns() - args.spawned_ns) / 1e9

    out = {"setup_s": setup_s, "numpy": np.__version__}
    if args.mode == "run":
        timed, wall = [], 0.0
        while wall < args.seconds:
            lat, bad, dt = run_ops(wl, inputs[len(timed) % len(inputs)], tracing.NullTracer())
            timed.append({"latencies_s": lat, "failed": bad, "wall_s": dt})
            wall += dt
        out["passes"] = timed
    elif args.mode == "trace":
        ops = [inp for p in inputs for inp in p]
        _, _, plain_wall = run_ops(wl, ops, tracing.NullTracer())
        tracer = tracing.Tracer()
        lat, failed, wall = run_ops(wl, ops, tracer)
        baseline = None
        if wl.name == "certify":
            # the single-threaded reference for search.thread_speedup
            tracer.op_id = -1
            try:
                tracer.call("baseline.op", certify_op, ops[0], tracer, threads=1,
                            prefix="baseline.")
            except Exception as exc:
                failed += 1
                print(f"baseline failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            baseline = sum(s.wall_s for s in tracer.spans
                           if s.name.startswith("baseline.search."))
        metrics = tracing.layer_metrics(tracer.spans, len(ops), baseline)
        # the same ops ran untraced and traced: 1 - traced rate / untraced rate
        metrics["trace.overhead_frac"] = (1.0 - plain_wall / wall, "ratio")
        if args.trace_out:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(args.trace_out)
        out.update(passes=[{"latencies_s": lat, "failed": failed, "wall_s": wall}],
                   layer_metrics=metrics, spans=len(tracer.spans))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
