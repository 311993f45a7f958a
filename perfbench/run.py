"""petalstar benchmark: one workload per invocation, each op gated for
correctness.

    python3 perfbench/run.py --workload {certify,sweep,analysis,casework} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` it carries the per-layer metrics of a traced run
instead.  The line before it is a JSON report with the run's details (seed,
op count, tail percentile, error rate, environment).  Exit status is 0 on a
completed run, also when ops failed their gates (``correct`` is then
false), and 1 when no result could be produced.

Each workload runs in its own fresh process (``worker.py``).  Without
tracing, set-up is timed in several fresh processes and reported as their
median.  See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Names of ``workloads.WORKLOADS``; this process never imports the library.
WORKLOADS = ("certify", "sweep", "analysis", "casework")
#: The whole invocation must end within this many seconds.
DEADLINE_S = 170.0
#: Tail percentiles tried, highest first (see ``tail_percentile``).
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: Highest tail percentile each workload reports, so that two commits
#: compare the same percentile at the benchmark's run length.
TAIL_CAP = {"certify": 100.0, "sweep": 99.0, "analysis": 95.0, "casework": 95.0}
#: Fresh-process set-ups timed per untraced run, the measured run's included.
SETUP_SAMPLES = {"certify": 3, "sweep": 5, "analysis": 5, "casework": 5}
#: Length of the windows of whole passes a timed run is cut into.
WINDOW_S = 2.0


def faster_half(passes):
    """The passes of the faster half of the run's windows, by op rate.

    Other tenants of a shared machine slow parts of a run, by up to a third
    on the VM where the bounds were set; they never speed one up.  Windows
    are whole passes, so each holds the same mix of op shapes.
    """
    windows, current = [], []
    for p in passes:
        current.append(p)
        if sum(q["wall_s"] for q in current) >= WINDOW_S:
            windows.append(current)
            current = []
    if current:
        windows.append(current)

    def rate(window):
        return sum(len(q["latencies_s"]) for q in window) / sum(q["wall_s"] for q in window)

    windows.sort(key=rate, reverse=True)
    return [p for w in windows[: (len(windows) + 1) // 2] for p in w]


def tail_percentile(latencies, cap: float):
    """``(percentile, value, samples_beyond)``: the highest percentile up to
    ``cap`` with at least ten samples beyond it (nearest rank).  Runs too
    short for any report their maximum, with no sample beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    for p in TAIL_LADDER:
        idx = math.ceil(p / 100.0 * n) - 1
        if p <= cap and n - idx - 1 >= 10:
            return p, lat[idx], n - idx - 1
    return 100.0, lat[-1], 0


def cache_sizes() -> dict:
    """L2 and L3 sizes of CPU 0, as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def spawn(mode: str, args, deadline: float, trace_out: Path | None = None) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ)
    # single-threaded BLAS: the workloads' only threads are those of search
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    spawned = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd + ["--spawned-ns", str(spawned)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"{mode} worker exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "petalstar" / "__init__.py").is_file():
        print(f"no petalstar sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            trace_out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            res = spawn("trace", args, deadline, trace_out)
            setups = [res["setup_s"]]
        else:
            setups = [spawn("setup", args, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES[args.workload] - 1)]
            res = spawn("run", args, deadline)
            setups.append(res["setup_s"])
    except (RuntimeError, ValueError) as exc:  # ValueError: unreadable worker output
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p["latencies_s"]) for p in res["passes"])
    failed = sum(p["failed"] for p in res["passes"])
    kept = faster_half(res["passes"])
    latencies = [x for p in kept for x in p["latencies_s"]]
    pct, tail, beyond = tail_percentile(latencies, TAIL_CAP[args.workload])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": attempted,
        "error_rate": metric(failed / attempted, "ratio"),
        "timed_ops": len(latencies),
        "tail": {"percentile": pct, "samples_beyond": beyond, "samples": len(latencies)},
        "setup_samples_s": setups,
        "env": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": res["numpy"],
            "cache": cache_sizes(),
        },
    }
    if args.trace:
        report["trace_file"] = str(trace_out.relative_to(ROOT))
        report["spans"] = res["spans"]
        metrics = {name: metric(v, u) for name, (v, u) in res["layer_metrics"].items()}
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "ops_per_s": metric(
                (len(latencies) - sum(p["failed"] for p in kept))
                / sum(p["wall_s"] for p in kept), "1/s"),
            "op_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
            "op_tail_ms": metric(tail * 1e3, "ms"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MiB"),
        }
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
