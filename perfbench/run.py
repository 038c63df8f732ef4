"""Benchmark of the nakayama CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Sends each command of the workload to ``nakayama.cli.main`` in this process,
one after another, and repeats the pass until the time is up.  Times are
read on ``clock.SpeedClock``, in reference seconds, so that they do not
move with the speed of a shared host.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes, prints the per-layer metrics and
writes them, with every span, to ``.perfbench/``.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from clock import SpeedClock
from tracer import LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 7

END_TO_END = {
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Set up in a fresh interpreter and print the reference seconds it took.
_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads, clock; "
    "c = clock.SpeedClock().start(); s = workloads.setup(sys.argv[2], c.now)[0]; c.stop(); print(s)"
)


def probe_setup():
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(workloads.HERE), str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Run:
    """One benchmark run: the commands of a pass, the loaded CLI, and every
    failure seen so far."""

    def __init__(self, cli, digests, cmds, clock=time.perf_counter):
        self.cli, self.digests, self.cmds, self.clock = cli, digests, cmds, clock
        self.attempted = 0
        self.passes = 0  # untraced passes
        self.failures = []

    def record(self, argv, rc, out):
        self.attempted += 1
        reason = self.digests.check(argv, rc, out)
        if reason is not None:
            self.failures.append((" ".join(argv), reason))

    def one_pass(self, tracer=None):
        """Latencies of one pass in seconds; output checks run outside them."""
        latencies = []
        for argv in self.cmds:
            rc, out, dt = workloads.run_command(self.cli, argv, self.clock)
            latencies.append(dt)
            self.record(argv, rc, out)
            if tracer is not None:
                tracer.counts["cli.bytes_out"] += len(out.encode())
        self.passes += tracer is None
        return latencies


def percentile(values, q):
    """Nearest-rank percentile: one request's latency, never an
    interpolation between two requests of different sizes."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def measure(run, seconds):
    """Untraced passes for ``seconds``; returns the timing metrics."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run.one_pass())
        elapsed = time.perf_counter() - t0
        # Start another pass only if a typical one still fits.
        if elapsed + elapsed / len(passes) > seconds:
            break
    walls = [sum(p) for p in passes]
    # A request's latency is its median over the passes; a repeat that ran
    # into a slow moment of the host does not decide the percentiles.
    requests = [statistics.median(dts) for dts in zip(*passes)]
    return {
        "wall_s": statistics.median(walls),
        "req_p50_ms": percentile(requests, 50) * 1000,
        "req_p99_ms": percentile(requests, 99) * 1000,
    }


def measure_traced(run, seconds):
    """Alternate untraced and traced passes for ``seconds``; per-layer
    metrics are medians over the traced passes."""
    plain, traced, tables, spans = [], [], [], []
    t0 = time.perf_counter()
    while True:
        plain.append(sum(run.one_pass()))
        tracer = Tracer(run.clock)
        tracer.install()
        try:
            traced.append(sum(run.one_pass(tracer)))
        finally:
            tracer.uninstall()
        tables.append(tracer.layer_metrics())
        spans.append(tracer.spans)
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(traced) > seconds:
            break
    metrics = {k: statistics.median(t[k] for t in tables) for k in tables[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return metrics, traced, spans


def write_trace(workload, seed, metrics, traced, spans):
    """Write the per-layer table as stable JSON, and the spans beside it."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}"
    layers = OUT_DIR / f"layers-{stem}.json"
    layers.write_text(json.dumps(
        {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in metrics.items()},
        sort_keys=True, indent=1,
    ) + "\n")
    doc = {"workload": workload, "seed": seed, "traced_pass_s": traced, "spans": spans}
    (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return layers


def benchmark(cmds, seconds, trace):
    """Set up, then measure the commands for ``seconds``.

    Returns (run, metrics, traced pass seconds, spans, host slowdown); the
    traced passes and spans are empty without tracing.
    """
    setup_samples = [] if trace else [probe_setup() for _ in range(SETUP_PROBES)]
    _, cli, warm = workloads.setup(SRC)
    clock = SpeedClock().start()
    try:
        run = Run(cli, workloads.Digests(), cmds, clock.now)
        for argv, rc, out in warm:
            run.record(argv, rc, out)
        if trace:
            return (run, *measure_traced(run, seconds), clock.slowdown())
        metrics = measure(run, seconds)
    finally:
        clock.stop()
    metrics["setup_s"] = statistics.median(setup_samples)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run, metrics, [], [], clock.slowdown()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "nakayama" / "cli.py").is_file():
        sys.stderr.write(f"error: no nakayama sources under {SRC}\n")
        return 2

    cmds = workloads.commands(args.workload, args.seed)
    run, metrics, traced, spans, slowdown = benchmark(cmds, args.seconds, args.trace)
    units = LAYER_METRICS if args.trace else END_TO_END
    print(f"workload {args.workload}  seed {args.seed}  commands per pass {len(cmds)}"
          f"  untraced passes {run.passes}"
          f"  host slowdown {slowdown:.3f}")
    for name in sorted(metrics):
        print(f"  {name:45s} {metrics[name]:14.6f} {units[name]}")
    print(f"  {'failed_ops':45s} {len(run.failures)}/{run.attempted}")
    if args.trace:
        path = write_trace(args.workload, args.seed, metrics, traced, spans)
        print(f"traced passes {len(traced)}; per-layer table in {path.relative_to(ROOT)}, spans beside it")
    for cmd, reason in run.failures[:10]:
        sys.stderr.write(f"failed: {cmd}: {reason}\n")

    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
