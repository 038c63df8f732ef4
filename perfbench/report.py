"""Run every workload untraced and traced, and report both kinds of metric.

    python3 perfbench/report.py [--seed 1] [--seconds N]

Each run is its own process (``run.py``), one after another.  Prints every
end-to-end metric of every workload by name with its unit, the numbers of
requests and passes behind ``req_p50_ms`` and ``req_p99_ms``, and writes the
traced per-layer metrics of all workloads to ``.perfbench/layers.json`` as
stable JSON (sorted keys).  ``--seconds`` defaults to ``run_seconds`` from
BENCHMARK.json.  Exits 1 if any command's output check failed.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys

from run import OUT_DIR, ROOT


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    sizes = re.search(r"commands per pass (\d+)  untraced passes (\d+)", lines[0])
    return json.loads(lines[-1]), "{} requests, median of {} passes each".format(*sizes.groups())


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="Report every metric of every workload.")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args()

    layers, all_correct = {}, True
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            result, sizes = run_once(name, args.seed, args.seconds, trace)
            all_correct &= result["correct"]
            if trace:
                layers[name] = result["metrics"]
                continue
            for metric, m in result["metrics"].items():
                note = f"  ({sizes})" if metric.startswith("req_") else ""
                print(f"{name:16s} {metric:12s} {m['value']:14.6f} {m['unit']}{note}")
            print(f"{name:16s} {'failed_ops':12s} {result['failed']}/{result['attempted']}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "layers.json"
    path.write_text(json.dumps({"seed": args.seed, "workloads": layers}, sort_keys=True, indent=1) + "\n")
    print(f"per-layer table: {path.relative_to(ROOT)}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
