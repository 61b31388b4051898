"""fusionkit benchmark: one command for every workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fusionkit is imported from its `src/`.
NAME is one of verify-sweep, fuse-exceptional, tadpole-levels, cli-oneshot,
or `all` to run them in turn.  With --trace 0 it prints the end-to-end
metrics, with --trace 1 the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Run it under `python3 -O` to measure the package under -O.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys

from workloads import BENCH, ROOT, WORKLOADS, child_env, python_argv

BUDGET_S = 170  # one workload's run

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
    "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB",
}


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith((".calls", ".tasks", ".enumerated")):
        return "count"
    return {"ms": "ms", "weight": "us", "s": "s"}[re.split(r"[._]", name)[-1]]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One worker in a fresh interpreter; its JSON result with units added."""
    argv = python_argv() + [str(BENCH / "worker.py"), name, str(seed), str(seconds), str(int(trace))]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=BUDGET_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["metrics"] = {k: {"value": v, "unit": unit(k)} for k, v in result["metrics"].items()}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "fusionkit" / "__init__.py").is_file():
        print(f"error: no fusionkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    problems, attempted, failed, metrics = [], 0, 0, {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        problems += result["problems"]
        attempted += result["ops"]
        failed += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for key, metric in result["metrics"].items():
            metrics[prefix + key] = metric
            print(f"{name:16} {key:40} {metric['value']:14.6g} {metric['unit']}")
        print(f"{name:16} {'operations attempted / failed':40} {result['ops']:>14} / {result['failed']}")
    for line in problems[:50]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
