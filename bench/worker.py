"""One pass of one workload in a fresh interpreter.

Usage: python3 worker.py WORKLOAD SEED SECONDS TRACED  (fusionkit on PYTHONPATH)

Sets the workload up, runs whole rounds until SECONDS have passed, checks
the outputs and the checkers, and prints one JSON line with the operation
counts, the problems found, and the metrics: end-to-end when TRACED is 0,
per-layer and the tracing overhead when TRACED is 1.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import subprocess
import sys
import time

import selfcheck
from spans import Tracer
from workloads import BENCH, ROOT, WORKLOADS, child_env, python_argv

clock = time.perf_counter
# the tail percentile: p90 keeps ten samples beyond it from 100 samples on,
# and every workload has more (per round in process, per run for the CLI)
TAIL = 90
MIN_SETUP_PROBES = 10


def _stats(s) -> dict[str, float]:
    return {"calls": s.calls, "items": s.items, "total_s": s.total_s, "self_s": s.self_s}


def _per_round(setup: dict, total: dict, rounds: int) -> dict[str, dict[str, float]]:
    """Per layer: the set-up's share plus the mean round."""
    return {
        name: {k: setup.get(name, {}).get(k, 0) + (v - setup.get(name, {}).get(k, 0)) / rounds
               for k, v in stats.items()}
        for name, stats in total.items()
    }


def _layer_metrics(per: dict, task_s: list[float], probes: list[dict]) -> dict[str, float]:
    def get(name, key):
        return per.get(name, {}).get(key, 0)

    def us_per_call(name):
        return get(name, "self_s") * 1e6 / get(name, "calls") if get(name, "calls") else 0.0

    def probe_ms(a, b):
        return statistics.median(p[b] - p[a] for p in probes) * 1e3 if probes else 0.0

    return {
        "algebra.build.calls": get("algebra.build", "calls"),
        "algebra.build.ms": get("algebra.build", "total_s") * 1e3,
        "weights.enumerate_level.calls": get("weights.enumerate_level", "calls"),
        "weights.enumerate_level.ms": get("weights.enumerate_level", "total_s") * 1e3,
        "weights.enumerated": get("weights.enumerate_level", "items"),
        "adjoint_rules.decompose.calls": get("adjoint_rules.decompose", "calls"),
        "adjoint_rules.decompose.self_ms": get("adjoint_rules.decompose", "self_s") * 1e3,
        "adjoint_rules.decompose.us_per_weight": us_per_call("adjoint_rules.decompose"),
        "oracle.kac_walton_fusion.calls": get("oracle.kac_walton_fusion", "calls"),
        "oracle.kac_walton_fusion.self_ms": get("oracle.kac_walton_fusion", "self_s") * 1e3,
        "oracle.kac_walton_fusion.us_per_weight": us_per_call("oracle.kac_walton_fusion"),
        "tadpole.enum.calls": get("tadpole.enum", "calls"),
        "tadpole.enum.self_ms": get("tadpole.enum", "self_s") * 1e3,
        "tadpole.formula.calls": get("tadpole.formula", "calls"),
        "tadpole.formula.self_ms": get("tadpole.formula", "self_s") * 1e3,
        "verify.tasks": get("verify.task", "calls"),
        "verify.task_p50_ms": statistics.median(task_s) * 1e3 if task_s else 0.0,
        "verify.task_max_ms": max(task_s) * 1e3 if task_s else 0.0,
        "cli.interpreter_ms": probe_ms("launched", "start"),
        "cli.import_ms": probe_ms("start", "imported"),
        "cli.command_ms": probe_ms("command", "done"),
    }


def setup_probe(wl) -> float:
    """Seconds a fresh interpreter takes to import the workload's module and build its algebras."""
    argv = python_argv() + [str(BENCH / "setup_probe.py"), wl.module, *wl.algebras]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=child_env(),
                          timeout=60, check=True)
    return float(proc.stdout)


def measure(wl, fk, state, seconds: float, tracer: Tracer) -> tuple[dict, list[str]]:
    """Untraced pass: whole rounds for SECONDS, a set-up probe after each.

    The machine's speed can drift by half for tens of seconds, which moves a
    run's median with the share of the run spent slow.  Every round repeats
    the same operations, so each operation is taken at its fastest over the
    run; wall_s, ops_per_s and, for in-process workloads, the percentiles
    come from those per-operation times.
    """
    rounds: list[list[float]] = []
    setups: list[float] = []
    ops = failed = 0
    start = clock()
    while clock() - start < seconds or not rounds:
        op_s: list[float] = []
        tasks = tracer.stats.get(wl.op_layer)
        seen = len(tasks.samples) if tasks else 0
        n, f = wl.run_round(fk, state, op_s, False)
        if tasks:
            op_s = tasks.samples[seen:]
        rounds.append(op_s)
        ops += n
        failed += f
        if len(rounds) == 1:
            # the peak over set-up and one round: later rounds repeat the
            # same work, and garbage left for the cycle collector would make
            # a whole-run peak depend on the run length
            who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        setups.append(setup_probe(wl))
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(setup_probe(wl))

    problems = []
    if sum(map(len, rounds)) != ops or len({len(r) for r in rounds}) != 1:
        problems.append(f"{sum(map(len, rounds))} operations timed in {len(rounds)} rounds, {ops} counted")
    best = [min(times) for times in zip(*rounds)]
    latency = best if wl.in_process else [t for r in rounds for t in r]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(best),
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": statistics.median(latency) * 1e3,
        "op_tail_ms": statistics.quantiles(latency, n=100)[TAIL - 1] * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    return {"metrics": metrics, "ops": ops, "failed": failed}, problems


def traced_pass(wl, fk, state, seconds: float, tracer: Tracer) -> tuple[dict, list[str]]:
    """Traced pass: untraced and traced rounds alternate, so that drift in
    machine speed falls on both alike; the first round is untraced."""
    setup = tracer.snapshot()
    plain_s: list[float] = []
    traced_s: list[float] = []
    ops = failed = 0
    start = clock()
    while clock() - start < seconds or not traced_s:
        tracing = len(traced_s) < len(plain_s)
        if wl.in_process:
            tracer.enable(tracing)
        t = clock()
        n, f = wl.run_round(fk, state, [], tracing)
        (traced_s if tracing else plain_s).append(clock() - t)
        ops += n
        failed += f
    tracer.enable(False)
    total = tracer.snapshot()

    if wl.in_process:
        per = _per_round({k: _stats(s) for k, s in setup.items()},
                         {k: _stats(s) for k, s in total.items()}, len(traced_s))
    else:
        summed: dict[str, dict[str, float]] = {}
        for probe in state["probes"]:
            for layer, stats in probe["layers"].items():
                acc = summed.setdefault(layer, dict.fromkeys(stats, 0))
                for k, v in stats.items():
                    acc[k] += v
        per = _per_round({}, summed, len(traced_s))
    task_s = total["verify.task"].samples if "verify.task" in total else []
    metrics = _layer_metrics(per, task_s, state.get("probes", []))
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    problems = wl.check_layers(metrics) if hasattr(wl, "check_layers") else []
    return {"metrics": metrics, "ops": ops, "failed": failed}, problems


def main() -> int:
    name, seed, seconds, traced = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    wl = WORKLOADS[name]
    fk = importlib.import_module("fusionkit")
    importlib.import_module(wl.module)
    tracer = Tracer()
    if traced and wl.in_process:
        tracer.install()
    elif wl.op_layer and not traced:
        tracer.install([wl.op_layer])
    for algebra in wl.algebras:
        fk.build(algebra)
    state = wl.prepare(fk, seed)

    result, problems = (traced_pass if traced else measure)(wl, fk, state, seconds, tracer)
    problems += wl.check(fk, state)
    problems += [f"self-check: {p}" for p in selfcheck.run(fk)]
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
