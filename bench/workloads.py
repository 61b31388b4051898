"""The four benchmark workloads.

Each workload names the module and algebras its set-up imports and builds,
makes its inputs from the seed, runs one whole round of operations at a time,
and checks its outputs after the timed pass against the references in
`reference.py` (the denumerant and the fusion-ring properties) or against the
opposite fusionkit route, never against stored output.

A round always holds the same operations, so the share of failed operations
is the same in every run whatever the seed and the run length.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import reference as ref

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
clock = time.perf_counter


def python_argv() -> list[str]:
    """This interpreter with the same -O setting, for child processes."""
    return [sys.executable] + ["-O"] * sys.flags.optimize


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _random_weight(rng: random.Random, name: str, level: int) -> tuple[int, ...]:
    """A dominant weight with (theta, mu) <= level, drawn from the typed comarks."""
    comarks = ref.dual_kac_labels(name)[1:]
    while True:
        mu = tuple(rng.randint(0, level // a) for a in comarks)
        if sum(a * x for a, x in zip(comarks, mu)) <= level:
            return mu


class VerifySweep:
    """run_verify over every algebra of rank <= 4 at levels <= 7.

    One operation is one verify task; its time is taken by the verify.task
    span.  The sweep's inputs are fixed by (max rank, max level), so the seed
    does not change them.
    """

    name = "verify-sweep"
    module = "fusionkit"
    algebras = ("A1", "A2", "A3", "A4", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2")
    max_rank, max_level = 4, 7
    op_layer = "verify.task"
    in_process = True

    def prepare(self, fk, seed: int) -> dict:
        return {}

    def run_round(self, fk, state: dict, op_s: list[float], traced: bool) -> tuple[int, int]:
        report = fk.run_verify(self.max_rank, self.max_level)
        state["report"] = report
        return report.tasks, 0

    def expected_tasks(self) -> int:
        n = len(self.algebras)
        return n * (self.max_level - 1) + n * (self.max_level + 1) + 1

    def check(self, fk, state: dict) -> list[str]:
        report = state["report"]
        bad = [f"verify mismatch: {m}" for m in report.messages]
        if not report.ok:
            bad.append("verify report is not ok")
        if report.tasks != self.expected_tasks():
            bad.append(f"verify ran {report.tasks} tasks, expected {self.expected_tasks()}")
        return bad

    def rules_weights(self) -> int:
        """Weights the rules suite compares per sweep: sum of T0(k) over its grids."""
        return sum(
            ref.vacuum_tadpoles(a, self.max_level)[k]
            for a in self.algebras
            for k in range(2, self.max_level + 1)
        )

    def check_layers(self, per_round: dict[str, float]) -> list[str]:
        """The rules suite must compare every weight of every grid it sweeps."""
        weights = self.rules_weights()
        bad = []
        for layer in ("adjoint_rules.decompose.calls", "oracle.kac_walton_fusion.calls"):
            if per_round[layer] != weights:
                bad.append(f"rules suite: {per_round[layer]} {layer} per round, denumerant counts {weights} weights")
        if per_round["verify.tasks"] != self.expected_tasks():
            bad.append(f"{per_round['verify.tasks']} verify tasks timed per round, expected {self.expected_tasks()}")
        return bad


class FuseExceptional:
    """decompose on every weight of one level grid of each exceptional algebra.

    One operation is one weight.  The seed fixes the order of the weights and
    the sample that the folding oracle rechecks after the timed pass.
    """

    name = "fuse-exceptional"
    module = "fusionkit"
    grids = (("E6", 8), ("E7", 9), ("E8", 13), ("F4", 13), ("G2", 30))
    algebras = tuple(name for name, _ in grids)
    oracle_sample = 40
    op_layer = None
    in_process = True

    def prepare(self, fk, seed: int) -> dict:
        rng = random.Random(seed)
        items = []
        for name, level in self.grids:
            rs = fk.build(name)
            items += [(name, rs, mu) for mu in fk.enumerate_level(rs, level)]
        rng.shuffle(items)
        sample = rng.sample(range(len(items)), self.oracle_sample * len(self.grids))
        results = {name: {} for name, _ in self.grids}
        return {"items": items, "sample": sample, "results": results}

    def run_round(self, fk, state: dict, op_s: list[float], traced: bool) -> tuple[int, int]:
        results = state["results"]
        decompose = fk.decompose
        for name, rs, mu in state["items"]:
            t = clock()
            entries = decompose(rs, mu).entries
            op_s.append(clock() - t)
            results[name][mu.labels] = entries
        return len(state["items"]), 0

    def check(self, fk, state: dict) -> list[str]:
        bad = []
        for name, level in self.grids:
            bad += ref.check_fusion_grid(name, level, state["results"][name])
        for i in state["sample"]:
            name, rs, mu = state["items"][i]
            want = fk.kac_walton_fusion(rs, mu)
            if state["results"][name][mu.labels] != want:
                bad.append(f"{name}: theta x {mu} by rules differs from folding {want}")
        return bad


class TadpoleLevels:
    """Adjoint and vacuum tadpoles at every level from 2 to a cap.

    One operation is one (algebra, level, kind) value.  Enumeration runs for
    E8, E7 and A7; the closed forms for high-rank A, B, C, D and for E6.  The
    seed fixes the order of the operations.
    """

    name = "tadpole-levels"
    module = "fusionkit"
    enumerated = (("E8", 100), ("E7", 70), ("A7", 50))
    closed = (("B50", 300), ("C40", 300), ("D30", 300), ("A40", 300), ("E6", 1000))
    algebras = tuple(name for name, _ in enumerated)
    op_layer = None
    in_process = True
    functions = {
        ("enum", "adjoint"): "adjoint_tadpole_enum",
        ("enum", "zero"): "zero_tadpole_enum",
        ("formula", "adjoint"): "adjoint_tadpole_formula",
        ("formula", "zero"): "zero_tadpole_formula",
    }

    def prepare(self, fk, seed: int) -> dict:
        items = []
        for method, grid in (("enum", self.enumerated), ("formula", self.closed)):
            for name, cap in grid:
                arg = fk.build(name) if method == "enum" else fk.parse_algebra(name)
                for k in range(2, cap + 1):
                    for kind in ("adjoint", "zero"):
                        items.append((self.functions[method, kind], arg, name, kind, k))
        random.Random(seed).shuffle(items)
        return {"items": items, "values": {}}

    def run_round(self, fk, state: dict, op_s: list[float], traced: bool) -> tuple[int, int]:
        values = state["values"]
        for fname, arg, name, kind, k in state["items"]:
            fn = getattr(fk, fname)
            t = clock()
            value = fn(arg, k)
            op_s.append(clock() - t)
            values[fname, name, kind, k] = value
        return len(state["items"]), 0

    def check(self, fk, state: dict) -> list[str]:
        values = state["values"]
        bad = []
        for fname in self.functions.values():
            got = {(name, kind, k): v for (f, name, kind, k), v in values.items() if f == fname}
            bad += [f"{fname}: {line}" for line in ref.check_tadpoles(got)]
        if len(values) != len(state["items"]):
            bad.append(f"{len(values)} tadpole values for {len(state['items'])} operations")
        return bad


# algebras of rank <= 7 plus E8, as `table nontrivial --check` sweeps them
_CONDITION_ALGEBRAS = (
    [f"A{r}" for r in range(1, 8)] + [f"B{r}" for r in range(3, 8)]
    + [f"C{r}" for r in range(2, 8)] + [f"D{r}" for r in range(4, 8)]
    + ["E6", "E7", "F4", "G2", "E8"]
)
# the one operation expected to fail until its fault is fixed: a negative
# level must exit 3 whatever the method, and the oracle method exits 0
KNOWN_FAULT = ("tadpole", "A2", "--level", "-1", "--method", "oracle")


class CliOneshot:
    """A seeded mix of short `fusionkit` invocations, one subprocess at a time.

    Closed loop with one client: each invocation starts when the previous one
    has exited.  One operation is one invocation.  The seed draws the ranks,
    levels and weights of twenty-one slots and their order; every round of
    the run repeats those invocations.
    """

    name = "cli-oneshot"
    module = "fusionkit.cli"
    algebras = ("E8", "F4", "E6", "G2", "B3")
    op_layer = None
    in_process = False  # operations run in child processes

    def prepare(self, fk, seed: int) -> dict:
        rng = random.Random(seed)
        mix = self._mix(rng)
        rng.shuffle(mix)
        return {"mix": mix, "runs": [], "probes": []}

    @staticmethod
    def _mix(rng: random.Random) -> list[tuple[str, ...]]:
        w = lambda name, level: ",".join(map(str, _random_weight(rng, name, level)))
        t = lambda rank, top: ",".join(str(rng.randint(0, top)) for _ in range(rank))
        e8, f4, e6 = w("E8", 4), w("F4", 6), t(6, 2)
        g2_level = rng.randint(3, 9)
        return [
            ("fuse", "E8", "--weight", e8, "--level", "4"),
            ("fuse", "E8", "--weight", e8, "--level", "4", "--method", "oracle"),
            ("fuse", "F4", "--weight", f4, "--level", "6", "--json"),
            ("fuse", "F4", "--weight", f4, "--level", "6", "--method", "oracle", "--json"),
            ("fuse", "E6", "--weight", e6, "--tensor"),
            ("fuse", "E6", "--weight", e6, "--tensor", "--method", "oracle"),
            ("fuse", "G2", "--weight", w("G2", g2_level), "--level", str(g2_level)),
            ("fuse", "B3", "--weight", t(3, 3), "--tensor", "--method", "oracle", "--json"),
            ("tadpole", f"B{rng.randint(3, 8)}", "--level", str(rng.randint(2, 60))),
            ("tadpole", "E7", "--level", str(rng.randint(8, 20)), "--method", "enum"),
            ("tadpole", f"D{rng.randint(4, 7)}", "--level", str(rng.randint(2, 14)), "--method", "all"),
            ("tadpole", "E6", "--level", str(rng.randint(0, 40)), "--zero"),
            ("tadpole", f"C{rng.randint(2, 6)}", "--level", str(rng.randint(0, 30)),
             "--zero", "--method", "enum", "--json"),
            ("tadpole", "E8", "--level", str(rng.randint(2, 20)), "--method", "all"),
            ("tadpole", "G2", "--level", str(rng.randint(2, 10)), "--method", "oracle"),
            ("tadpole", "F4", "--level", str(rng.randint(2, 20))),
            ("table", "b-tadpoles", "--check"),
            ("table", "g2-offdiag", "--check"),
            ("table", "nontrivial", "--check"),
            ("verify", "--max-rank", "2", "--max-level", "3"),
            KNOWN_FAULT,
        ]

    def run_round(self, fk, state: dict, op_s: list[float], traced: bool) -> tuple[int, int]:
        mix = state["mix"]
        env = child_env()
        # traced rounds launch through the probe, which adds the layer stats
        launcher = python_argv() + ([str(BENCH / "cli_probe.py")] if traced else ["-m", "fusionkit.cli"])
        failed = 0
        for args in mix:
            t = clock()
            proc = subprocess.run(launcher + list(args), capture_output=True,
                                  text=True, cwd=ROOT, env=env, timeout=60)
            op_s.append(clock() - t)
            stderr = proc.stderr
            if traced:
                stderr, _, record = stderr.rpartition("#bench ")
                probe = json.loads(record)
                probe["launched"] = t
                state["probes"].append(probe)
            if args == KNOWN_FAULT:
                failed += proc.returncode != 3 or proc.stdout != ""
            else:
                state["runs"].append((args, proc.returncode, proc.stdout, stderr))
        return len(mix), failed

    def check(self, fk, state: dict) -> list[str]:
        bad = []
        for args, code, out, err in state["runs"]:
            problem = self._check_one(fk, args, code, out, err)
            if problem:
                bad.append(f"fusionkit {' '.join(args)}: {problem} (exit {code}, stderr {err.strip()!r})")
        for (r, k), value in fk.B_TADPOLE_TABLE.items():
            if value != ref.tadpole(f"B{r}", "adjoint", k):
                bad.append(f"B_TADPOLE_TABLE B{r} level {k} = {value}, denumerant {ref.tadpole(f'B{r}', 'adjoint', k)}")
        return bad

    @staticmethod
    def _opt(args, flag):
        return args[args.index(flag) + 1] if flag in args else None

    def _check_one(self, fk, args, code, out, err) -> str | None:
        cmd, json_mode = args[0], "--json" in args
        if cmd == "tadpole" and args[1] == "F4" and self._opt(args, "--method") is None:
            return None if code == 5 and out == "" else "expected exit 5 (no closed form)"
        if code != 0:
            return "expected exit 0"
        if cmd == "fuse":
            return self._check_fuse(fk, args, out, json_mode)
        if cmd == "tadpole":
            name, level = args[1], int(self._opt(args, "--level"))
            kind = "zero" if "--zero" in args else "adjoint"
            want = ref.tadpole(name, kind, level)
            if self._opt(args, "--method") == "all":
                lines = dict(line.split(": ", 1) for line in out.splitlines())
                if lines.get("enumeration") != str(want):
                    return f"enumeration should be {want} (denumerant)"
                if lines.get("formula") not in (str(want), "unavailable (no closed form)"):
                    return f"formula should be {want} (denumerant) or unavailable"
                return None
            got = json.loads(out)["value"] if json_mode else int(out)
            return None if got == want else f"printed {got}, denumerant {want}"
        if cmd == "verify":
            # rank <= 2: A1, A2, C2, G2; rules at levels 2..3, tadpoles at 0..3, tables once
            want = 4 * 2 + 4 * 4 + 1
            return None if out == f"verify: {want} tasks, ok\n" else f"expected {want} tasks, ok"
        table = args[1]
        if table == "nontrivial":
            seen = []
            for line in out.splitlines():
                m = re.fullmatch(r"(\w+): \d+ conditions match", line)
                if not m:
                    return f"unexpected line {line!r}"
                seen.append(m.group(1))
            return None if seen == _CONDITION_ALGEBRAS else f"checked {seen}"
        n = len(fk.B_TADPOLE_TABLE if table == "b-tadpoles" else fk.G2_OFFDIAG_TABLE)
        what = "cells" if table == "b-tadpoles" else "rows"
        return None if out.startswith(f"{n}/{n} {what} match") else f"expected {n}/{n} {what} match"

    @staticmethod
    def _check_fuse(fk, args, out, json_mode) -> str | None:
        rs = fk.build(args[1])
        mu = fk.parse_weight(CliOneshot._opt(args, "--weight"))
        if json_mode:
            got = {fk.parse_weight(k): v for k, v in json.loads(out)["entries"].items()}
        else:
            got = {fk.parse_weight(k): int(v) for k, v in (line.split(": ") for line in out.splitlines())}
        oracle = CliOneshot._opt(args, "--method") == "oracle"
        if "--tensor" in args:
            want = fk.decompose_tensor(rs, mu).entries if oracle else fk.racah_speiser_tensor(rs, mu)
        else:
            aff = fk.affinize(rs, mu, int(CliOneshot._opt(args, "--level")))
            want = fk.decompose(rs, aff).entries if oracle else fk.kac_walton_fusion(rs, aff)
        return None if got == want else f"printed {got}, opposite route gives {want}"


WORKLOADS = {w.name: w for w in (VerifySweep(), FuseExceptional(), TadpoleLevels(), CliOneshot())}
