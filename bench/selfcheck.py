"""Planted faults that every checker of the benchmark must reject.

Each plant copies a correct output, breaks it in one way, and confirms that
the checker that guards it reports a problem.  A checker that lets a plant
through checks nothing, so the run is marked incorrect.
"""

from __future__ import annotations

import copy

import reference as ref
from workloads import CliOneshot, VerifySweep


def _grid_plants(fk) -> list[str]:
    name, level = "G2", 5
    rs = fk.build(name)
    good = {mu.labels: dict(fk.decompose(rs, mu).entries) for mu in fk.enumerate_level(rs, level)}
    missed = [f"correct {name} grid rejected: {p}" for p in ref.check_fusion_grid(name, level, good)]
    mu, entries = next((mu, e) for mu, e in good.items() if len(e) > 2)
    nu = next(n for n in entries if n != mu[1:])

    def plant(what, edit):
        bad = copy.deepcopy(good)
        edit(bad)
        if not ref.check_fusion_grid(name, level, bad):
            missed.append(f"planted decomposition with {what} passed")

    plant("a broken theta symmetry", lambda g: g[mu].__setitem__(nu, 2))
    plant("a weight above the level", lambda g: g[mu].__setitem__((level, 0), 1))
    plant("a wrong diagonal coefficient", lambda g: g[mu].__setitem__(mu[1:], g[mu].get(mu[1:], 0) + 1))

    def beyond_rank(g):
        # symmetric, diagonal untouched: only the rank bound can catch it
        back = next(m for m in g if m[1:] == nu)
        g[mu][nu] = g[back][mu[1:]] = rs.rank + 1

    plant("a multiplicity above the rank", beyond_rank)
    plant("a missing weight", lambda g: g.pop(mu))
    return missed


def _tadpole_plants() -> list[str]:
    missed = []
    true = ref.tadpole("E8", "adjoint", 12)
    if ref.check_tadpoles({("E8", "adjoint", 12): true}):
        missed.append("correct E8 tadpole rejected")
    if not ref.check_tadpoles({("E8", "adjoint", 12): true + 1}):
        missed.append("planted wrong E8 tadpole passed")
    if not ref.check_tadpoles({("B50", "zero", 999): ref.tadpole("B50", "adjoint", 999)}):
        missed.append("planted adjoint value for a vacuum tadpole passed")
    return missed


def _cli_plants(fk) -> list[str]:
    cli = CliOneshot()
    cases = [
        (("fuse", "G2", "--weight", "1,0", "--level", "3"), 0, "0,1: 1\n1,0: 2\n", "wrong fuse output"),
        (("tadpole", "B4", "--level", "7"), 0, "221\n", "wrong tadpole output"),
        (("tadpole", "E8", "--level", "9", "--method", "all"), 0,
         "formula: unavailable (no closed form)\nenumeration: 1\n", "wrong enumeration"),
        (("tadpole", "F4", "--level", "3"), 0, "12\n", "a formula where none exists"),
    ]
    missed = []
    for args, code, out, what in cases:
        if cli._check_one(fk, args, code, out, "") is None:
            missed.append(f"planted {what} passed")
    true = ref.tadpole("B4", "adjoint", 7)
    if cli._check_one(fk, ("tadpole", "B4", "--level", "7"), 0, f"{true}\n", "") is not None:
        missed.append("correct tadpole output rejected")
    return missed


def _verify_plants() -> list[str]:
    sweep = VerifySweep()
    weights = sweep.rules_weights()
    good = {"adjoint_rules.decompose.calls": weights, "oracle.kac_walton_fusion.calls": weights,
            "verify.tasks": sweep.expected_tasks()}
    missed = ["correct verify counts rejected"] if sweep.check_layers(good) else []
    if not sweep.check_layers(dict(good, **{"oracle.kac_walton_fusion.calls": weights - 1})):
        missed.append("planted short rules sweep passed")
    return missed


def run(fk) -> list[str]:
    """Problems found with the checkers themselves; empty when all is well."""
    return _grid_plants(fk) + _tadpole_plants() + _cli_plants(fk) + _verify_plants()
