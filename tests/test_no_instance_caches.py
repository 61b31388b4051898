"""No table derived from a root system outlives it.  A function of the package
that takes a `RootSystem` is never wrapped in `functools.lru_cache` or
`functools.cache`: such a cache keys on the instance and keeps it alive.  The
tables go in the instance's `derived` slot instead, and are freed with it."""

import ast
import gc
import weakref
from pathlib import Path

import pytest

import fusionkit
from fusionkit.adjoint_rules import decompose
from fusionkit.algebra import RootSystem, parse_algebra
from fusionkit.oracle import kac_walton_fusion
from fusionkit.tables import nontrivial_conditions
from fusionkit.tadpole import adjoint_tadpole_enum, zero_tadpole_enum
from fusionkit.weights import enumerate_level

PACKAGE = Path(fusionkit.__file__).resolve().parent
CACHES = {"lru_cache", "cache"}


def _is_cache(node):
    """Whether the expression is `lru_cache` or `cache`, bare or called, by name or attribute."""
    if isinstance(node, ast.Call):
        node = node.func
    return (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) in CACHES


def _takes_root_system(fn):
    args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    return any(a.arg == "rs" or (a.annotation and "RootSystem" in ast.unparse(a.annotation)) for a in args)


def _cached_on_instances(tree):
    """Names of the functions taking a root system that a cache wraps, as decorator or by call."""
    takers = {fn.name: fn for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _takes_root_system(fn)}
    found = {name for name, fn in takers.items() if any(map(_is_cache, fn.decorator_list))}
    found.update(arg.id for call in ast.walk(tree) if isinstance(call, ast.Call) and _is_cache(call.func)
                 for arg in call.args if isinstance(arg, ast.Name) and arg.id in takers)
    return found


def test_no_cache_keys_on_a_root_system():
    cached = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in sorted(_cached_on_instances(ast.parse(path.read_text(), str(path))))]
    assert cached == []


@pytest.mark.parametrize("source", [
    "@lru_cache(maxsize=None)\ndef table(rs): ...",
    "@functools.cache\ndef table(system: RootSystem, k: int): ...",
    "def table(rs): ...\ntable = lru_cache(maxsize=None)(table)",
    "def table(*, rs): ...\ncached = functools.cache(table)",
])
def test_the_guard_sees_a_planted_cache(source):
    assert _cached_on_instances(ast.parse(source)) == {"table"}


def test_the_guard_passes_name_keyed_caches():
    source = "@lru_cache(maxsize=None)\ndef poly(algebra: AlgebraId): ...\n_build = lru_cache(maxsize=None)(RootSystem)"
    assert _cached_on_instances(ast.parse(source)) == set()


def test_hand_built_root_systems_are_freed():
    # the rules, the oracle, the condition table and the tadpole counts each read
    # every instance; whatever they derive from it must not keep it alive
    refs = []
    for name in ("A2", "B3", "C3", "G2", "F4", "E6"):
        rs = RootSystem(parse_algebra(name))
        for mu in enumerate_level(rs, 3):
            decompose(rs, mu)
            kac_walton_fusion(rs, mu)
        nontrivial_conditions(rs)
        zero_tadpole_enum(rs, 40)
        adjoint_tadpole_enum(rs, 90)
        refs.append(weakref.ref(rs))
    del rs
    gc.collect()
    assert [ref() is None for ref in refs] == [True] * len(refs)
