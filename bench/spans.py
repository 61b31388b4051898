"""Per-layer spans and counts, taken from outside the package.

A Tracer wraps public fusionkit functions where the package looks them up:
every module attribute under `fusionkit` that is bound to the function gets
the wrapper, so calls from inside the package are seen too.  Each call (for
a generator, each `next`) is a span; a layer's self time is its span time
minus the time of traced spans nested inside it.  Spans are aggregated in
memory per layer name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

# layer name -> public functions (module, attribute) counted under it
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "algebra.build": (("fusionkit.algebra", "build"),),
    "weights.enumerate_level": (("fusionkit.weights", "enumerate_level"),),
    "adjoint_rules.decompose": (("fusionkit.adjoint_rules", "decompose"),),
    "oracle.kac_walton_fusion": (("fusionkit.oracle", "kac_walton_fusion"),),
    "tadpole.enum": (
        ("fusionkit.tadpole", "adjoint_tadpole_enum"),
        ("fusionkit.tadpole", "zero_tadpole_enum"),
    ),
    "tadpole.formula": (
        ("fusionkit.tadpole", "adjoint_tadpole_formula"),
        ("fusionkit.tadpole", "zero_tadpole_formula"),
    ),
    # the three task bodies run_verify dispatches to, one call per task
    "verify.task": (
        ("fusionkit.verify", "check_rules_vs_oracle"),
        ("fusionkit.verify", "check_tadpole_methods"),
        ("fusionkit.verify", "check_reference_tables"),
    ),
}


@dataclass
class LayerStats:
    calls: int = 0
    items: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    samples: list[float] = field(default_factory=list)

    def copy(self) -> "LayerStats":
        return LayerStats(self.calls, self.items, self.total_s, self.self_s, list(self.samples))


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        self._stack: list[float] = []  # child time of each open span
        self._wrapped: list[tuple] = []  # (original, wrapper)

    def install(self, names=None) -> None:
        """Wrap the functions of the named layers (all layers by default)."""
        for name in LAYERS if names is None else names:
            stats = self.stats.setdefault(name, LayerStats())
            for module, attr in LAYERS[name]:
                fn = getattr(importlib.import_module(module), attr)
                wrapper = self._wrap(fn, stats)
                self._rebind(fn, wrapper)
                self._wrapped.append((fn, wrapper))

    def enable(self, on: bool) -> None:
        """Put the wrappers back (on) or the original functions (off)."""
        for fn, wrapper in self._wrapped:
            if on:
                self._rebind(fn, wrapper)
            else:
                self._rebind(wrapper, fn)

    def snapshot(self) -> dict[str, LayerStats]:
        return {name: s.copy() for name, s in self.stats.items()}

    @staticmethod
    def _rebind(old, new) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "fusionkit" or modname.startswith("fusionkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)

    def _close(self, stats: LayerStats, start: float) -> None:
        dur = time.perf_counter() - start
        child = self._stack.pop()
        stats.total_s += dur
        stats.self_s += dur - child
        stats.samples.append(dur)
        if self._stack:
            self._stack[-1] += dur

    def _wrap(self, fn, stats: LayerStats):
        clock = time.perf_counter
        stack = self._stack
        close = self._close

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stats.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    start = clock()
                    stack.append(0.0)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(stats, start)
                    stats.items += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats.calls += 1
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                close(stats, start)

        return wrapper
