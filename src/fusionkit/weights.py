"""Finite and affine weights, parsing and formatting."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from operator import mul

from .algebra import RootSystem, integer
from .errors import AlgebraMismatch, LevelMismatch, LevelTooSmall

Weight = tuple[int, ...]
_FUSION_FLOOR = 2  # the lowest level of adjoint fusion, and of the adjoint tadpole


class AffineWeight(namedtuple("AffineWeight", "level labels")):
    """Affine weight at a fixed level; labels[0] is the zeroth label."""

    __slots__ = ()

    @property
    def finite(self) -> Weight:
        return self.labels[1:]

    def __str__(self) -> str:
        return f"({self.level}; {format_weight(self.finite)})"


def affinize(rs: RootSystem, lam: Weight, level: int) -> AffineWeight:
    """Extend a dominant finite weight by its zeroth label at this level."""
    if any(x < 0 for x in lam):
        raise ValueError(f"{lam} is not dominant")
    zero = level - rs.theta_pairing(lam)
    if zero < 0:
        raise LevelTooSmall(f"{lam} needs level >= {rs.theta_pairing(lam)}, got {level}")
    return AffineWeight(level, (zero,) + tuple(lam))


def stable_level(rs: RootSystem, mu: Weight) -> int:
    """The lowest level at which fusion of mu with theta is the tensor product.

    theta (x) mu holds mu + theta at (theta, mu) + 2, and no root beta has
    (theta, beta) > 2, so at k = (theta, mu) + 2 no weight is dropped and
    every zeroth label is >= 2.
    """
    return rs.theta_pairing(mu) + 2


def _check_affine(rs: RootSystem, mu: AffineWeight) -> None:
    """The input check of both adjoint fusion routes: level, length, dominance, level sum."""
    if mu.level < _FUSION_FLOOR:
        raise LevelTooSmall(f"adjoint fusion needs level >= {_FUSION_FLOOR}, got {mu.level}")
    if len(mu.labels) != rs.rank + 1:
        raise AlgebraMismatch(f"affine weight {mu.labels} needs {rs.rank + 1} labels")
    if min(mu.labels) < 0:
        raise ValueError(f"affine weight {mu.labels} is not dominant")
    if sum(map(mul, rs.affine_comarks, mu.labels)) != mu.level:
        raise LevelMismatch(f"affine weight {mu.labels} does not lie at level {mu.level}")


def enumerate_level(rs: RootSystem, level: int) -> Iterator[AffineWeight]:
    """All dominant affine weights at the given level, finite part ascending."""
    comarks = rs.comarks
    r = rs.rank

    def rec(i: int, budget: int, prefix: tuple[int, ...]) -> Iterator[AffineWeight]:
        if i == r:
            yield AffineWeight(level, (budget,) + prefix)
            return
        for x in range(budget // comarks[i] + 1):
            yield from rec(i + 1, budget - comarks[i] * x, prefix + (x,))

    yield from rec(0, level, ())


def parse_weight(text: str) -> Weight:
    """Parse "1,0,2" into (1, 0, 2)."""
    parts = [p.strip() for p in text.split(",")]
    try:
        return tuple(integer(p) for p in parts)
    except ValueError:
        raise ValueError(f"cannot parse weight {text!r}") from None


def format_weight(lam: Weight) -> str:
    return ",".join(str(x) for x in lam)
