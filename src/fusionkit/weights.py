"""Finite and affine weights, parsing and formatting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .algebra import RootSystem
from .errors import LevelTooSmall

Weight = tuple[int, ...]


@dataclass(frozen=True)
class AffineWeight:
    """Affine weight at a fixed level; labels[0] is the zeroth label."""

    level: int
    labels: tuple[int, ...]

    @property
    def finite(self) -> Weight:
        return self.labels[1:]

    def __str__(self) -> str:
        body = ",".join(str(x) for x in self.finite)
        return f"({self.level}; {body})"


def affinize(rs: RootSystem, lam: Weight, level: int) -> AffineWeight:
    """Extend a dominant finite weight by its zeroth label at this level."""
    if any(x < 0 for x in lam):
        raise ValueError(f"{lam} is not dominant")
    zero = level - rs.theta_pairing(lam)
    if zero < 0:
        raise LevelTooSmall(f"{lam} needs level >= {rs.theta_pairing(lam)}, got {level}")
    return AffineWeight(level, (zero,) + tuple(lam))


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


def nonzero_affine_labels(aff: AffineWeight) -> int:
    return sum(1 for x in aff.labels if x != 0)


def parse_weight(text: str) -> Weight:
    """Parse "1,0,2" into (1, 0, 2)."""
    parts = [p.strip() for p in text.split(",")]
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"cannot parse weight {text!r}") from None


def format_weight(lam: Weight) -> str:
    return ",".join(str(x) for x in lam)
