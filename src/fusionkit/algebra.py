"""Root-system data for the simple Lie algebras, in exact arithmetic.

Conventions used throughout the package:

* Dynkin nodes are 0-based in code.  Node numbering follows Bourbaki; in E_r
  node 1 hangs off the branch node, index 3.
* The Cartan matrix is ``A[i][j] = (alpha_i, alpha_j^vee)``, so row ``i`` holds
  the Dynkin labels of the simple root ``alpha_i``.
* Roots are stored as integer coordinate vectors in the simple-root basis.
  The labels of ``beta = sum_j c_j alpha_j`` are ``beta_i = sum_j c_j A[j][i]``
  (column sums against the Cartan matrix).
* No bilinear form is built.  The one pairing the package reads is
  ``(lambda, theta) = sum_i a_i^vee lambda_i`` (``RootSystem.theta_pairing``),
  in the normalisation where long roots have ``(beta, beta) = 2``; the full
  form is a cross-check in ``tests/root_reference.py``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import add, floordiv, mod, mul, sub

from .errors import AlgebraMismatch, InvalidRank, NotARoot

# family -> (min rank, max rank or None for unbounded), in family order A..G
RANK_BOUNDS = {
    "A": (1, None),
    "B": (3, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def algebras_up_to(max_rank: int) -> list[AlgebraId]:
    """Every simple algebra with rank <= max_rank, family order A..G."""
    out = []
    for family, (lo, hi) in RANK_BOUNDS.items():
        top = max_rank if hi is None else min(hi, max_rank)
        out.extend(AlgebraId(family, r) for r in range(lo, top + 1))
    return out


class AlgebraId(namedtuple("AlgebraId", "family rank")):
    """A simple Lie algebra named by family letter and rank."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int) -> AlgebraId:
        return cls._make((family, rank))

    @classmethod
    def _make(cls, fields) -> AlgebraId:
        """The one constructor, so `_replace` validates too."""
        family, rank = fields
        if family not in RANK_BOUNDS:
            raise InvalidRank(f"unknown family {family!r}")
        lo, hi = RANK_BOUNDS[family]
        if rank < lo or (hi is not None and rank > hi):
            bound = f"{lo}..{hi}" if hi is not None else f">= {lo}"
            raise InvalidRank(f"{family}{rank}: rank must be {bound}")
        return tuple.__new__(cls, (family, rank))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def integer(text: str) -> int:
    """Read an integer typed as ASCII digits with an optional leading ``-``.

    The one check for every integer read from outside: unlike ``int``, it
    refuses ``+``, ``_`` separators, blanks and non-ASCII digits.  (Its name
    is the one argparse prints when it refuses a value.)
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_algebra(text: str) -> AlgebraId:
    """Parse names like ``"B4"`` or ``"g2"`` (case-insensitive)."""
    text = text.strip()
    if len(text) < 2 or text[0].upper() not in RANK_BOUNDS:
        raise InvalidRank(f"cannot parse algebra name {text!r}")
    try:
        rank = integer(text[1:])
    except ValueError:
        raise InvalidRank(f"cannot parse algebra name {text!r}") from None
    return AlgebraId(text[0].upper(), rank)


def _dynkin(algebra: AlgebraId) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The Cartan matrix and each node's comark divisor, from one record of the Dynkin diagram.

    The record is the simple edges, each setting ``A[i][j] = A[j][i] = -1``,
    and for B, C, F and G the one multiple bond ``(i, j, m)`` from the long
    node i to the short node j, which sets ``A[i][j] = -m``.  With long roots
    of length 2, the comark of node i is a_i^vee = c_i(theta) (alpha_i,
    alpha_i) / 2, and (alpha_i, alpha_i) = 2 / m on a short node: the four
    non-simply-laced diagrams are chains, so the short simple roots are the
    nodes on j's side of the multiple bond, each with divisor m, and every
    other node has divisor 1.
    """
    f, r = algebra.family, algebra.rank
    edges = [(i, i + 1) for i in range(r - 1)]
    if f == "D":
        edges[-1] = (r - 3, r - 1)
    elif f == "E":
        # Bourbaki: node 1 hangs off node 3
        edges[:2] = [(0, 2), (1, 3)]
    a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    for i, j in edges:
        a[i][j] = a[j][i] = -1
    divisors = [1] * r
    multiple = {"B": (r - 2, r - 1, 2), "C": (r - 1, r - 2, 2), "F": (1, 2, 2), "G": (0, 1, 3)}.get(f)
    if multiple:
        i, j, m = multiple
        a[i][j] = -m
        for s in range(j, r) if j > i else range(j + 1):
            divisors[s] = m
    return tuple(map(tuple, a)), tuple(divisors)


def _positive_roots(cartan: tuple[tuple[int, ...], ...]) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Positive roots, built height by height from the simple roots.

    Maps the coordinates of each positive root beta to (labels, p), where p_i
    is the length of the alpha_i-string below beta.  That string runs from
    beta - p_i alpha_i to beta + (p_i - beta_i) alpha_i, so the depth
    d_i(beta) that `RootSystem` stores in `Root.depth` is p_i - beta_i, and
    beta + alpha_i is a root exactly when p_i > beta_i; its labels are those
    of beta plus row i of the Cartan matrix.  p_i(alpha_i) = 2: that string
    passes through 0 to -alpha_i.  Above height 1 the strings below a root are
    positive and unbroken, so p_j(gamma) is p_j(gamma - alpha_j) + 1 when
    gamma - alpha_j is a root of the layer below, and 0 otherwise; no p
    exceeds 3.
    """
    r = len(cartan)
    layer = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    found = {alpha: (cartan[i], tuple(2 * x for x in alpha)) for i, alpha in enumerate(layer)}
    while layer:
        above = []
        for beta in layer:
            labels, below = found[beta]
            for i in range(r):
                if below[i] > labels[i] and (gamma := beta[:i] + (beta[i] + 1,) + beta[i + 1 :]) not in found:
                    p = [0] * r
                    for j, c in enumerate(gamma):
                        down = found.get(gamma[:j] + (c - 1,) + gamma[j + 1 :]) if c else None
                        if down is not None:
                            p[j] = down[1][j] + 1
                    if max(p) > 3:
                        raise RuntimeError(f"alpha-string below {gamma} is longer than a root string can be")
                    found[gamma] = (tuple(map(add, labels, cartan[i])), tuple(p))
                    above.append(gamma)
        layer = above
    return found


class Root(namedtuple("Root", "coords labels depth")):
    """A root: simple-root coordinates, the derived Dynkin labels, and the
    depth vector (d_1(beta), ..., d_r(beta)) over the finite nodes 1..r, where
    d_i is the largest u with beta + u alpha_i a root."""

    __slots__ = ()

    @property
    def height(self) -> int:
        return sum(self.coords)

    def __neg__(self) -> Root:
        # the alpha_i-string through -beta is the one through beta, reversed:
        # its depth is the height of beta on it, d_i(beta) + beta_i
        return Root(tuple(-c for c in self.coords), tuple(-l for l in self.labels),
                    tuple(map(add, self.depth, self.labels)))


class RootSystem:
    """Everything derived from the Cartan matrix of one simple algebra.

    Instances are built once per algebra via :func:`build` and shared; treat
    them as immutable, but for ``derived``: the tables read off the instance.
    """

    def __init__(self, algebra: AlgebraId) -> None:
        self.algebra = algebra
        self.derived: dict = {}
        self.rank = algebra.rank
        self.cartan, divisors = _dynkin(algebra)

        found = _positive_roots(self.cartan)
        self.positive_roots = tuple(Root(c, labels, tuple(map(sub, below, labels)))
                                    for c, (labels, below) in sorted(found.items()))
        self.roots = self.positive_roots + tuple(-b for b in self.positive_roots)
        if len(self.positive_roots) != _POSITIVE_COUNTS[algebra.family](algebra.rank):
            raise RuntimeError(f"{algebra}: wrong number of positive roots")

        top = max(self.positive_roots, key=lambda b: b.height)
        if sum(1 for b in self.positive_roots if b.height == top.height) != 1:
            raise RuntimeError(f"{algebra}: highest root is not unique")
        self.highest_root = top
        if any(map(mod, top.coords, divisors)):
            raise RuntimeError(f"{algebra}: comarks {top.coords} over {divisors} are not integers")
        self.comarks = tuple(map(floordiv, top.coords, divisors))
        self.affine_comarks = (1,) + self.comarks
        self.dual_coxeter = 1 + sum(self.comarks)
        # (theta, theta) = sum_i a_i^vee theta_i
        if self.theta_pairing(top.labels) != 2:
            raise RuntimeError(f"{algebra}: highest root does not have length 2")

    # --- pairing with theta ---------------------------------------------

    def theta_pairing(self, lam: tuple[int, ...]) -> int:
        """(lambda, theta) = sum of comark-weighted labels; always an integer."""
        if len(lam) != self.rank:
            raise AlgebraMismatch(f"{self.algebra} needs {self.rank} labels, got {len(lam)}")
        return sum(map(mul, self.comarks, lam))

    # --- roots ----------------------------------------------------------

    def root_at(self, coords: tuple[int, ...]) -> Root:
        """The root of ``rs.roots`` with these simple-root coordinates."""
        for beta in self.roots:
            if beta.coords == coords:
                return beta
        raise NotARoot(f"{coords} is not a root of {self.algebra}")


# positive-root counts, checked by every `RootSystem` construction
_POSITIVE_COUNTS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "E": lambda r: {6: 36, 7: 63, 8: 120}[r],
    "F": lambda r: 24,
    "G": lambda r: 6,
}


_build = lru_cache(maxsize=None)(RootSystem)


def build(algebra: AlgebraId | str) -> RootSystem:
    """Root system for the given algebra (cached per algebra)."""
    if isinstance(algebra, str):
        algebra = parse_algebra(algebra)
    return _build(algebra)
