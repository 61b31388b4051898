"""Root-system data for the simple Lie algebras, in exact arithmetic.

Conventions used throughout the package:

* Dynkin nodes are 0-based in code.  Node numbering follows Bourbaki; for the
  exceptional families the branch node of E_r is index 1.
* The Cartan matrix is ``A[i][j] = (alpha_i, alpha_j^vee)``, so row ``i`` holds
  the Dynkin labels of the simple root ``alpha_i``.
* Roots are stored as integer coordinate vectors in the simple-root basis.
  The labels of ``beta = sum_j c_j alpha_j`` are ``beta_i = sum_j c_j A[j][i]``
  (column sums against the Cartan matrix).
* The bilinear form is normalised so long roots have ``(beta, beta) = 2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import AlgebraMismatch, InvalidRank, NotARoot

FAMILIES = "ABCDEFG"

# (min rank, max rank or None for unbounded)
RANK_BOUNDS = {
    "A": (1, None),
    "B": (3, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True)
class AlgebraId:
    """A simple Lie algebra named by family letter and rank."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in RANK_BOUNDS:
            raise InvalidRank(f"unknown family {self.family!r}")
        lo, hi = RANK_BOUNDS[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            bound = f"{lo}..{hi}" if hi is not None else f">= {lo}"
            raise InvalidRank(f"{self.family}{self.rank}: rank must be {bound}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def parse_algebra(text: str) -> AlgebraId:
    """Parse names like ``"B4"`` or ``"g2"`` (case-insensitive)."""
    text = text.strip()
    if len(text) < 2 or text[0].upper() not in FAMILIES:
        raise InvalidRank(f"cannot parse algebra name {text!r}")
    try:
        rank = int(text[1:])
    except ValueError:
        raise InvalidRank(f"cannot parse algebra name {text!r}") from None
    return AlgebraId(text[0].upper(), rank)


def _bonds(algebra: AlgebraId) -> list[tuple[int, int, int, int]]:
    """Edges of the Dynkin diagram as (i, j, A_ij, A_ji) with i < j."""
    f, r = algebra.family, algebra.rank
    chain = [(i, i + 1, -1, -1) for i in range(r - 1)]
    if f == "A":
        return chain
    if f == "B":
        # short root at the tail: alpha_{r-1}
        chain[-1] = (r - 2, r - 1, -2, -1)
        return chain
    if f == "C":
        # long root at the tail
        chain[-1] = (r - 2, r - 1, -1, -2)
        return chain
    if f == "D":
        chain = chain[: r - 2]
        chain[-1] = (r - 3, r - 2, -1, -1)
        chain.append((r - 3, r - 1, -1, -1))
        return chain
    if f == "E":
        # Bourbaki: node 1 hangs off node 3 (0-based: 1 off 3)
        edges = [(0, 2, -1, -1), (1, 3, -1, -1)]
        edges += [(i, i + 1, -1, -1) for i in range(2, r - 1)]
        return edges
    if f == "F":
        return [(0, 1, -1, -1), (1, 2, -2, -1), (2, 3, -1, -1)]
    if f == "G":
        # alpha_0 long, triple bond
        return [(0, 1, -3, -1)]
    raise InvalidRank(f"unknown family {f!r}")


def _cartan_matrix(algebra: AlgebraId) -> tuple[tuple[int, ...], ...]:
    r = algebra.rank
    a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    for i, j, aij, aji in _bonds(algebra):
        a[i][j] = aij
        a[j][i] = aji
    return tuple(tuple(row) for row in a)


def _symmetrizer(cartan: tuple[tuple[int, ...], ...]) -> tuple[Fraction, ...]:
    """d_i with d_i A[i][j] symmetric, normalised so max(d) = 1."""
    r = len(cartan)
    d: list[Fraction | None] = [None] * r
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(r):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                # d_i A_ij = d_j A_ji
                d[j] = d[i] * cartan[j][i] / cartan[i][j]
                stack.append(j)
    if any(x is None for x in d):
        raise RuntimeError("Dynkin diagram must be connected")
    top = max(d)  # type: ignore[type-var]
    return tuple(x / top for x in d)  # type: ignore[union-attr]


def _invert(matrix: tuple[tuple[int, ...], ...]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan over the rationals."""
    n = len(matrix)
    aug = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(row for row in range(col, n) if aug[row][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for row in range(n):
            if row != col and aug[row][col] != 0:
                factor = aug[row][col]
                aug[row] = [x - factor * y for x, y in zip(aug[row], aug[col])]
    return [row[n:] for row in aug]


def _roots_by_closure(cartan: tuple[tuple[int, ...], ...]) -> set[tuple[int, ...]]:
    """All roots, generated by reflecting the simple roots."""
    r = len(cartan)
    simple = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    found: set[tuple[int, ...]] = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        labels = [sum(beta[j] * cartan[j][i] for j in range(r)) for i in range(r)]
        for i in range(r):
            image = list(beta)
            image[i] -= labels[i]
            image_t = tuple(image)
            if image_t not in found:
                found.add(image_t)
                frontier.append(image_t)
    return found


def _bcd_positive_coords(family: str, r: int) -> set[tuple[int, ...]]:
    """Positive roots of B_r / C_r / D_r from the orthonormal-basis families."""

    def vec(pairs: dict[int, int]) -> tuple[int, ...]:
        out = [0] * r
        for idx, val in pairs.items():
            out[idx] = val
        return tuple(out)

    roots: set[tuple[int, ...]] = set()
    if family == "B":
        for m in range(r):
            # e_m = a_m + ... + a_{r-1}
            roots.add(vec({i: 1 for i in range(m, r)}))
            for n in range(m + 1, r):
                roots.add(vec({i: 1 for i in range(m, n)}))  # e_m - e_n
                coords = {i: 1 for i in range(m, n)}
                for i in range(n, r):
                    coords[i] = 2
                roots.add(vec(coords))  # e_m + e_n
    elif family == "C":
        for m in range(r):
            coords = {i: 2 for i in range(m, r - 1)}
            coords[r - 1] = 1
            roots.add(vec(coords))  # 2 e_m
            for n in range(m + 1, r):
                roots.add(vec({i: 1 for i in range(m, n)}))  # e_m - e_n
                coords = {i: 1 for i in range(m, n)}
                for i in range(n, r - 1):
                    coords[i] = 2
                coords[r - 1] = 1
                roots.add(vec(coords))  # e_m + e_n
    elif family == "D":
        for m in range(r):
            for n in range(m + 1, r):
                roots.add(vec({i: 1 for i in range(m, n)}))  # e_m - e_n
            # e_m + e_{r-1}: route through the second fork node
            coords = {i: 1 for i in range(m, r - 2)}
            coords[r - 1] = 1
            roots.add(vec(coords))
            for n in range(m + 1, r - 1):
                coords = {i: 1 for i in range(m, n)}
                for i in range(n, r - 2):
                    coords[i] = 2
                coords[r - 2] = 1
                coords[r - 1] = 1
                roots.add(vec(coords))  # e_m + e_n, n <= r-2
    else:
        raise InvalidRank(f"no coordinate families for {family!r}")
    roots.discard(tuple([0] * r))
    return roots


@dataclass(frozen=True)
class Root:
    """A root: simple-root coordinates plus the derived Dynkin labels."""

    coords: tuple[int, ...]
    labels: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.coords)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords), tuple(-l for l in self.labels))


class RootSystem:
    """Everything derived from the Cartan matrix of one simple algebra.

    Instances are built once per algebra via :func:`build` and shared; treat
    them as immutable.
    """

    def __init__(self, algebra: AlgebraId) -> None:
        self.algebra = algebra
        self.rank = algebra.rank
        self.cartan = _cartan_matrix(algebra)
        self.symmetrizer = _symmetrizer(self.cartan)
        inv = _invert(self.cartan)
        # quadratic form on weight space: (lambda, mu) = sum F_ij lambda_i mu_j
        self.quadratic_form = tuple(
            tuple(self.symmetrizer[i] * inv[j][i] for j in range(self.rank)) for i in range(self.rank)
        )

        if algebra.family in "BCD":
            coords = _bcd_positive_coords(algebra.family, self.rank)
        else:
            all_coords = _roots_by_closure(self.cartan)
            coords = {c for c in all_coords if all(x >= 0 for x in c)}
        positives = sorted(coords)
        self.positive_roots = tuple(Root(c, self.labels_of(c)) for c in positives)
        self.roots = self.positive_roots + tuple(-b for b in self.positive_roots)
        self._coords_set = {b.coords for b in self.roots}
        self._labels_map = {b.labels: b for b in self.roots}

        top = max(self.positive_roots, key=lambda b: b.height)
        if sum(1 for b in self.positive_roots if b.height == top.height) != 1:
            raise RuntimeError(f"{algebra}: highest root is not unique")
        self.highest_root = top
        self.marks = top.coords
        comarks = tuple(self.symmetrizer[i] * top.coords[i] for i in range(self.rank))
        if any(c.denominator != 1 for c in comarks):
            raise RuntimeError(f"{algebra}: comarks {comarks} are not integers")
        self.comarks = tuple(int(c) for c in comarks)
        self.affine_comarks = (1,) + self.comarks
        self.dual_coxeter = 1 + sum(self.comarks)
        self.weyl_vector = (1,) * self.rank

    # --- bilinear form -------------------------------------------------

    def inner_product(self, lam: tuple[int, ...], mu: tuple[int, ...]) -> Fraction:
        """(lambda, mu) for weights given by Dynkin labels."""
        if len(lam) != self.rank or len(mu) != self.rank:
            raise AlgebraMismatch(f"expected weights of length {self.rank}")
        total = Fraction(0)
        for i in range(self.rank):
            if lam[i] == 0:
                continue
            row = self.quadratic_form[i]
            total += lam[i] * sum(row[j] * mu[j] for j in range(self.rank) if mu[j] != 0)
        return total

    def theta_pairing(self, lam: tuple[int, ...]) -> int:
        """(lambda, theta) = sum of comark-weighted labels; always an integer."""
        if len(lam) != self.rank:
            raise AlgebraMismatch(f"expected a weight of length {self.rank}")
        return sum(m * x for m, x in zip(self.comarks, lam))

    # --- roots ----------------------------------------------------------

    def labels_of(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """Dynkin labels of sum_j coords[j] * alpha_j."""
        return tuple(
            sum(coords[j] * self.cartan[j][i] for j in range(self.rank)) for i in range(self.rank)
        )

    def is_root(self, coords: tuple[int, ...]) -> bool:
        return coords in self._coords_set

    def root_at(self, coords: tuple[int, ...]) -> Root:
        if coords not in self._coords_set:
            raise NotARoot(f"{coords} is not a root of {self.algebra}")
        return Root(coords, self.labels_of(coords))

    def root_from_labels(self, labels: tuple[int, ...]) -> Root | None:
        """The root with these Dynkin labels, or None."""
        return self._labels_map.get(labels)

    def simple_root(self, i: int) -> Root:
        coords = tuple(int(i == j) for j in range(self.rank))
        return Root(coords, tuple(self.cartan[i]))

    # --- Weyl group -----------------------------------------------------

    def reflect(self, lam: tuple[int, ...], i: int) -> tuple[int, ...]:
        """r_i(lambda) = lambda - lambda_i alpha_i, acting on labels."""
        li = lam[i]
        if li == 0:
            return lam
        row = self.cartan[i]
        return tuple(x - li * row[j] for j, x in enumerate(lam))

    def shifted_reflect(self, lam: tuple[int, ...], i: int) -> tuple[int, ...]:
        """r_i . lambda = r_i(lambda + rho) - rho, acting on labels."""
        c = lam[i] + 1
        row = self.cartan[i]
        return tuple(x - c * row[j] for j, x in enumerate(lam))

    # --- root strings ----------------------------------------------------

    def string_depth(self, beta: Root, i: int) -> int:
        """Largest u with beta + u alpha_i a root (u in 0..4 by theory).

        Chains through alpha_i can pass through 0 (beta = -alpha_i), which is
        not itself a root, so membership is scanned over the whole window
        rather than stopping at the first gap.
        """
        if beta.coords not in self._coords_set:
            raise NotARoot(f"{beta.coords} is not a root of {self.algebra}")
        depth = 0
        shifted = list(beta.coords)
        for u in range(1, 5):
            shifted[i] += 1
            if tuple(shifted) in self._coords_set:
                depth = u
        return depth

    def string_height(self, beta: Root, i: int) -> int:
        """Largest u with beta - u alpha_i a root."""
        # h - d = beta_i along the alpha_i string
        return self.string_depth(beta, i) + beta.labels[i]

    def depth_weight(self, beta: Root) -> tuple[int, ...]:
        """(d_0(beta), ..., d_{r-1}(beta)) over all simple directions."""
        return tuple(self.string_depth(beta, i) for i in range(self.rank))


# positive-root counts, used as a build-time sanity check
_POSITIVE_COUNTS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "E": lambda r: {6: 36, 7: 63, 8: 120}[r],
    "F": lambda r: 24,
    "G": lambda r: 6,
}


@lru_cache(maxsize=None)
def _build(algebra: AlgebraId) -> RootSystem:
    rs = RootSystem(algebra)
    if len(rs.positive_roots) != _POSITIVE_COUNTS[algebra.family](algebra.rank):
        raise RuntimeError(f"{algebra}: wrong number of positive roots")
    th = rs.highest_root.labels
    if rs.inner_product(th, th) != 2:
        raise RuntimeError(f"{algebra}: highest root does not have length 2")
    if rs.quadratic_form != tuple(zip(*rs.quadratic_form)):
        raise RuntimeError(f"{algebra}: quadratic form is not symmetric")
    return rs


def build(algebra: AlgebraId | str) -> RootSystem:
    """Root system for the given algebra (cached per algebra)."""
    if isinstance(algebra, str):
        algebra = parse_algebra(algebra)
    return _build(algebra)
