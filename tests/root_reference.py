"""A second route to the roots and their alpha-strings, kept as a cross-check
of the layered generator in `fusionkit.algebra`.

Roots come from closing the simple roots under the simple reflections; string
depths come from scanning beta + u alpha_i for u = 1..4 against that set.

`fusionkit` builds no bilinear form: the package reads only the pairing with
theta.  The full quadratic form lives here, by two routes compared against
each other: the inverse Cartan matrix, and the Killing-form identity summed
over the positive roots of a built `RootSystem`.

The Cartan matrix and the symmetrizer are built here a second way: the
diagram as a list of bonds (i, j, A_ij, A_ji), and the symmetrizer by a walk
over the finished matrix, as a cross-check of the one diagram record in
`fusionkit.algebra`, which keeps no symmetrizer: only the integer comarks it
gives.  The forms below read this symmetrizer, never the package's record.

It also holds the inner product, the root look-ups, the string heights and
the plain and shifted reflections that only the tests need, as functions of
a built `RootSystem`.
"""

from fractions import Fraction
from functools import lru_cache

from fusionkit import InvalidRank


def bonds(algebra):
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


def cartan_matrix(algebra):
    r = algebra.rank
    a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    for i, j, aij, aji in bonds(algebra):
        a[i][j] = aij
        a[j][i] = aji
    return tuple(tuple(row) for row in a)


def symmetrizer_by_walk(cartan):
    """d_j with A[i][j] d_j symmetric, normalised so max(d) = 1."""
    r = len(cartan)
    d = [None] * r
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(r):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                # d_i A_ji = d_j A_ij
                d[j] = d[i] * cartan[j][i] / cartan[i][j]
                stack.append(j)
    if any(x is None for x in d):
        raise RuntimeError("Dynkin diagram must be connected")
    top = max(d)
    return tuple(x / top for x in d)


@lru_cache(maxsize=None)
def symmetrizer(algebra):
    """The symmetrizer of the algebra's bond list, by the walk."""
    return symmetrizer_by_walk(cartan_matrix(algebra))


def roots_by_closure(cartan):
    """All roots, generated by reflecting the simple roots."""
    r = len(cartan)
    simple = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    found = set(simple)
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


def labels_of(cartan, coords):
    """Dynkin labels of sum_j coords[j] * alpha_j: column sums of the Cartan matrix."""
    r = len(cartan)
    return tuple(sum(coords[j] * cartan[j][i] for j in range(r)) for i in range(r))


def string_depth(coords_set, coords, i):
    """Largest u with beta + u alpha_i a root (u in 0..4 by theory).

    Chains through alpha_i can pass through 0 (beta = -alpha_i), which is not
    itself a root, so membership is scanned over the whole window rather than
    stopping at the first gap.
    """
    depth = 0
    shifted = list(coords)
    for u in range(1, 5):
        shifted[i] += 1
        if tuple(shifted) in coords_set:
            depth = u
    return depth


def invert(matrix):
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


def quadratic_form(cartan, d):
    """(omega_i, omega_j) = d_i (A^-1)_ji, for the symmetrizer d."""
    inv = invert(cartan)
    r = len(cartan)
    return tuple(tuple(d[i] * inv[j][i] for j in range(r)) for i in range(r))


def killing_quadratic_form(rs):
    """(omega_i, omega_j) from the Killing-form identity.

    (omega_i, beta) = d_i c_i(beta), and sum_{beta > 0} (lambda, beta) (mu, beta)
    = h^vee (lambda, mu), so F_ij = d_i d_j sum_{beta > 0} c_i(beta) c_j(beta) / h^vee.
    """
    d, r = symmetrizer(rs.algebra), rs.rank
    return tuple(
        tuple(d[i] * d[j] * sum(b.coords[i] * b.coords[j] for b in rs.positive_roots) / rs.dual_coxeter
              for j in range(r))
        for i in range(r)
    )


def inner_product(rs, lam, mu):
    """(lambda, mu) for weights of rs given by Dynkin labels."""
    form = quadratic_form(rs.cartan, symmetrizer(rs.algebra))
    return sum(lam[i] * form[i][j] * mu[j] for i in range(rs.rank) for j in range(rs.rank))


@lru_cache(maxsize=None)
def _root_index(rs):
    """The coordinates of every root of rs, and its roots keyed by Dynkin labels."""
    return frozenset(beta.coords for beta in rs.roots), {beta.labels: beta for beta in rs.roots}


def is_root(rs, coords):
    """Whether sum_j coords[j] * alpha_j is a root of rs."""
    return tuple(coords) in _root_index(rs)[0]


def root_from_labels(rs, labels):
    """The root of rs with these Dynkin labels, or None."""
    return _root_index(rs)[1].get(tuple(labels))


def string_height(rs, beta, i):
    """Largest u with beta - u alpha_i a root: h - d = beta_i along the alpha_i string."""
    return beta.depth[i] + beta.labels[i]


def simple_root(rs, i):
    return rs.root_at(tuple(int(i == j) for j in range(rs.rank)))


def reflect(rs, lam, i):
    """r_i(lambda) = lambda - lambda_i alpha_i, acting on labels."""
    li = lam[i]
    row = rs.cartan[i]
    return tuple(x - li * row[j] for j, x in enumerate(lam))


def shifted_reflect(rs, lam, i):
    """r_i . lambda = r_i(lambda + rho) - rho, acting on labels."""
    c = lam[i] + 1
    row = rs.cartan[i]
    return tuple(x - c * row[j] for j, x in enumerate(lam))
