"""Three more encodings of the off-diagonal adjoint rule, kept as cross-checks
of the one rule table that `fusionkit.adjoint_rules` computes with.

Each decides, for a dominant pair, whether nu = mu + beta (beta a root) occurs
in theta (x) mu, by its own route through the root-system data:

* endpoint form: no alpha_i string through beta may run past mu_i (beta
  positive) or nu_i (beta negative), read off the far end of the string;
* condition map: only the nontrivial conditions of `nontrivial_conditions`
  decide, everything else is implied by dominance;
* affine-reflection form: nu must differ from every shifted affine reflection
  r_i . mu, i = 0..r, by something that is neither a root nor zero.
"""

from functools import lru_cache

from fusionkit import build, nontrivial_conditions
from root_reference import is_root, root_from_labels, shifted_reflect


def _shift_is_positive_root(rs, beta, i, steps):
    coords = list(beta.coords)
    coords[i] += steps
    return is_root(rs, tuple(coords)) and all(c >= 0 for c in coords)


def _shift_is_negative_root(rs, beta, i, steps):
    coords = list(beta.coords)
    coords[i] -= steps
    return is_root(rs, tuple(coords)) and all(c <= 0 for c in coords)


def offdiag_endpoint(rs, mu, nu):
    """Tensor coefficient of nu != mu in theta (x) mu, endpoint form."""
    beta = root_from_labels(rs, tuple(a - b for a, b in zip(nu, mu)))
    if beta is None:
        return 0
    if all(c >= 0 for c in beta.coords):
        blocked = any(_shift_is_positive_root(rs, beta, i, mu[i] + 1) for i in range(rs.rank))
    else:
        blocked = any(_shift_is_negative_root(rs, beta, i, nu[i] + 1) for i in range(rs.rank))
    return int(not blocked)


@lru_cache(maxsize=None)
def condition_map(algebra):
    """Signed root coords -> (node, threshold) of its one nontrivial condition."""
    table = {}
    for cond in nontrivial_conditions(build(algebra)):
        table[cond.root] = (cond.index, cond.threshold_plus)
        table[tuple(-c for c in cond.root)] = (cond.index, cond.threshold_minus)
    return table


def offdiag_conditions(rs, mu, nu):
    """Tensor coefficient of nu != mu in theta (x) mu, from the condition map."""
    beta = root_from_labels(rs, tuple(a - b for a, b in zip(nu, mu)))
    if beta is None:
        return 0
    cond = condition_map(rs.algebra).get(beta.coords)
    if cond is not None:
        i, threshold = cond
        if mu[i] < threshold:
            return 0
    return 1


def offdiag_affine_reflection(rs, mu, nu):
    """Fusion coefficient of nu-hat != mu-hat, affine-reflection form."""
    diff = tuple(a - b for a, b in zip(nu.finite, mu.finite))
    if root_from_labels(rs, diff) is None:
        return 0
    zero = (0,) * rs.rank
    for i in range(rs.rank):
        ref = shifted_reflect(rs, mu.finite, i)
        rel = tuple(a - b for a, b in zip(nu.finite, ref))
        if rel == zero or root_from_labels(rs, rel) is not None:
            return 0
    # i = 0: r_0 . mu = mu + (mu_0 + 1) theta
    c0 = mu.labels[0] + 1
    theta = rs.highest_root.labels
    ref0 = tuple(x + c0 * t for x, t in zip(mu.finite, theta))
    rel0 = tuple(a - b for a, b in zip(nu.finite, ref0))
    if rel0 == zero or root_from_labels(rs, rel0) is not None:
        return 0
    return 1
