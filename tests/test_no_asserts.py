"""Running under `python -O` must not change an answer: no guard in the
package may be an `assert` or hang off `__debug__`.  Internal faults raise
`RuntimeError`, never `AssertionError`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import fusionkit
from oracle_reference import kac_walton_fusion as reference_fusion

PACKAGE = Path(fusionkit.__file__).resolve().parent


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_assert_or_debug_branch():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
                    or _raises_assertion_error(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_non_integral_polynomial_raises_under_optimize():
    code = (
        "from fractions import Fraction\n"
        "from fusionkit import PiecewisePolynomial\n"
        "p = PiecewisePolynomial('half', 1, (lambda j: Fraction(1, 2),))\n"
        "try:\n"
        "    p.evaluate_raw(3)\n"
        "except RuntimeError:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


_EXACT_REMAINDER = (
    "from fusionkit.tadpole import PiecewisePolynomial, _exact\n"
    "p = PiecewisePolynomial('halves', 1, (lambda j: _exact(j, 2),))\n"
    "print(repr(p.evaluate_raw(4)))\n"
    "try:\n"
    "    p.evaluate_raw(3)\n"
    "except RuntimeError as exc:\n"
    "    print(exc)\n"
)


def test_a_remainder_left_by_exact_raises_under_python_and_optimize():
    # the closed forms divide through `_exact`: a quotient that does not divide
    # comes back as a Fraction, which the integrality guard must refuse
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", _EXACT_REMAINDER], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["2", "halves at level 3 is 3/2, not an integer"]


def _b3_with_divisors(divisors):
    """A child's script: build B3 with these comark divisors planted in its diagram record."""
    return (
        "from fusionkit import algebra\n"
        "dynkin = algebra._dynkin\n"
        f"algebra._dynkin = lambda a: (dynkin(a)[0], {divisors!r})\n"
        "try:\n"
        "    algebra.RootSystem(algebra.AlgebraId('B', 3))\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )


def test_theta_guard_raises_under_optimize():
    # B3 has theta = (0, 1, 0) = 1 a_1 + 2 a_2 + 2 a_3; the divisors (1, 2, 2)
    # give the integral comarks (1, 1, 1), so the pairing gives
    # (theta, theta) = 1, which the construction must refuse
    proc = subprocess.run([sys.executable, "-O", "-c", _b3_with_divisors((1, 2, 2))], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "B3: highest root does not have length 2"


def test_comark_guard_raises_under_python_and_optimize():
    # a divisor 3 on B3's short node does not divide theta's coordinate 2
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", _b3_with_divisors((1, 1, 3))], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "B3: comarks (1, 2, 2) over (1, 1, 3) are not integers"


_BROKEN_LEVEL = (
    "from fusionkit import algebra, build, enumerate_level, kac_walton_fusion\n"
    "rs = algebra.RootSystem(algebra.AlgebraId('B', 3))\n"
    # alpha_1 for theta: alpha^_0 = (2; -alpha_1) then has level 2 - (theta, alpha_1) = 1
    "rs.highest_root = rs.positive_roots[0]\n"
    "try:\n"
    "    kac_walton_fusion(rs, next(enumerate_level(rs, 2)))\n"
    "except RuntimeError as exc:\n"
    "    print(exc)\n"
    "b3 = build('B3')\n"
    "print([sorted(kac_walton_fusion(b3, mu).items()) for mu in enumerate_level(b3, 3)])\n"
)


def test_level_guard_raises_on_a_broken_root_system():
    # the oracle folds in affine labels only if every affine simple root has
    # level 0; a hand-built B3 with another root for theta must be refused,
    # under python and python -O, and build("B3") must fold as before
    b3 = fusionkit.build("B3")
    want = [sorted(reference_fusion(b3, mu).items()) for mu in fusionkit.enumerate_level(b3, 3)]
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", _BROKEN_LEVEL], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["B3: an affine simple root or adjoint weight has nonzero level", str(want)]


_UNSETTLED = (
    "from fusionkit import affinize, algebra, kac_walton_fusion, oracle\n"
    "for record in ((-9, 0, 9), (-2, -3, 5)):\n"
    "    rs = algebra.RootSystem(algebra.AlgebraId('A', 2))\n"
    "    weights, clip, classes, walls = oracle._adjoint_weights(rs)\n"
    "    rs.derived['adjoint_weights'] = weights + ((record, record[1:], 1),), clip, classes, walls\n"
    "    try:\n"
    "        kac_walton_fusion(rs, affinize(rs, (1, 1), 5))\n"
    "    except RuntimeError as exc:\n"
    "        print(exc, classes)\n"
)


def test_the_one_reflection_guard_raises_under_python_and_optimize():
    # two records planted in a hand-built A2, read at mu^ = (3; 1, 1), k = 5, whose class is mu^ clipped
    # at 2: (-9; 0, 9) puts x^ at (-5, 2, 11), two reflections from (2, 2)^ + 1, and (-2; -3, 5) at
    # (2, -1, 7), one reflection from (0, 5)^ + 1 whose first reflection at the clipped labels is -1 at
    # the clipped label 0 (kept at mu^_0 = 3, on a wall at 2).  Each class is refused where it is built
    # and nothing is stored, under python and python -O
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", _UNSETTLED], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"A2: labels clipped to (2, 1, 1) leave {record} unsettled by one reflection {{}}"
            for record in ((-9, 0, 9), (-2, -3, 5))]
