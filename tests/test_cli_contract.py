"""Seeded argument lists for `fuse` and `tadpole`, run through `cli.main` in
process: every list has one defined outcome.  No call raises, every exit code
is one of the documented input outcomes, every successful `--json` output
parses, and `fuse --method rules` and `--method oracle` print the same
entries.  The inputs are small (rank <= 5, levels -3..6), since `--level` and
the rank have no cap yet; this pins the contract, not the work an input can
start."""

import json
import random

import fusionkit.cli as cli
from fusionkit.algebra import algebras_up_to

_ALGEBRAS = [(str(a), a.rank) for a in algebras_up_to(5)] + [
    (name, 3) for name in ("g2", "A0", "B1", "C2x", "E9", "G3", "X3", "")]
_OUTCOMES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_LEVEL, cli.EXIT_NO_CLOSED_FORM}


def _weight(rng, rank):
    """Dominant labels of the right length, the wrong length, or one negative label."""
    n = rng.choice((rank, rank, rank, max(1, rank - 1), rank + 1))
    labels = [rng.randint(0, 3) for _ in range(n)]
    if rng.random() < 0.2:
        labels[rng.randrange(n)] = -rng.randint(1, 2)
    return "--weight=" + ",".join(map(str, labels))


def _argument_lists(seed, count):
    """(shared arguments, methods) per call: fuse runs both methods, tadpole one."""
    rng = random.Random(seed)
    for _ in range(count):
        name, rank = rng.choice(_ALGEBRAS)
        json_flag = ["--json"] if rng.random() < 0.5 else []
        if rng.random() < 0.5:
            level = ["--tensor"] if rng.random() < 0.1 else ["--level", str(rng.randint(-3, 6))]
            yield ["fuse", name, _weight(rng, rank), *level, *json_flag], ("rules", "oracle")
        else:
            zero = ["--zero"] if rng.random() < 0.5 else []
            method = rng.choice(("formula", "enum", "oracle", "all"))
            yield ["tadpole", name, "--level", str(rng.randint(-3, 6)), *zero, *json_flag], (method,)


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code in _OUTCOMES, (argv, code)
    if code == cli.EXIT_OK and "--json" in argv:
        return code, json.loads(out)
    return code, out


def test_seeded_argument_lists_keep_the_cli_contract(capsys):
    codes = set()
    for argv, methods in _argument_lists(seed=2016, count=800):
        results = [_run(capsys, argv + ["--method", method]) for method in methods]
        codes.update(code for code, _ in results)
        if argv[0] == "fuse":
            (rules_code, rules), (oracle_code, oracle) = results
            assert rules_code == oracle_code, argv
            if rules_code == cli.EXIT_OK and "--json" in argv:
                assert rules.pop("method") == "rules" and oracle.pop("method") == "oracle"
            assert rules == oracle, argv
    # the draw reaches every outcome, so no branch of the contract goes unchecked
    assert codes == _OUTCOMES
