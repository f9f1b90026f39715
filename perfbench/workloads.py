"""Workloads: seeded lists of ``blockdet`` command lines, each with an oracle.

One *pass* of a workload is its fixed list of operations; an operation is
one ``blockdet.cli.main(argv)`` call.  Campaign seeds and the order of the
operations come from the benchmark seed and the pass index, so the same
seed gives the same passes.  Every oracle holds for any seed: it checks the
exit code and the exact stdout the command must print.

- ``campaign-modp``: the ``scripts/run_verification.py`` campaign mix over
  GF(10007).  Sample generation, exact ``matrix_satisfies`` checks, m x m
  block products and Gaussian-elimination determinants; the h1..h4
  campaigns are the same layers run on conditions that must be falsified.
- ``rowdet-wide``: many small blocks (n = 5..7, m = 2) over Z and Z[a], so
  the n! permutation sum of ``nc_row_det`` does nearly all the work and
  determinants use Bird's method.
- ``symbolic-sweep``: the trace-monoid ordering identities; no matrix is
  built, only ``traces`` is exercised.
"""

from __future__ import annotations

import random
import re
from math import factorial
from typing import Callable, NamedTuple

Oracle = Callable[[int, str], "str | None"]  # (exit code, stdout) -> problem or None


class Op(NamedTuple):
    argv: tuple[str, ...]
    oracle: Oracle


def _exact(rc_expected: int, stdout_expected: str) -> Oracle:
    def check(rc: int, out: str):
        if rc != rc_expected or out != stdout_expected:
            return f"expected exit {rc_expected} and {stdout_expected!r}, got exit {rc} and {out!r}"
        return None

    return check


def _campaign(family: str, n: int, m: int, ring: str, trials: int, seed: int, generator: str) -> Op:
    argv = ("campaign", "--family", family, "--n", str(n), "--m", str(m),
            "--ring", ring, "--trials", str(trials), "--seed", str(seed))
    line = f"condition={family} trials={trials} failures=0 seed={seed} generator={generator}\n"
    return Op(argv, _exact(0, line))


def _falsified_campaign(family: str, m: int, trials: int, seed: int) -> Op:
    argv = ("campaign", "--family", family, "--n", "2", "--m", str(m),
            "--ring", "mod:10007", "--trials", str(trials), "--seed", str(seed))
    pattern = re.compile(
        r"failure trial=(\d+) lhs=(\S+) rhs=(\S+)\n"
        rf"condition={family} trials={trials} failures=(\d+) seed={seed} generator={family}-falsify\n\Z"
    )

    def check(rc: int, out: str):
        mt = pattern.match(out)
        if rc != 1 or mt is None:
            return f"expected exit 1 and a recorded falsification, got exit {rc} and {out!r}"
        trial, lhs, rhs, failures = mt.groups()
        if lhs == rhs or not 1 <= int(failures) <= trials or int(trial) >= trials:
            return f"inconsistent falsification report {out!r}"
        return None

    return Op(argv, check)


def _unequal_witness(name: str, n: int) -> Op:
    pattern = re.compile(r"lhs=(\S+) rhs=(\S+) UNEQUAL\n\Z")

    def check(rc: int, out: str):
        mt = pattern.match(out)
        if rc != 1 or mt is None or mt.group(1) == mt.group(2):
            return f"expected exit 1 and an UNEQUAL verdict, got exit {rc} and {out!r}"
        return None

    return Op(("check", "--builtin", name, "--n", str(n)), check)


def _symbolic(check: str, n: int, flags: tuple[str, ...], holds: bool) -> Op:
    line = f"check={check} n={n} terms={factorial(n)} {'PASS' if holds else 'FAIL'}\n"
    return Op(("symbolic", "--check", check, "--n", str(n)) + flags, _exact(0 if holds else 1, line))


def rowswap_holds(i: int, j: int, missing) -> bool:
    """The boundary of the rowswap identity, stated independently of the
    engine: it holds with no withheld pair, when the withheld pair shares a
    row or a column, or when swapping rows i and j keeps the order of the
    pair's rows."""
    if missing is None:
        return True
    (r1, c1), (r2, c2) = missing
    if r1 == r2 or c1 == c2:
        return True

    def sigma(r: int) -> int:
        return j if r == i else i if r == j else r

    return (sigma(r1) < sigma(r2)) == (r1 < r2)


def campaign_modp(rng: random.Random, tiny: bool) -> list[Op]:
    trials = 2 if tiny else 12
    ring = "mod:10007"

    def seed() -> int:
        return rng.getrandbits(32)

    # f at n=4 runs three times a pass, so it spans the 86th to 100th
    # percentile of a pass and p90 falls inside one kind of operation.
    sizes = (2,) if tiny else (2, 3, 4, 4, 4)
    ops = [_campaign("f", n, 2 * n, ring, trials, seed(), "f-slots") for n in sizes]
    for n in (2,) if tiny else (2, 3):
        for k in range(1, n + 1):
            ops.append(_campaign(f"side:{k}", n, 2 * n, ring, trials, seed(), f"side-slots:{k}"))
            ops.append(_campaign(f"down:{k}", n, 2 * n, ring, trials, seed(), f"down-slots:{k}"))
    ops.append(_campaign("g5", 2, 4, ring, trials, seed(), "g5-overlap"))
    ops.append(_campaign("kappa", 3, 3 if tiny else 6, ring, trials, seed(), "kappa-poly"))
    ops += [_falsified_campaign(h, 3, trials, seed()) for h in ("h1", "h2", "h3", "h4")]
    return ops


def rowdet_wide(rng: random.Random, tiny: bool) -> list[Op]:
    # Per pass: 16 x n=5, 4 x n=6 and 1 x n=7 campaigns plus the two Z[a]
    # witnesses at n=6 and n=7.  The n=7 campaign spans the 88th to 92nd
    # percentile of a pass, so p90 falls inside it with the two n=7
    # witnesses beyond it, and p50 falls among the n=5 campaigns.
    sizes = {3: 4, 4: 1} if tiny else {5: 16, 6: 4, 7: 1}
    ops = [
        _campaign("f", n, 2, "int", 1, rng.getrandbits(32), "generic-scalar")
        for n, count in sizes.items()
        for _ in range(count)
    ]
    for n in (3, 4) if tiny else (6, 7):
        ops += [_unequal_witness("same_row", n), _unequal_witness("diff_row", n)]
    return ops


def symbolic_sweep(rng: random.Random, tiny: bool) -> list[Op]:
    top = 3 if tiny else 6
    ops = [_symbolic("colswap", n, ("--k", str(k)), True) for n in range(2, top + 1) for k in range(1, n)]
    ops += [_symbolic("transpose", n, ("--c", str(c)), True) for n in range(1, top) for c in range(1, n + 1)]
    n = 3 if tiny else 5
    cells = [(r, c) for r in range(2, n + 1) for c in range(1, n + 1)]
    withheld = [None] + [(a, b) for x, a in enumerate(cells) for b in cells[x + 1 :]]
    for i in range(2, n):
        for pair in withheld:
            flags = ("--i", str(i), "--j", str(i + 1))
            if pair is not None:
                flags += ("--missing", ",".join(str(v) for cell in pair for v in cell))
            ops.append(_symbolic("rowswap", n, flags, rowswap_holds(i, i + 1, pair)))
    return ops


WORKLOADS = {
    "campaign-modp": campaign_modp,
    "rowdet-wide": rowdet_wide,
    "symbolic-sweep": symbolic_sweep,
}


def pass_ops(workload: str, seed: int, index: int, tiny: bool = False) -> list[Op]:
    """The operations of one pass, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    ops = WORKLOADS[workload](rng, tiny)
    rng.shuffle(ops)
    return ops
