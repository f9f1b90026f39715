#!/usr/bin/env python3
"""Full verification run: reproduces every headline computation in one go.

Prints a sectioned report and exits nonzero if anything fails.  All
randomness is seeded, so two runs produce identical output.
"""

from __future__ import annotations

import argparse
import sys
import time

from blockdet.cli import int_flag
from blockdet.conditions import cond_f, cond_f_down, cond_f_side, cond_named
from blockdet.ncdet import bourbaki_trace, cofactor_column_check
from blockdet.ring import PrimeField, ZZ
from blockdet.traces import (
    check_colswap_identity,
    check_rowswap_identity,
    check_transpose_identity,
)
from blockdet.verify import (
    PAPER_SEED,
    SCAN_TRIALS,
    builtin_matrix,
    check_identity,
    classify_size2,
    gen_satisfying,
    optimality_scan,
    run_campaign,
    silvester_check,
    trial_seed,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int_flag, default=200, help="trials per campaign")
    parser.add_argument("--seed", type=int_flag, default=PAPER_SEED)
    args = parser.parse_args()
    if args.trials < 1:
        # the falsification campaigns and the negative control need a trial to fail
        parser.error(f"--trials must be at least 1, got {args.trials}")

    ring = PrimeField(10007)
    trials, seed = args.trials, args.seed
    failures = 0
    t_start = time.perf_counter()

    def section(title):
        print(f"\n== {title}")

    def expect(ok, text):
        nonlocal failures
        print(f"  [{'ok' if ok else 'FAIL'}] {text}")
        if not ok:
            failures += 1

    section("deterministic counterexamples")
    for name, lhs, rhs in [("m1", -128, 0), ("m2", 128, 0), ("m3", 1152, 1872)]:
        r = check_identity(builtin_matrix(name))
        expect(
            (str(r.lhs), str(r.rhs), r.equal) == (str(lhs), str(rhs), False),
            f"{name}: lhs={r.lhs} rhs={r.rhs}",
        )

    section("size-2 classification")
    records = classify_size2()
    n_scc = sum(1 for r in records if r.is_scc)
    expect(n_scc == 48 and len(records) == 64, f"{n_scc} sufficient / {64 - n_scc} falsified")

    section("identity campaigns (sufficient families)")
    jobs = [("f", cond_f(2), 4), ("f", cond_f(3), 6), ("f", cond_f(4), 8)]
    jobs += [(f"side:{j}", cond_f_side(j, n), 2 * n) for n in (2, 3) for j in range(1, n + 1)]
    jobs += [(f"down:{i}", cond_f_down(i, n), 2 * n) for n in (2, 3) for i in range(1, n + 1)]
    jobs += [("g5", cond_named("g5"), 4)]
    for idx, (cid, cond, m) in enumerate(jobs):
        rep = run_campaign(cond, m, ring, trials, trial_seed(seed, idx), condition_id=cid)
        expect(rep.failures == 0, f"n={cond.n} {rep.summary_line()} generator={rep.generator}")

    section("identity campaigns (insufficient conditions, failures expected)")
    for idx, name in enumerate(("h1", "h2", "h3", "h4")):
        rep = run_campaign(cond_named(name), 3, ring, trials, trial_seed(seed, 100 + idx),
                           condition_id=name)
        expect(rep.failures > 0, rep.summary_line())

    section("two-block determinant formulas")
    for variant in ("a", "b", "c"):
        rep = silvester_check(variant, 3, ring, trials, trial_seed(seed, 200))
        expect(rep.failures == 0, rep.summary_line())
    rep = silvester_check("c", 3, ring, trials, trial_seed(seed, 201), enforce_hypothesis=False)
    expect(rep.failures > 0, f"negative control: {rep.summary_line()}")

    section("symbolic ordering identities")
    for n in (2, 3, 4):
        for k in range(1, n):
            expect(check_colswap_identity(n, k), f"colswap n={n} k={k}")
    for n in (1, 2, 3):
        for c in range(1, n + 1):
            expect(check_transpose_identity(n, c), f"transpose n={n} c={c}")
    expect(check_rowswap_identity(3, 2, 3, ((2, 1), (2, 2))), "rowswap same-row pair")
    expect(check_rowswap_identity(4, 3, 4, ((2, 1), (3, 2))), "rowswap order-preserving relocation")
    expect(not check_rowswap_identity(3, 2, 3, ((2, 1), (3, 2))),
           "rowswap order-reversing case is honestly false")

    section("optimality of the row-one-free family")
    for n in (2, 3, 4, 5):
        rep = optimality_scan(n, campaign_trials=min(trials, SCAN_TRIALS), seed=seed)
        expect(rep.all_ok, f"scan n={n}: {len(rep.edge_cases)} withheld edges all falsified")

    section("polynomial-extension induction trace")
    for n in (2, 3):
        ok = True
        for i in range(20):
            bm = gen_satisfying(cond_f(n), 2 * n, ZZ, trial_seed(seed, 300 + 50 * n + i))
            if not bourbaki_trace(bm).all_pass:
                ok = False
                break
        expect(ok, f"n={n}: 20 integer samples, all five checks")
    expect(cofactor_column_check(bm), "first-column cofactor identity on an f n=3 sample")
    expect(not cofactor_column_check(builtin_matrix("same_row", n=2)),
           "first-column cofactor identity off-hypothesis (same_row) is honestly false")

    print(f"\n{'ALL CHECKS PASSED' if failures == 0 else f'{failures} CHECKS FAILED'} "
          f"in {time.perf_counter() - t_start:.1f}s")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
