"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line on success (visible with ``pytest -v``
through the test name as well); failures raise with full detail.
"""

import random
import time
from itertools import combinations

import pytest

from blockdet.conditions import (
    Condition,
    cond_f,
    cond_f_down,
    cond_f_side,
    cond_named,
    is_subgraph,
    matrix_satisfies,
)
from blockdet.matrix import BlockMatrix, Matrix, commutes, det_commutative
from blockdet.ncdet import bourbaki_trace, cofactor_column_check, nc_row_det
from blockdet.ring import PolynomialRing, PrimeField, RingValue, ZZ
from blockdet.traces import check_colswap_identity, check_rowswap_identity, check_transpose_identity
from blockdet.verify import (
    builtin_matrix,
    check_identity,
    classify_size2,
    gen_satisfying,
    run_campaign,
    silvester_check,
    trial_seed,
)
from oracles import det_expansion_oracle, nc_cofactor, trace_equal, trace_equal_by_projection

F10007 = PrimeField(10007)
PA = PolynomialRing("a")


def _report(num, text):
    print(f"ACCEPTANCE PASS [{num}] {text}")


def test_criterion_1_counterexample_values():
    t0 = time.perf_counter()
    expected = {
        "m1": (RingValue(ZZ, -128), RingValue(ZZ, 0)),
        "m2": (RingValue(ZZ, 128), RingValue(ZZ, 0)),
        "m3": (RingValue(ZZ, 1152), RingValue(ZZ, 1872)),
    }
    for name, (lhs, rhs) in expected.items():
        result = check_identity(builtin_matrix(name))
        assert (result.lhs, result.rhs, result.equal) == (lhs, rhs, False), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"counterexample determinant pairs exact ({elapsed:.3f}s)")


def test_criterion_2_optimality_dichotomy():
    t0 = time.perf_counter()
    same = builtin_matrix("same_row", 2)
    same_result = check_identity(same)
    assert nc_row_det(same) == Matrix(PA, [[0, 1], [(0, -1), 0]])
    assert same_result.lhs == RingValue(PA, (0, 1))
    assert len(same_result.rhs.payload) <= 1

    diff = builtin_matrix("diff_row", 3)
    diff_result = check_identity(diff)
    assert nc_row_det(diff) == Matrix(PA, [[0, -1], [(0, -1), 0]])
    assert diff_result.lhs == RingValue(PA, (0, -1))
    assert len(diff_result.rhs.payload) <= 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, f"withheld-edge witnesses: det depends on a, flat det does not ({elapsed:.3f}s)")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_criterion_3_family_campaigns(n):
    m = 2 * n
    seed = 1000 + n
    report = run_campaign(cond_f(n), m, F10007, 200, seed=seed, condition_id="f")
    assert report.failures == 0, report.summary_line()
    # non-vacuity: every campaign sample has a noncommuting same-column pair
    for i in range(200):
        bm = gen_satisfying(cond_f(n), m, F10007, trial_seed(seed, i))
        assert any(
            not commutes(bm.block(r1, c), bm.block(r2, c))
            for c in range(n)
            for r1 in range(n)
            for r2 in range(r1 + 1, n)
        ), f"vacuous sample at n={n} trial={i}"
    _report(3, f"row-one-free family n={n}: 200/200 trials equal, all non-vacuous")


def test_criterion_4_side_and_down_campaigns():
    for n in (2, 3):
        m = 2 * n
        for j in range(1, n + 1):
            report = run_campaign(
                cond_f_side(j, n), m, F10007, 200, seed=40 + 10 * n + j,
                condition_id=f"side:{j}",
            )
            assert report.failures == 0, report.summary_line()
        for i in range(1, n + 1):
            report = run_campaign(
                cond_f_down(i, n), m, F10007, 200, seed=70 + 10 * n + i,
                condition_id=f"down:{i}",
            )
            assert report.failures == 0, report.summary_line()
    _report(4, "side and down variants, n in {2,3}, all parameters: 200/200 each")


def test_criterion_5_g5_and_two_block_formulas():
    report = run_campaign(cond_named("g5"), 4, F10007, 200, seed=55, condition_id="g5")
    assert report.failures == 0, report.summary_line()
    for variant in ("a", "b", "c"):
        rep = silvester_check(variant, 3, F10007, 200, seed=56)
        assert rep.failures == 0, rep.summary_line()
    control = silvester_check("c", 3, F10007, 200, seed=57, enforce_hypothesis=False)
    assert control.failures >= 1
    _report(5, "g5 campaign and two-block formulas clean; control falsified")


def test_criterion_6_size2_classification():
    cls = classify_size2()
    assert len(cls) == 64
    minimal = [cond_named(f"g{k}") for k in range(1, 6)]
    for rec in cls:
        in_closure = any(is_subgraph(g, rec.condition) for g in minimal)
        assert rec.is_scc == in_closure
        if not rec.is_scc:
            falsifier = builtin_matrix(rec.falsifier.lower())
            assert matrix_satisfies(falsifier, rec.condition)
            result = check_identity(falsifier)
            assert not result.equal
            assert (result.lhs, result.rhs) == (rec.lhs, rec.rhs)
    assert sum(r.is_scc for r in cls) == 48
    _report(6, "all 64 size-2 graphs labeled; 48 sufficient, 16 falsified deterministically")


def test_criterion_7_symbolic_identity_suite():
    # first-column cofactor identity on generated family inputs
    for n in (2, 3, 4):
        for seed in range(5):
            bm = gen_satisfying(cond_f(n), 2 * n, F10007, seed=700 + 10 * n + seed)
            assert cofactor_column_check(bm), (n, seed)

    # first-row expansion with fully random noncommuting blocks
    rng = random.Random(71)
    for _ in range(10):
        blocks = [
            [
                Matrix(ZZ, [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(3)])
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        bm = BlockMatrix(ZZ, 3, 3, blocks)
        acc = None
        for j in range(1, 4):
            term = bm.block(0, j - 1) * nc_cofactor(bm, 1, j)
            acc = term if acc is None else acc + term
        assert acc == nc_row_det(bm)

    for n in (2, 3, 4):
        for k in range(1, n):
            assert check_colswap_identity(n, k), (n, k)
    for n in (1, 2, 3):
        for c in range(1, n + 1):
            assert check_transpose_identity(n, c), (n, c)
    rowswap_cases = [
        ((2, 1), (2, 2)),   # withheld pair in one row: never co-occurs
        ((3, 1), (3, 2)),
        ((2, 1), (3, 1)),   # withheld pair in one column: never co-occurs
        None,               # nothing withheld: fully commutative outside row 1
    ]
    for missing in rowswap_cases:
        assert check_rowswap_identity(3, 2, 3, missing), missing
    # order-preserving relocation of the withheld pair, larger size
    assert check_rowswap_identity(4, 3, 4, ((2, 1), (3, 2)))
    _report(7, "cofactor column, first-row expansion, colswap/transpose/rowswap all exact")


def test_criterion_8_oracle_equivalences():
    rngs = {"int": ZZ, "mod": F10007, "poly": PolynomialRing("z")}
    rng = random.Random(88)
    for label, ring in rngs.items():
        for dim in range(1, 7):
            for _ in range(100):
                if label == "poly":
                    mat = Matrix(
                        ring,
                        [
                            [RingValue(ring, tuple(rng.randrange(-2, 3) for _ in range(2))) for _ in range(dim)]
                            for _ in range(dim)
                        ],
                    )
                elif label == "mod":
                    mat = Matrix(
                        ring, [[rng.randrange(ring.p) for _ in range(dim)] for _ in range(dim)]
                    )
                else:
                    mat = Matrix(
                        ring, [[rng.randrange(-9, 10) for _ in range(dim)] for _ in range(dim)]
                    )
                assert det_commutative(mat) == det_expansion_oracle(mat), (label, dim)

    # scalar blocks: the row determinant is the ordinary determinant
    for ring in (ZZ, F10007):
        for n in range(1, 6):
            for _ in range(20):
                if isinstance(ring, PrimeField):
                    flat = Matrix(
                        ring, [[rng.randrange(ring.p) for _ in range(n)] for _ in range(n)]
                    )
                else:
                    flat = Matrix(
                        ring, [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
                    )
                bm = BlockMatrix(ring, 1, n, [[
                    Matrix(ring, [[flat.entries[i][j]]]) for j in range(n)] for i in range(n)])
                assert nc_row_det(bm) == Matrix(ring, [[det_commutative(flat)]])

    # normal-form equality agrees with projection equality
    cases = 0
    for _ in range(1100):
        n = rng.randrange(2, 5)
        pool = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        pairs = list(combinations(pool, 2))
        rel = Condition(n, frozenset(p for p in pairs if rng.random() < 0.4))
        u = tuple(rng.choice(pool) for _ in range(rng.randrange(0, 9)))
        if rng.random() < 0.5:
            w = list(u)
            for _ in range(10):
                if len(w) < 2:
                    break
                i = rng.randrange(len(w) - 1)
                if rel.commutes(w[i], w[i + 1]):
                    w[i], w[i + 1] = w[i + 1], w[i]
            v = tuple(w)
        else:
            v = tuple(rng.choice(pool) for _ in range(rng.randrange(0, 9)))
        assert trace_equal(u, v, rel) == trace_equal_by_projection(u, v, rel)
        cases += 1
    assert cases >= 1000
    _report(8, "determinant and trace-equality dual routes agree on all sampled cases")


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_9_induction_trace(n):
    m = 2 * n
    for i in range(50):
        bm = gen_satisfying(cond_f(n), m, ZZ, trial_seed(900 + n, i))
        checks = bourbaki_trace(bm)
        assert checks.first_column_collapse, (n, i)
        assert checks.lower_det_monic, (n, i)
        assert checks.det_product_identity, (n, i)
        assert checks.induction_step, (n, i)
        assert checks.identity_at_zero, (n, i)
    _report(9, f"induction trace n={n}: 50/50 samples pass all five checks")
