import random
from itertools import combinations, product
from math import comb, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from blockdet import ncdet
from blockdet.conditions import cond_col_permute, cond_f
from blockdet.matrix import (
    BlockMatrix,
    Matrix,
    _flat_rows,
    block_view,
    det_commutative,
    signed_permutations,
)
from blockdet.ncdet import BourbakiChecks, bourbaki_trace, cofactor_column_check, nc_row_det
from blockdet.ring import PolynomialRing, PrimeField, RingValue, ZZ, _is_prime, parse_ring
from blockdet.verify import _from_mapping, builtin_matrix, gen_satisfying
from oracles import (
    cofactor_matrix,
    eliminator_det,
    identity_at_zero,
    nc_cofactor,
    nc_minor_det,
    scalar,
    shifted_by_z,
    subset_dp_by_mask,
    trace_inputs,
)

F10007 = PrimeField(10007)


def rand_block(ring, m, rng):
    if isinstance(ring, PrimeField):
        return Matrix(ring, [[rng.randrange(ring.p) for _ in range(m)] for _ in range(m)])
    if isinstance(ring, PolynomialRing):
        return Matrix(
            ring,
            [[RingValue(ring, [rng.randrange(-3, 4) for _ in range(rng.randrange(3))]) for _ in range(m)] for _ in range(m)],
        )
    return Matrix(ring, [[rng.randrange(-4, 5) for _ in range(m)] for _ in range(m)])


def rand_block_matrix(ring, m, n, rng):
    return BlockMatrix(ring, m, n, [[rand_block(ring, m, rng) for _ in range(n)] for _ in range(n)])


class TestPermutation:
    # Relabellings are plain tuples of 1-based images; the sign is
    # matrix.permutation_sign (see test_signed_permutations).
    def test_from_mapping(self):
        p = _from_mapping(4, {2: 3, 3: 4})
        assert p[0] == 1 and p[1] == 3 and p[2] == 4 and p[3] == 2

    def test_rejects_non_bijection(self):
        g = cond_f(3)
        with pytest.raises(ValueError):
            cond_col_permute(g, (1, 1, 2))


def perm_sum_row_det(bm):
    """Oracle: the row-ordered determinant as the signed permutation sum."""
    total = None
    for perm, sign in signed_permutations(bm.n):
        prod = bm.blocks[0][perm[0]]
        for r in range(1, bm.n):
            prod = prod * bm.blocks[r][perm[r]]
        if sign < 0:
            prod = -prod
        total = prod if total is None else total + prod
    return total


def first_row_cofactors(bm):
    """The n first-row cofactors from the one run of the subset DP that
    ``cofactor_column_check`` and ``bourbaki_trace`` make."""
    return [Matrix._of(bm.ring, rows) for rows in ncdet._det_and_cofactors(bm.ring, bm.m, _flat_rows(bm))[1]]


def perm_sum_first_row_cofactors(bm):
    """Oracle: (-1)^(1+j) times the permutation-sum (1, j) minor, for each j."""
    n = bm.n
    cofs = []
    for j in range(n):
        rows = [[bm.blocks[r][c] for c in range(n) if c != j] for r in range(1, n)]
        minor = perm_sum_row_det(BlockMatrix(bm.ring, bm.m, n - 1, rows))
        cofs.append(minor if j % 2 == 0 else -minor)
    return cofs


DP_RINGS = [parse_ring(label) for label in ("int", "mod:2", "mod:10007", "poly:a")]


@st.composite
def block_matrices(draw):
    ring = draw(st.sampled_from(DP_RINGS))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return rand_block_matrix(ring, m, n, rng)


@settings(max_examples=150, deadline=None)
@given(block_matrices())
def test_subset_dp_matches_permutation_sum(bm):
    assert nc_row_det(bm) == perm_sum_row_det(bm)
    if bm.n >= 2:
        assert first_row_cofactors(bm) == perm_sum_first_row_cofactors(bm)


# The Hypothesis strategies stop at n = 6 and m = 3; at the cap the plan's
# deepest levels, their signs and their flat gathers are held to the DP
# keyed by column mask.
@pytest.mark.parametrize("label", [ring.label for ring in DP_RINGS])
@pytest.mark.parametrize("n", [7, 8])
def test_subset_dp_at_the_cap_matches_the_mask_keyed_dp(n, label):
    ring = parse_ring(label)
    rng = random.Random(n)
    full = (1 << n) - 1
    for m in (1, 2, 3):
        bm = rand_block_matrix(ring, m, n, rng)
        assert nc_row_det(bm) == Matrix(ring, subset_dp_by_mask(bm, 0)[full])
        minors = subset_dp_by_mask(bm, 1)
        cofactors = [Matrix(ring, minors[full ^ (1 << j)]) for j in range(n)]
        assert first_row_cofactors(bm) == [x if j % 2 == 0 else -x for j, x in enumerate(cofactors)]


def test_dp_plan_lists_every_column_set_once_and_keys_its_signed_minors():
    for n, m in product(range(1, 9), (1, 2, 3)):
        flat = range(n * m)
        levels = ncdet._dp_plan(n, m)
        assert len(levels) == n - 1
        below = previous = [(c,) for c in range(n)]
        for size, plan in enumerate(levels, 2):
            sets = list(combinations(range(n), size))
            assert len(plan) == len(sets) == comb(n, size)
            # The store holds the m packed rows of E and then of -E for
            # each set of the previous level: row t of signed entry key is
            # at key m + t.
            store = range(2 * len(previous) * m)
            index = {cols: i for i, cols in enumerate(previous)}
            for (cols, keys), columns in zip(plan, sets):
                # The blocks of S side by side: flat columns c m + t, c in S
                # and t < m, in that order.
                assert cols(flat) == tuple(c * m + t for c in columns for t in range(m)), (n, m, columns)
                # Then the factors stacked: E[S - {c}] with the sign
                # (-1)^(position of c in S), for each c in S in order.
                keys_wanted = [2 * index[columns[:at] + columns[at + 1 :]] + at % 2 for at in range(size)]
                wanted = tuple(key * m + t for key in keys_wanted for t in range(m))
                assert keys(store) == wanted, (n, m, columns)
            below, previous = previous, sets
        # The level below the last, which the cofactors read, lists the
        # sets without column n - 1, then n - 2, and so on down to 0.
        if n >= 2:
            assert below == [tuple(c for c in range(n) if c != j) for j in reversed(range(n))], n


# Each DP entry, a sum of k block products, is one ``_dp_entry`` call: a
# fused product of a 1 x k block row, m rows of k m entries, by the k m
# packed rows of the k x 1 block column under it.
@pytest.mark.parametrize("label", ["int", "mod:10007", "poly:a"])
def test_block_product_counts(monkeypatch, label):
    # The subset DP takes n 2^(n-1) - n block products, and its one run gives
    # the determinant and the cofactors; the permutation sum takes (n-1) n!.
    seam = ncdet._dp_entry
    terms = 0

    def counting(left, column):
        nonlocal terms
        terms += len(column) // len(left)
        return seam(left, column)

    monkeypatch.setattr(ncdet, "_dp_entry", counting)
    ring = parse_ring(label)
    rng = random.Random(11)
    for n in range(2, 9):
        for m in (1, 2):
            bm = rand_block_matrix(ring, m, n, rng)
            terms = 0
            nc_row_det(bm)
            assert terms == n * 2 ** (n - 1) - n, (n, m)
            terms = 0
            ncdet._det_and_cofactors(bm.ring, m, _flat_rows(bm))
            assert terms == n * 2 ** (n - 1) - n, (n, m)


# The determinant, the cofactors, the cofactor identity and the trace each
# take one run of the subset DP, over the one plan of their shape.
@pytest.mark.parametrize("call", [nc_row_det, cofactor_column_check, bourbaki_trace])
def test_each_caller_runs_the_subset_dp_once(monkeypatch, call):
    runs, plans = [], []
    run, plan = ncdet._subset_dp, ncdet._dp_plan

    def counting_run(*args):
        runs.append(args)
        return run(*args)

    def counting_plan(*shape):
        plans.append(shape)
        return plan(*shape)

    monkeypatch.setattr(ncdet, "_subset_dp", counting_run)
    monkeypatch.setattr(ncdet, "_dp_plan", counting_plan)
    rng = random.Random(5)
    for n in range(2, 6):
        for m in (1, 2):
            runs.clear()
            plans.clear()
            call(rand_block_matrix(ZZ, m, n, rng))
            assert len(runs) == 1 and plans == [(n, m)], (n, m)


def packed_boundary(k):
    """The largest prime p with k (p - 1) p < 2^64 and the next prime above
    it: where a DP on fixed 64-bit slots, n m = k terms of at most
    (p - 1) p to a slot, would have to stop packing."""
    p = isqrt(2**64 // k) + 1
    while k * (p - 1) * p >= 2**64 or not _is_prime(p):
        p -= 1
    q = p + 1
    while not _is_prime(q):
        q += 1
    return p, q


def assert_row_det_commutes_with_reduction(bm):
    # Z -> Z/p is a ring map, so the determinant over mod:p is the one over
    # int, reduced mod p.
    lifted = BlockMatrix(ZZ, bm.m, bm.n, [[Matrix(ZZ, b.entries) for b in row] for row in bm.blocks])

    def reduced(x):
        return Matrix(bm.ring, x.entries)

    assert nc_row_det(bm) == reduced(nc_row_det(lifted))
    if bm.n >= 2:
        assert first_row_cofactors(bm) == list(map(reduced, first_row_cofactors(lifted)))


@st.composite
def boundary_block_matrices(draw):
    # On either side of the 64-bit slot bound, which the DP's slot width,
    # sized from p, must not notice; entries are mostly 0, 1 and p - 1.
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    p = packed_boundary(n * m)[draw(st.integers(0, 1))]
    ring = PrimeField(p)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return BlockMatrix(ring, m, n, [
        [Matrix(ring, [[rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(m)] for _ in range(m)])
         for _ in range(n)]
        for _ in range(n)
    ])


@settings(max_examples=40, deadline=None)
@given(boundary_block_matrices())
def test_packed_row_det_matches_int_reduced_at_the_slot_bound(bm):
    assert_row_det_commutes_with_reduction(bm)


def test_packed_row_det_at_the_largest_slot_sums():
    # On either side of the 64-bit slot bound, with every entry p - 1.
    # With n = 2 and B[1][0] = 0 instead, each entry of the result is
    # m (p - 1)^2, signed, half the DP's slot bound 2! m (p - 1)^2.
    for n, m in ((8, 8), (3, 8), (8, 1), (2, 8), (2, 1)):
        for p in packed_boundary(n * m):
            ring = PrimeField(p)
            full = Matrix(ring, [[p - 1] * m] * m)
            blocks = [[full] * n for _ in range(n)]
            if n == 2:
                blocks[1][0] = scalar(ring, m, 0)
            assert_row_det_commutes_with_reduction(BlockMatrix(ring, m, n, blocks))


def test_packed_row_det_of_a_block_built_from_a_payload_of_at_least_2_to_the_62():
    # 2**62 is 4 mod 7.  The DP sizes its slots from p - 1, so a payload
    # kept as given would carry into its neighbour: on 64-bit slots this
    # sample once gave [3 1; 3 1].
    f7 = PrimeField(7)
    a = Matrix(f7, [[2**62, 0], [0, 1]])
    b = Matrix(f7, [[5, 3], [6, 6]])
    bm = BlockMatrix(f7, 2, 2, [[a, b], [b, b]])
    assert a == Matrix(f7, [[4, 0], [0, 1]])
    assert nc_row_det(bm) == Matrix(f7, [[5, 0], [3, 1]])
    assert det_commutative(nc_row_det(bm)) == det_commutative(bm.flatten())


def test_packed_row_det_of_a_block_built_from_negative_payloads():
    # A payload of -1 kept as given once raised OverflowError from the
    # 64-bit slot packer, array("Q").
    f7 = PrimeField(7)
    neg = Matrix(f7, [[-1, 6], [13, -8]])
    assert neg.entries == ((6, 6), (6, 6))
    bm = BlockMatrix(f7, 2, 2, [[neg, scalar(f7, 2)], [neg, neg]])
    # Det = N N - I N = N^2 - N; N is -J for J the all-ones block, J^2 = 2J.
    assert nc_row_det(bm) == Matrix(f7, [[3, 3], [3, 3]])
    assert_row_det_commutes_with_reduction(bm)


# Each sizes the DP's slots its own way: int from its widest entry, mod:p
# from p - 1 (primes from 2 to one above 2^64), and poly: from its degree
# and widest coefficient, with several slots to an entry.
SLOT_RINGS = ("int", "mod:2", "mod:10007", f"mod:{2**61 - 1}", f"mod:{2**64 + 13}", "poly:a")


@st.composite
def slot_bound_block_matrices(draw):
    """Blocks at the DP's slot bound: int entries up to 2^70 in size,
    mod:p entries in {0, 1, p - 1}, poly: entries of degree up to 4 with
    coefficients up to 2^40 in size; a block is zero, all one extreme
    value of either sign, or drawn entry by entry."""
    ring = parse_ring(draw(st.sampled_from(SLOT_RINGS)))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if isinstance(ring, PrimeField):
        extremes = (ring.p - 1,)
        entry = lambda: rng.choice((0, 1, ring.p - 1))
    elif isinstance(ring, PolynomialRing):
        extremes = ((2**40,) * 5, (-(2**40),) * 5)
        coeff = lambda: rng.choice((0, 2**40, -(2**40), rng.randint(-(2**40), 2**40)))
        entry = lambda: tuple(coeff() for _ in range(rng.randrange(6)))
    else:
        extremes = (2**70, -(2**70))
        entry = lambda: rng.choice((0, 2**70, -(2**70), rng.randint(-(2**70), 2**70)))

    def block():
        kind = rng.randrange(3)
        if kind == 0:
            return scalar(ring, m, 0)
        if kind == 1:
            return Matrix(ring, [[rng.choice(extremes)] * m] * m)
        return Matrix(ring, [[entry() for _ in range(m)] for _ in range(m)])

    return BlockMatrix(ring, m, n, [[block() for _ in range(n)] for _ in range(n)])


@settings(max_examples=150, deadline=None)
@given(slot_bound_block_matrices())
def test_subset_dp_at_the_slot_bound_matches_permutation_sum(bm):
    assert nc_row_det(bm) == perm_sum_row_det(bm)
    if bm.n >= 2:
        assert first_row_cofactors(bm) == perm_sum_first_row_cofactors(bm)
    if isinstance(bm.ring, PrimeField):
        assert_row_det_commutes_with_reduction(bm)


def test_subset_dp_attains_its_slot_bound():
    # n = 1 returns an extreme entry itself, and at n = 2 blocks all t, all
    # t, all -t and all t give AD - BC = 2 m t^2 in every entry: both equal
    # the bound k! (m (d + 1))^(k-1) C^k that sizes the slots.
    for label, t in (("int", 2**70), ("int", -(2**70)), ("mod:10007", 10006), ("poly:a", (2**40,) * 5)):
        ring = parse_ring(label)
        for m in (1, 2, 3):
            a = Matrix(ring, [[t] * m] * m)
            c = Matrix(ring, [[ring.pneg(ring.canonical(t))] * m] * m)
            assert nc_row_det(BlockMatrix(ring, m, 1, [[a]])) == a
            bm = BlockMatrix(ring, m, 2, [[a, a], [c, a]])
            assert nc_row_det(bm) == perm_sum_row_det(bm) == a * a + a * a


def test_dp_size_guards():
    with pytest.raises(ValueError):
        nc_row_det(BlockMatrix(ZZ, 2, 0, []))
    # One block row has no cofactors: the identity holds trivially and the
    # induction has no step.
    single = BlockMatrix(ZZ, 2, 1, [[scalar(ZZ, 2)]])
    assert cofactor_column_check(single)
    with pytest.raises(ValueError):
        bourbaki_trace(single)


def test_nc_row_det_two_blocks_order():
    # Det [[A,B],[C,D]] = AD - BC with that exact left-to-right order.
    rng = random.Random(1)
    for _ in range(10):
        bm = rand_block_matrix(ZZ, 2, 2, rng)
        a, b = bm.block(0, 0), bm.block(0, 1)
        c, d = bm.block(1, 0), bm.block(1, 1)
        assert nc_row_det(bm) == a * d - b * c


def test_nc_row_det_known_values():
    m1 = builtin_matrix("m1")
    assert nc_row_det(m1) == Matrix(ZZ, [[-60, -68], [-76, -84]])
    pa = PolynomialRing("a")
    w = builtin_matrix("same_row", n=2)
    assert nc_row_det(w) == Matrix(pa, [[0, 1], [(0, -1), 0]])


def test_nc_row_det_single_block():
    a = Matrix(ZZ, [[1, 2], [3, 4]])
    assert nc_row_det(BlockMatrix(ZZ, 2, 1, [[a]])) == a


def test_nc_row_det_cap():
    bm = BlockMatrix(ZZ, 1, 9, [[scalar(ZZ, 1)] * 9 for _ in range(9)])
    with pytest.raises(ValueError):
        nc_row_det(bm)


def test_cofactor_users_share_the_cap():
    bm = BlockMatrix(ZZ, 1, 9, [[scalar(ZZ, 1)] * 9 for _ in range(9)])
    for fn in (cofactor_column_check, bourbaki_trace):
        with pytest.raises(ValueError):
            fn(bm)


def test_nc_row_det_scalar_blocks_match_commutative_det():
    rng = random.Random(2)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            bm = rand_block_matrix(F10007, 1, n, rng)
            got = nc_row_det(bm)
            assert got.rows == 1
            assert got == Matrix(F10007, [[det_commutative(bm.flatten())]])


def test_nc_row_det_commutative_blocks_any_order():
    # With pairwise commuting blocks the reversed-order expansion agrees.
    rng = random.Random(3)
    for _ in range(10):
        x = rand_block(ZZ, 2, rng)
        coeffs = [[(rng.randrange(-2, 3), rng.randrange(-2, 3)) for _ in range(2)] for _ in range(2)]
        blocks = [[scalar(ZZ, 2, c0) + x.scale(RingValue(ZZ, c1)) for c0, c1 in row] for row in coeffs]
        bm = BlockMatrix(ZZ, 2, 2, blocks)
        reversed_expansion = None
        for perm, sign in (((0, 1), 1), ((1, 0), -1)):
            prod = blocks[1][perm[1]] * blocks[0][perm[0]]  # reversed factor order
            prod = prod if sign > 0 else -prod
            reversed_expansion = prod if reversed_expansion is None else reversed_expansion + prod
        assert nc_row_det(bm) == reversed_expansion


class TestMinorsAndCofactors:
    def test_two_block_minors(self):
        rng = random.Random(4)
        bm = rand_block_matrix(ZZ, 2, 2, rng)
        assert nc_minor_det(bm, 1, 1) == bm.block(1, 1)
        assert nc_minor_det(bm, 1, 2) == bm.block(1, 0)
        assert nc_minor_det(bm, 2, 2) == bm.block(0, 0)

    def test_minor_equals_explicit_submatrix(self):
        rng = random.Random(5)
        for _ in range(10):
            bm = rand_block_matrix(F10007, 2, 3, rng)
            i, j = rng.randrange(1, 4), rng.randrange(1, 4)
            rows = [
                [bm.block(r, c) for c in range(3) if c != j - 1]
                for r in range(3)
                if r != i - 1
            ]
            assert nc_minor_det(bm, i, j) == nc_row_det(BlockMatrix(F10007, 2, 2, rows))

    def test_cofactor_signs(self):
        rng = random.Random(6)
        bm = rand_block_matrix(ZZ, 2, 2, rng)
        assert nc_cofactor(bm, 1, 1) == nc_minor_det(bm, 1, 1)
        assert nc_cofactor(bm, 1, 2) == -nc_minor_det(bm, 1, 2)

    def test_scalar_blocks_match_commutative_cofactors(self):
        rng = random.Random(7)
        for _ in range(10):
            bm = rand_block_matrix(F10007, 1, 3, rng)
            cof = cofactor_matrix(bm.flatten())
            for i in range(1, 4):
                for j in range(1, 4):
                    assert nc_cofactor(bm, i, j).entries[0][0] == cof.entries[i - 1][j - 1]

    def test_index_errors(self):
        rng = random.Random(8)
        bm = rand_block_matrix(ZZ, 2, 2, rng)
        with pytest.raises(ValueError):
            nc_minor_det(bm, 0, 1)
        with pytest.raises(ValueError):
            nc_minor_det(bm, 1, 3)
        single = BlockMatrix(ZZ, 2, 1, [[bm.block(0, 0)]])
        with pytest.raises(ValueError):
            nc_minor_det(single, 1, 1)


def test_laplace_first_row_no_hypothesis():
    # The first-row expansion needs no commutativity at all.
    rng = random.Random(9)
    for n in (2, 3):
        for _ in range(10):
            bm = rand_block_matrix(ZZ, 2, n, rng)
            acc = None
            for j in range(1, n + 1):
                term = bm.block(0, j - 1) * nc_cofactor(bm, 1, j)
                acc = term if acc is None else acc + term
            assert acc == nc_row_det(bm)


class TestCofactorColumnCheck:
    def test_trivial_single_block(self):
        a = Matrix(ZZ, [[1, 2], [3, 4]])
        assert cofactor_column_check(BlockMatrix(ZZ, 2, 1, [[a]]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_holds_on_family_samples(self, n):
        for seed in range(5):
            bm = gen_satisfying(cond_f(n), 2 * n, F10007, seed=seed)
            assert cofactor_column_check(bm)

    def test_violating_matrix_fails(self):
        # The optimality witness breaks the family's hypothesis and the
        # second-row sum does not vanish; recorded as a non-guarantee case.
        assert not cofactor_column_check(builtin_matrix("same_row", n=2))


class TestBourbakiTrace:
    def test_off_hypothesis_checks(self):
        # M1 = [[A, B], [B, A]] breaks the identity and its first column does
        # not collapse; the monic tail and the n = 2 induction step still hold.
        checks = bourbaki_trace(builtin_matrix("m1"))
        assert checks == BourbakiChecks(False, True, False, True, False)

    def test_scalar_blocks(self):
        bm = block_view(Matrix(ZZ, [[1, 2], [3, 4]]), 1)
        assert bourbaki_trace(bm).all_pass
        shifted, _, _ = shifted_by_z(bm)
        assert det_commutative(shifted.flatten()).payload[0] == -2

    def test_family_samples_all_checks(self):
        for seed in (21, 22):
            bm = gen_satisfying(cond_f(2), 4, ZZ, seed=seed)
            assert bourbaki_trace(bm).all_pass
        bm = gen_satisfying(cond_f(3), 6, ZZ, seed=23)
        assert bourbaki_trace(bm).all_pass

    def test_shifted_matrix_structure(self, monkeypatch):
        # The flat rows the trace takes the determinant of are those of
        # zI + M, entry by entry: z on the diagonal of each diagonal block.
        bm = gen_satisfying(cond_f(2), 4, ZZ, seed=31)
        dets = []
        real_det = ncdet._det_poly
        monkeypatch.setattr(ncdet, "_det_poly", lambda rows: dets.append(rows) or real_det(rows))
        assert bourbaki_trace(bm).all_pass
        tail_rows, rows = dets[:2]
        rz = PolynomialRing("z")
        for i in range(2):
            for j in range(2):
                for r in range(4):
                    for c in range(4):
                        base = bm.block(i, j).entries[r][c]
                        want = [base]
                        if i == j and r == c:
                            want.append(1)
                        assert rows[4 * i + r][4 * j + c] == rz.canonical(want)
        assert tail_rows == tuple(row[4:] for row in rows[4:])

    def test_eliminator_and_identity_oracles(self):
        # det E by flattening E against det C0 and against the tail's
        # determinant, and the identity computed on the input against its
        # constant terms at z = 0.
        for bm in trace_inputs():
            checks = bourbaki_trace(bm)
            shifted, tail, _ = shifted_by_z(bm)
            det_e = eliminator_det(shifted)
            assert det_e == det_commutative(first_row_cofactors(shifted)[0])
            assert checks.induction_step == (det_e == det_commutative(tail.flatten()))
            assert checks.identity_at_zero == identity_at_zero(bm)

    def test_zero_first_block_row(self):
        # det M = 0 = det(Det M), so both polynomial determinants are
        # multiples of z, and neither is zero.
        sample = gen_satisfying(cond_f(2), 4, ZZ, seed=21)
        zero = scalar(ZZ, 4, 0)
        bm = BlockMatrix(ZZ, 4, 2, [[zero, zero], list(sample.blocks[1])])
        shifted, _, shifted_det = shifted_by_z(bm)
        assert det_commutative(bm.flatten()) == RingValue(ZZ, 0)
        for det in (det_commutative(shifted.flatten()), det_commutative(shifted_det)):
            assert len(det.payload) > 1 and det.payload[0] == 0
        assert bourbaki_trace(bm).identity_at_zero and identity_at_zero(bm)

    def test_four_determinants_and_two_flattenings(self, monkeypatch):
        # The four determinants run on payload rows: those of the tail, of
        # zI + M, of its block determinant and of C0, each as the definition
        # builds it, and no matrix is flattened and no row-determinant taken.
        bm = gen_satisfying(cond_f(3), 6, ZZ, seed=23)
        shifted, tail, shifted_det = shifted_by_z(bm)
        c0 = first_row_cofactors(shifted)[0]
        dets, flattened, row_dets = [], [], []
        real_det, real_flatten, real_row_det = ncdet._det_poly, BlockMatrix.flatten, ncdet.nc_row_det
        monkeypatch.setattr(ncdet, "_det_poly", lambda rows: dets.append(rows) or real_det(rows))
        monkeypatch.setattr(BlockMatrix, "flatten", lambda bm: flattened.append(bm) or real_flatten(bm))
        monkeypatch.setattr(ncdet, "nc_row_det", lambda bm: row_dets.append(bm) or real_row_det(bm))
        assert bourbaki_trace(bm).all_pass
        assert flattened == [] and row_dets == []
        assert dets == [real_flatten(tail).entries, real_flatten(shifted).entries, shifted_det.entries, c0.entries]

    def test_the_shifted_matrix_is_flattened_once(self, monkeypatch):
        # The trace lifts the input's flat rows once and flattens nothing
        # else: only the input sample is flattened.
        import blockdet.matrix

        built = []
        real = blockdet.matrix._flatten
        monkeypatch.setattr(blockdet.matrix, "_flatten", lambda bm: built.append(bm) or real(bm))
        bm = gen_satisfying(cond_f(3), 6, ZZ, seed=23)
        assert bourbaki_trace(bm).all_pass
        assert built == [bm]
        # The definition's zI + M and tail equal the per-block lift: z on
        # the diagonal of each diagonal block.
        rz = PolynomialRing("z")

        def lift(block, diagonal):
            return Matrix(rz, [[[x, 1] if diagonal and r == c else x for c, x in enumerate(row)]
                               for r, row in enumerate(block.entries)])

        blocks = [[lift(bm.block(i, j), i == j) for j in range(3)] for i in range(3)]
        shifted, tail, _ = shifted_by_z(bm)
        assert shifted == BlockMatrix(rz, 6, 3, blocks)
        assert tail == BlockMatrix(rz, 6, 2, [row[1:] for row in blocks[1:]])

    def test_requires_integer_ring(self):
        bm = BlockMatrix(F10007, 2, 2, [[scalar(F10007, 2)] * 2] * 2)
        with pytest.raises(ValueError):
            bourbaki_trace(bm)

    def test_requires_two_blocks(self):
        bm = BlockMatrix(ZZ, 2, 1, [[scalar(ZZ, 2)]])
        with pytest.raises(ValueError):
            bourbaki_trace(bm)
