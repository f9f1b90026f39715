import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from blockdet.conditions import (
    Condition,
    complete_condition,
    cond_kappa,
    cond_minus_edge,
    cond_t_col,
    empty_condition,
    t_col_pair,
)
from blockdet.matrix import BlockMatrix
from blockdet.ncdet import nc_row_det
from blockdet.ring import PrimeField, RingValue
from blockdet.traces import (
    IDENTITY_CHECK_CAP,
    _identity_holds,
    _reindexed_det,
    _rowswap_pair,
    check_colswap_identity,
    check_rowswap_identity,
    check_transpose_identity,
    symbolic_row_det,
    word_normal_form,
)
from blockdet.verify import _dense, _draws, _scalar_block, _slot
from oracles import identity_holds_on_every_pair, scalar, trace_equal, trace_equal_by_projection

F10007 = PrimeField(10007)


def letters_of(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def rand_rel(n, rng, density=0.4):
    pairs = list(combinations(letters_of(n), 2))
    return Condition(n, frozenset(p for p in pairs if rng.random() < density))


def rand_word(n, rng, max_len=8):
    pool = letters_of(n)
    return tuple(rng.choice(pool) for _ in range(rng.randrange(0, max_len + 1)))


def scramble(word, rel, rng, swaps=12):
    # random walk over allowed adjacent swaps: stays in the trace class
    w = list(word)
    for _ in range(swaps):
        if len(w) < 2:
            break
        i = rng.randrange(len(w) - 1)
        if rel.commutes(w[i], w[i + 1]):
            w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


class TestNormalForm:
    def test_empty_relation_keeps_word(self):
        rel = empty_condition(3)
        rng = random.Random(0)
        for _ in range(50):
            w = rand_word(3, rng)
            assert word_normal_form(w, rel) == w

    def test_full_relation_sorts(self):
        rel = complete_condition(3)
        rng = random.Random(1)
        for _ in range(50):
            w = rand_word(3, rng)
            assert word_normal_form(w, rel) == tuple(sorted(w))

    def test_single_swap(self):
        rel = Condition(2, frozenset({(((2, 1)), ((2, 2)))}))
        assert word_normal_form(((2, 2), (2, 1)), rel) == ((2, 1), (2, 2))

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            word_normal_form(((3, 1),), empty_condition(2))

    def test_idempotent_and_multiset_preserving(self):
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randrange(2, 5)
            rel = rand_rel(n, rng)
            w = rand_word(n, rng)
            nf = word_normal_form(w, rel)
            assert word_normal_form(nf, rel) == nf
            assert sorted(nf) == sorted(w)


@settings(max_examples=200)
@given(st.data())
def test_normal_form_reachable_scrambles_agree(data):
    n = data.draw(st.integers(min_value=2, max_value=4))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    rel = rand_rel(n, rng)
    w = rand_word(n, rng)
    v = scramble(w, rel, rng)
    assert word_normal_form(w, rel) == word_normal_form(v, rel)


@st.composite
def relations(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    density = draw(st.sampled_from((0.0, 0.2, 0.5, 0.8, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return Condition(n, frozenset(p for p in combinations(letters_of(n), 2) if rng.random() < density))


@settings(max_examples=300)
@given(st.data())
def test_normal_form_is_least_in_its_class_by_projection(data):
    # Checked against the projection route, which shares no code with the
    # greedy scan: same trace class, a fixed point, and no reachable
    # rearrangement is lexicographically smaller.
    rel = data.draw(relations())
    n = rel.n
    word = data.draw(st.lists(st.sampled_from(letters_of(n)), max_size=8))
    stray = data.draw(st.none() | st.tuples(st.integers(-1, n + 2), st.integers(-1, n + 2)))
    if stray is not None:
        word.insert(data.draw(st.integers(0, len(word))), stray)
    word = tuple(word)
    if stray is not None and not (1 <= stray[0] <= n and 1 <= stray[1] <= n):
        with pytest.raises(ValueError) as exc:
            word_normal_form(word, rel)
        assert str(exc.value) == f"letter {stray} out of range for size {n}"
        return
    nf = word_normal_form(word, rel)
    assert trace_equal_by_projection(nf, word, rel)
    assert word_normal_form(nf, rel) == nf
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for _ in range(4):
        assert nf <= scramble(word, rel, rng)


class TestTraceEqual:
    def test_reflexive(self):
        rel = empty_condition(2)
        w = ((1, 1), (2, 2))
        assert trace_equal(w, w, rel)

    def test_edge_present_vs_absent(self):
        u = ((2, 1), (3, 2))
        v = ((3, 2), (2, 1))
        with_edge = Condition(3, frozenset({((2, 1), (3, 2))}))
        without = empty_condition(3)
        assert trace_equal(u, v, with_edge)
        assert not trace_equal(u, v, without)

    def test_projection_agrees_with_normal_form(self):
        # dual-route equality decision on >= 1000 random pairs
        rng = random.Random(3)
        agree = 0
        for _ in range(1100):
            n = rng.randrange(2, 5)
            rel = rand_rel(n, rng)
            w = rand_word(n, rng)
            if rng.random() < 0.5:
                v = scramble(w, rel, rng)
            else:
                v = rand_word(n, rng)
            a = trace_equal(w, v, rel)
            b = trace_equal_by_projection(w, v, rel)
            assert a == b
            agree += 1
        assert agree >= 1000


class TestSymbolicRowDet:
    def test_single_generator(self):
        assert symbolic_row_det(1, empty_condition(1)) == {((1, 1),): 1}

    def test_two_by_two_free(self):
        want = {((1, 1), (2, 2)): 1, ((1, 2), (2, 1)): -1}
        assert symbolic_row_det(2, empty_condition(2)) == want

    def test_family_edge_never_reorders_size2(self):
        free = symbolic_row_det(2, empty_condition(2))
        rel = Condition(2, frozenset({((2, 1), (2, 2))}))
        under_family = symbolic_row_det(2, rel)
        assert set(free) == set(under_family)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_relation_has_factorial_terms(self, n):
        poly = symbolic_row_det(n, complete_condition(n))
        import math

        assert len(poly) == math.factorial(n)
        assert all(c in (-1, 1) for c in poly.values())

    def test_cap(self):
        with pytest.raises(ValueError):
            symbolic_row_det(7, empty_condition(7))

    def test_coefficients_of_a_shared_normal_form_are_summed(self):
        # a word map that sends both words to one: +1 and -1 cancel
        assert _reindexed_det(2, empty_condition(2), lambda w: ((1, 1),) * len(w)) == {}


class TestColswap:
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
    def test_adjacent_swaps_negate(self, n, k):
        assert check_colswap_identity(n, k)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            check_colswap_identity(2, 2)
        with pytest.raises(ValueError):
            check_colswap_identity(IDENTITY_CHECK_CAP + 1, 1)


class TestTranspose:
    @pytest.mark.parametrize("n,c", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_holds_under_column_relation(self, n, c):
        assert check_transpose_identity(n, c)

    def test_fails_under_empty_relation(self):
        # same two expansions, no commutation: the orders cannot match
        rel = empty_condition(2)
        rhs = symbolic_row_det(2, rel)
        lhs = {
            ((2, 2), (1, 1)): 1,
            ((1, 2), (2, 1)): -1,
        }
        assert all(word_normal_form(w, rel) == w for w in lhs)
        assert lhs != rhs

    def test_range_errors(self):
        with pytest.raises(ValueError):
            check_transpose_identity(IDENTITY_CHECK_CAP + 1, 1)
        with pytest.raises(ValueError):
            check_transpose_identity(2, 3)


class TestRowswap:
    def test_same_row_pairs_pass(self):
        assert check_rowswap_identity(3, 2, 3, ((2, 1), (2, 2)))
        assert check_rowswap_identity(3, 2, 3, ((3, 1), (3, 2)))

    def test_same_column_pair_passes(self):
        assert check_rowswap_identity(3, 2, 3, ((2, 1), (3, 1)))

    def test_no_missing_edge_reduces_to_commutative(self):
        assert check_rowswap_identity(3, 2, 3, None)

    def test_order_reversing_swap_fails(self):
        # swapping the two rows of the withheld pair reverses their order
        # inside mixed monomials; the identity is genuinely false there
        assert not check_rowswap_identity(3, 2, 3, ((2, 1), (3, 2)))

    def test_order_preserving_windows_pass(self):
        assert check_rowswap_identity(4, 3, 4, ((2, 1), (3, 2)))
        assert check_rowswap_identity(5, 2, 5, ((3, 1), (4, 2)))

    def test_order_reversing_window_fails(self):
        assert not check_rowswap_identity(4, 2, 3, ((2, 4), (3, 1)))

    def test_errors(self):
        with pytest.raises(ValueError):
            check_rowswap_identity(3, 3, 2, None)
        with pytest.raises(ValueError):
            check_rowswap_identity(3, 2, 3, ((1, 1), (2, 2)))
        with pytest.raises(ValueError):
            check_rowswap_identity(IDENTITY_CHECK_CAP + 1, 2, 3, None)

    @pytest.mark.parametrize(
        "missing",
        [
            ((2, 1), (6, 1)),  # row past n
            ((2, 0), (3, 1)),  # column 0
            ((2, 1), (3, 6)),  # column past n
            ((2, 1), (2, 1)),  # equal letters
            ((3, 2), (3, 2)),
        ],
    )
    def test_withheld_pair_not_two_positions_is_rejected(self, missing):
        with pytest.raises(ValueError) as exc:
            check_rowswap_identity(5, 2, 3, missing)
        assert str(exc.value) == f"{missing} is not a pair of distinct positions outside row 1"

    @pytest.mark.parametrize("missing", [((1, 1), (2, 2)), ((3, 1), (1, 3)), ((1, 2), (1, 2)), ((0, 1), (2, 1))])
    def test_withheld_pair_in_row_1_is_rejected(self, missing):
        with pytest.raises(ValueError) as exc:
            check_rowswap_identity(5, 2, 3, missing)
        assert str(exc.value) == "withheld pair must lie outside row 1"

    def _numeric_instance(self, n, i, j, missing, seed):
        # blocks realizing exactly the relation: perturbations share a slot
        # only at the withheld pair, everything else outside row 1 scalar
        rng = random.Random(seed)
        blocks = []
        for r in range(1, n + 1):
            row = []
            for c in range(1, n + 1):
                if r == 1:
                    row.append(_dense(F10007, 4, _draws(F10007, rng, 16)))
                elif missing is not None and (r, c) in missing:
                    row.append(_slot(F10007, 4, _draws(F10007, rng, 5), 0))
                else:
                    row.append(_scalar_block(F10007, 4, *_draws(F10007, rng, 1)))
            blocks.append(row)
        bm = BlockMatrix(F10007, 4, n, blocks)
        order = [1] + [j if r == i else i if r == j else r for r in range(2, n + 1)]
        swapped = BlockMatrix(F10007, 4, n, [blocks[r - 1] for r in order])
        return nc_row_det(swapped) == -nc_row_det(bm)

    @pytest.mark.parametrize(
        "missing,expected",
        [
            (((2, 1), (2, 2)), True),
            (((2, 1), (3, 1)), True),
            (None, True),
            (((2, 1), (3, 2)), False),
        ],
    )
    def test_numeric_matrices_agree_with_symbolic_verdict(self, missing, expected):
        symbolic = check_rowswap_identity(3, 2, 3, missing)
        assert symbolic == expected
        numeric = all(self._numeric_instance(3, 2, 3, missing, seed) for seed in range(4))
        assert numeric == expected


def test_identity_checks_at_the_cap():
    n = IDENTITY_CHECK_CAP
    corner = ((n - 1, n - 1), (n, n))
    assert check_colswap_identity(n, n - 1)
    assert check_transpose_identity(n, n)
    # the withheld pair's rows keep their order under a swap of rows 2, 3
    # and are reversed by a swap of its own two rows
    assert check_rowswap_identity(n, 2, 3, corner)
    assert not check_rowswap_identity(n, n - 1, n, corner)


def _word_maps(n):
    """(name, letter map, reverse, sign) for every identity at size n,
    written apart from blockdet.traces: colswap for each k, the transpose,
    and a swap of every two rows i < j (row 1 included)."""
    maps = [("transpose", lambda lt: (lt[1], lt[0]), True, 1)]
    for k in range(1, n):
        tau = {k: k + 1, k + 1: k}
        maps.append((f"colswap k={k}", lambda lt, tau=tau: (lt[0], tau.get(lt[1], lt[1])), False, -1))
    for i, j in combinations(range(1, n + 1), 2):
        sigma = {i: j, j: i}
        maps.append((f"rowswap {i},{j}", lambda lt, sigma=sigma: (sigma.get(lt[0], lt[0]), lt[1]), False, -1))
    return maps


def _word_map(letter_map, reverse):
    """The word map the oracle expands: relabel every letter, then reverse
    the word when asked."""
    return lambda w: tuple(letter_map(lt) for lt in (reversed(w) if reverse else w))


def _expansion_verdict(n, rel, word_map, sign):
    """The n! oracle: expand both sides and compare their term dicts."""
    rhs = {w: sign * c for w, c in symbolic_row_det(n, rel).items()}
    return _reindexed_det(n, rel, word_map) == rhs


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pairwise_criterion_matches_expansion(data):
    # Random relations, each identity's word map, and both signs: a wrong
    # sign must fail even where every pair is in order.  The relation's own
    # Condition.commutes is the pair predicate.
    rel = data.draw(relations(max_n=4))
    n = rel.n
    for name, letter_map, reverse, sign in _word_maps(n):
        word_map = _word_map(letter_map, reverse)
        for s in (sign, -sign):
            got = _identity_holds(n, rel.commutes, letter_map, reverse, s)
            assert got == _expansion_verdict(n, rel, word_map, s), (name, s)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_row_pair_skip_matches_every_pair(data):
    # Random row and column permutations, with and without the transpose,
    # under random relations, many of which the identity fails: both
    # reverse values and both signs, against the loop over every pair.
    rel = data.draw(relations(max_n=6))
    n = rel.n
    sigma = data.draw(st.permutations(range(1, n + 1)))
    tau = data.draw(st.permutations(range(1, n + 1)))
    for transpose in (False, True):
        def letter_map(lt, transpose=transpose):
            r, c = sigma[lt[0] - 1], tau[lt[1] - 1]
            return (c, r) if transpose else (r, c)

        for reverse in (False, True):
            for sign in (1, -1):
                got = _identity_holds(n, rel.commutes, letter_map, reverse, sign)
                assert got == identity_holds_on_every_pair(n, rel.commutes, letter_map, reverse, sign)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_identity_checks_match_expansion(data):
    # Each check under its own relation; rowswap for every i < j, with no
    # withheld pair or a random one outside row 1.
    n = data.draw(st.integers(1, 4))
    pairs = list(combinations(letters_of(n)[n:], 2))
    missing = data.draw(st.none() | st.sampled_from(pairs)) if pairs else None
    maps = {name: (_word_map(m, rev), s) for name, m, rev, s in _word_maps(n)}
    for k in range(1, n):
        m, s = maps[f"colswap k={k}"]
        assert check_colswap_identity(n, k) == _expansion_verdict(n, empty_condition(n), m, s)
    for c in range(1, n + 1):
        m, s = maps["transpose"]
        assert check_transpose_identity(n, c) == _expansion_verdict(n, cond_t_col(c, n), m, s)
    rel = cond_kappa(n)
    if missing is not None:
        rel = Condition(n, rel.edges - {missing})
    for i, j in combinations(range(2, n + 1), 2):
        m, s = maps[f"rowswap {i},{j}"]
        assert check_rowswap_identity(n, i, j, missing) == _expansion_verdict(n, rel, m, s), (i, j, missing)


@pytest.mark.parametrize("n", range(1, 7))
def test_pair_predicates_match_their_conditions(n):
    # Every ordered pair of letters, u == v included: the predicates keep
    # Condition.commutes's contract, False on the diagonal.
    letters = letters_of(n)
    kappa = cond_kappa(n)
    for missing in [None] + [p for pair in combinations(letters[n:], 2) for p in (pair, pair[::-1])]:
        pred = _rowswap_pair(n, missing)
        rel = kappa if missing is None else cond_minus_edge(kappa, missing)
        assert all(pred(u, v) == rel.commutes(u, v) for u in letters for v in letters), missing
    for c in range(1, n + 1):
        pred, rel = t_col_pair(c), cond_t_col(c, n)
        assert all(pred(u, v) == rel.commutes(u, v) for u in letters for v in letters), c


class TestEvaluationHomomorphism:
    def _assignment(self, n, rel, rng, m=4):
        # concrete blocks whose commutation refines the relation: scalars
        # everywhere except one non-related pair sharing a slot
        non_edges = [
            p
            for p in combinations(letters_of(n), 2)
            if not rel.commutes(*p) and p[0][0] >= 2 and p[1][0] >= 2
        ]
        special = non_edges[0] if non_edges else None
        out = {}
        for lt in letters_of(n):
            if special and lt in special:
                out[lt] = _slot(F10007, m, _draws(F10007, rng, 5), 0)
            else:
                out[lt] = _scalar_block(F10007, m, *_draws(F10007, rng, 1))
        return out

    def evaluate(self, poly, assignment, m=4):
        total, ident = scalar(F10007, m, 0), scalar(F10007, m)
        for word, coeff in poly.items():
            prod = ident
            for lt in word:
                prod = prod * assignment[lt]
            total = total + prod.scale(RingValue(F10007, coeff))
        return total

    @pytest.mark.parametrize("n", [2, 3])
    def test_symbolic_det_evaluates_to_numeric_det(self, n):
        rng = random.Random(42 + n)
        rel = cond_kappa(n)
        edges = set(rel.edges)
        edges.discard(((2, 1), (2, 2)))
        rel = Condition(n, frozenset(edges))
        for _ in range(5):
            assignment = self._assignment(n, rel, rng)
            blocks = [[assignment[(i, j)] for j in range(1, n + 1)] for i in range(1, n + 1)]
            bm = BlockMatrix(F10007, 4, n, blocks)
            poly = symbolic_row_det(n, rel)
            assert self.evaluate(poly, assignment) == nc_row_det(bm)
