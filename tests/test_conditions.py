import random
import re
from itertools import combinations, permutations as iter_perms

import pytest
from hypothesis import given, settings, strategies as st

from blockdet.conditions import (
    _support,
    Condition,
    complete_condition,
    cond_col_permute,
    cond_f,
    cond_f_down,
    cond_f_side,
    cond_kappa,
    cond_minus_edge,
    cond_named,
    cond_t_col,
    cond_t_row,
    cond_transpose,
    cond_union,
    empty_condition,
    family_condition,
    format_condition,
    is_subgraph,
    matrix_satisfies,
    size2_condition,
    vertices,
)
import blockdet.conditions
from blockdet.matrix import BlockMatrix, Matrix, commutes, shifted
from blockdet.ring import ZZ, PolynomialRing, PrimeField, RingValue
from blockdet.verify import builtin_matrix, gen_satisfying, optimality_scan
from oracles import commutation_graph, cond_row_permute, pairwise_satisfies

A, B, C, D = (1, 1), (1, 2), (2, 1), (2, 2)


def cond(n, *edges):
    return Condition(n, frozenset(edges))


def rand_perm(n, rng):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


def compose(p, q):
    # The relabelling x -> p(q(x)), as a tuple of 1-based images.
    return tuple(p[x - 1] for x in q)


class TestFamilyF:
    def test_small_sizes(self):
        assert cond_f(1) == empty_condition(1)
        assert cond_f(2) == cond(2, (C, D))
        assert cond_f(2) == cond_named("g1")

    def test_size3_matches_defining_predicate(self):
        got = cond_f(3)
        expected = set()
        for u, v in combinations(vertices(3), 2):
            if u[0] != 1 and v[0] != 1 and u[1] != v[1]:
                expected.add((u, v) if u < v else (v, u))
        assert got.edges == frozenset(expected)
        # complete 3-partite graph on column classes of two vertices each
        assert len(got.edges) == 12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_column_permutation_invariance(self, n):
        fam = cond_f(n)
        for images in iter_perms(range(1, n + 1)):
            assert cond_col_permute(fam, images) == fam

    @pytest.mark.parametrize("n", range(1, 9))
    def test_contained_in_kappa(self, n):
        assert is_subgraph(cond_f(n), cond_kappa(n))


class TestKappa:
    def test_counts(self):
        assert cond_kappa(1) == empty_condition(1)
        assert cond_kappa(2) == cond(2, (C, D))
        assert len(cond_kappa(3).edges) == 15  # C(6,2) over the six non-top positions

    def test_transpose_is_complete_on_columns(self):
        got = cond_transpose(cond_kappa(3))
        expected = {
            (u, v)
            for u, v in combinations(vertices(3), 2)
            if u[1] != 1 and v[1] != 1
        }
        assert got.edges == frozenset(expected)


class TestTCol:
    def brute(self, c, n):
        edges = set()
        for (i, j), (k, l) in combinations(vertices(n), 2):
            first = i != k and j != l and j != c and l != c
            second = (j == c or l == c) and (i - k) * (j - l) > 0
            if first or second:
                edges.add(((i, j), (k, l)))
        return frozenset(edges)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_force(self, n):
        for c in range(1, n + 1):
            assert cond_t_col(c, n).edges == self.brute(c, n)

    def test_size2_instances(self):
        assert cond_t_col(1, 2) == cond(2, (A, D))
        # the unused c=2 instance also evaluates to {AD} under the predicate
        assert cond_t_col(2, 2) == cond(2, (A, D))
        assert cond_t_col(1, 1) == empty_condition(1)

    def test_t_row_is_transpose(self):
        for n in (1, 2, 3, 4):
            for r in range(1, n + 1):
                assert cond_t_row(r, n) == cond_transpose(cond_t_col(r, n))
        assert cond_t_row(1, 2) == cond(2, (A, D))

    def test_range_errors(self):
        with pytest.raises(ValueError):
            cond_t_col(3, 2)
        with pytest.raises(ValueError):
            cond_t_row(0, 2)


class TestTransforms:
    def test_identity_acts_trivially(self):
        g = cond_f_side(2, 3)
        ident = (1, 2, 3)
        assert cond_col_permute(g, ident) == g

    def test_group_action(self):
        rng = random.Random(0)
        g = cond_t_col(2, 4)
        for _ in range(25):
            p, q = rand_perm(4, rng), rand_perm(4, rng)
            assert cond_col_permute(cond_col_permute(g, q), p) == cond_col_permute(g, compose(p, q))

    def test_involution_and_exchange(self):
        rng = random.Random(1)
        for _ in range(25):
            n = rng.randrange(2, 5)
            edges = set()
            verts = vertices(n)
            for u, v in combinations(verts, 2):
                if rng.random() < 0.3:
                    edges.add((u, v))
            g = Condition(n, frozenset(edges))
            assert cond_transpose(cond_transpose(g)) == g
            p = rand_perm(n, rng)
            # Column relabelling, and the row relabelling of the tests (the
            # column relabelling between two transposes), against the
            # vertex map itself.
            assert cond_col_permute(g, p) == Condition(n, [((i, p[j - 1]), (k, p[l - 1])) for (i, j), (k, l) in g.edges])
            assert cond_row_permute(g, p) == Condition(n, [((p[i - 1], j), (p[k - 1], l)) for (i, j), (k, l) in g.edges])

    def test_edge_count_preserved(self):
        g = cond_f(3)
        assert len(cond_col_permute(g, (2, 1, 3)).edges) == len(g.edges)
        assert len(cond_transpose(g).edges) == len(g.edges)

    def test_degree_errors(self):
        with pytest.raises(ValueError):
            cond_col_permute(cond_f(2), (2, 1, 3))

    def test_union(self):
        g = cond_f(2)
        assert cond_union(g, empty_condition(2)) == g
        assert cond_union(g, g) == g
        assert cond_union(cond_transpose(cond_f(2)), cond_t_col(1, 2)) == cond_named("g2")
        with pytest.raises(ValueError):
            cond_union(cond_f(2), cond_f(3))

    def test_minus_edge_withholds_only_an_edge(self):
        g = cond_kappa(3)
        assert len(cond_minus_edge(g, ((3, 2), (2, 1))).edges) == len(g.edges) - 1
        # Out of range, and in range but through row 1: neither is an edge.
        for h, pair in ((cond_kappa(2), ((2, 1), (3, 2))), (g, ((1, 1), (2, 2)))):
            with pytest.raises(ValueError, match=re.escape(f"{pair} is not an edge")):
                cond_minus_edge(h, pair)


class TestDerivedFamilies:
    def test_size2_members_match_named_graphs(self):
        assert cond_f_side(1, 2) == cond_named("g2")
        assert cond_f_side(2, 2) == cond_named("g3")
        assert cond_f_down(2, 2) == cond_named("g4")
        assert cond_f(2) == cond_named("g1")

    def test_size1_members_empty(self):
        assert cond_f_side(1, 1) == empty_condition(1)
        assert cond_f_down(1, 1) == empty_condition(1)

    @staticmethod
    def side_gloss(j, n):
        # pairs off column j in different rows commute; a column-j entry
        # commutes with off-column entries strictly below it
        edges = set()
        for u, v in combinations(vertices(n), 2):
            (r1, c1), (r2, c2) = u, v
            if c1 != j and c2 != j and r1 != r2:
                edges.add((u, v))
            elif c1 == j and c2 != j and r2 > r1:
                edges.add((u, v))
            elif c2 == j and c1 != j and r1 > r2:
                edges.add((u, v))
        return frozenset(edges)

    @staticmethod
    def down_gloss(i, n):
        # pairs off row i in different columns commute; a row-i entry
        # commutes with entries off row i and its own column that sit
        # strictly above or strictly to the right
        edges = set()
        for u, v in combinations(vertices(n), 2):
            (r1, c1), (r2, c2) = u, v
            if r1 != i and r2 != i and c1 != c2:
                edges.add((u, v))
            elif r1 == i and r2 != i and c2 != c1 and (r2 < i or c2 > c1):
                edges.add((u, v))
            elif r2 == i and r1 != i and c1 != c2 and (r1 < i or c1 > c2):
                edges.add((u, v))
        return frozenset(edges)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_side_matches_gloss(self, n):
        for j in range(1, n + 1):
            assert cond_f_side(j, n).edges == self.side_gloss(j, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_down_matches_gloss(self, n):
        for i in range(1, n + 1):
            assert cond_f_down(i, n).edges == self.down_gloss(i, n)

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            cond_f_side(3, 2)
        with pytest.raises(ValueError):
            cond_f_down(0, 2)


class TestNamedSize2:
    def test_literal_edge_sets(self):
        assert cond_named("g5") == cond(2, (A, B), (A, C), (B, D))
        assert cond_named("h1") == cond(2, (A, D), (B, C))
        assert cond_named("h2") == cond(2, (A, B), (A, C), (A, D))
        assert cond_named("h3") == cond(2, (A, B), (B, C), (B, D))
        assert cond_named("h4") == cond(2, (A, C), (B, D))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            cond_named("g9")


class TestSubgraph:
    def test_examples(self):
        assert is_subgraph(empty_condition(2), cond_named("h1"))
        assert is_subgraph(cond_named("g1"), cond_kappa(2))
        assert not is_subgraph(cond_named("g2"), cond_named("h2"))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            is_subgraph(cond_f(2), cond_f(3))


class TestCommutativityGraph:
    def test_identity_blocks_complete(self):
        ident = Matrix(ZZ, [[1, 0], [0, 1]])
        bm = BlockMatrix(ZZ, 2, 2, [[ident, ident], [ident, ident]])
        assert commutation_graph(bm) == complete_condition(2)
        assert matrix_satisfies(bm, complete_condition(2))

    def test_optimality_witness_missing_edge(self):
        bm = builtin_matrix("same_row", n=2)
        graph = commutation_graph(bm)
        assert not graph.commutes(C, D)
        assert not matrix_satisfies(bm, cond(2, (C, D)))

    def test_m1_has_cross_edges(self):
        graph = commutation_graph(builtin_matrix("m1"))
        assert graph.commutes(A, D) and graph.commutes(B, C)


class TestSatisfies:
    def test_empty_condition_always(self):
        bm = builtin_matrix("m3")
        assert matrix_satisfies(bm, empty_condition(2))

    def test_m1_satisfies_h1_and_m3_satisfies_h2(self):
        assert matrix_satisfies(builtin_matrix("m1"), cond_named("h1"))
        assert matrix_satisfies(builtin_matrix("m2"), cond_named("h4"))
        assert matrix_satisfies(builtin_matrix("m3"), cond_named("h2"))
        assert matrix_satisfies(builtin_matrix("m3swapped"), cond_named("h3"))

    def test_monotone_in_the_condition(self):
        rng = random.Random(2)
        bm = builtin_matrix("m1")
        graph = commutation_graph(bm)
        for _ in range(50):
            sub = Condition(2, frozenset(e for e in graph.edges if rng.random() < 0.5))
            assert matrix_satisfies(bm, sub)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            matrix_satisfies(builtin_matrix("m1"), cond_f(3))


class TestFamilyIds:
    @pytest.mark.parametrize(
        "fid,n",
        [("f", 3), ("kappa", 3), ("complete", 2), ("empty", 2), ("side:2", 3),
         ("down:1", 3), ("tcol:1", 3), ("trow:2", 3), ("g5", 2), ("h4", 2), ("f", 8)],
    )
    def test_known_ids(self, fid, n):
        family_condition(fid, n)

    def test_equivalences(self):
        assert family_condition("side:1", 2) == cond_named("g2")
        assert family_condition("f", 4) == cond_f(4)

    def test_errors(self):
        for fid, n in [("g5", 3), ("side:9", 3), ("side:x", 3), ("nope", 2), ("f", 0), ("kappa", -1),
                       ("f", 9), ("side:1", 9)]:
            with pytest.raises(ValueError):
                family_condition(fid, n)


def test_condition_text_roundtrip():
    # The size, then each edge once as "i j k l", lower vertex first, in order.
    assert format_condition(empty_condition(2)) == "2\n"
    assert format_condition(cond_named("g4")) == "2\n1 1 1 2\n1 1 2 2\n1 2 2 1\n"
    assert format_condition(cond_f(3)) == "3\n2 1 2 2\n2 1 2 3\n2 1 3 2\n2 1 3 3\n2 2 2 3\n2 2 3 1\n2 2 3 3\n" \
        "2 3 3 1\n2 3 3 2\n3 1 3 2\n3 1 3 3\n3 2 3 3\n"
    assert format_condition(cond_t_col(2, 3)) == "3\n1 1 2 2\n1 1 2 3\n1 1 3 2\n1 1 3 3\n1 2 2 3\n1 2 3 3\n" \
        "1 3 2 1\n1 3 3 1\n2 1 3 2\n2 1 3 3\n2 2 3 3\n2 3 3 1\n"


@st.composite
def conditions(draw):
    n = draw(st.integers(1, 4))
    pairs = list(combinations(vertices(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Condition(n, frozenset(edges))


@settings(max_examples=150, deadline=None)
@given(g=conditions())
def test_condition_text_round_trips(g):
    size, *lines = format_condition(g).splitlines()
    edges = [tuple(map(int, line.split())) for line in lines]
    assert size == str(g.n) and edges == sorted(set(edges))
    assert all((i, j) < (k, l) for i, j, k, l in edges)
    assert Condition(g.n, [((i, j), (k, l)) for i, j, k, l in edges]) == g


def test_condition_rejects_sizes_below_one():
    for make in (lambda: Condition(0, frozenset()), lambda: cond_f(-2)):
        with pytest.raises(ValueError):
            make()


def test_commutes_is_the_irreflexive_edge_relation():
    for g in (cond_f(3), cond_t_col(2, 3), cond_named("g5"), empty_condition(2)):
        for u in vertices(g.n):
            assert not g.commutes(u, u)
            for v in vertices(g.n):
                if u != v:
                    assert g.commutes(u, v) == g.commutes(v, u) == ((min(u, v), max(u, v)) in g.edges)


def test_condition_rejects_bad_vertices():
    with pytest.raises(ValueError):
        Condition(2, frozenset({((0, 1), (1, 1))}))
    with pytest.raises(ValueError):
        Condition(2, frozenset({((1, 1), (1, 1))}))


# --- the trusted paths: every condition built inside is what the checked ------
# --- constructor makes of its edges ----------------------------------------------

def assert_trusted(g):
    assert type(g.edges) is frozenset and all(u < v for u, v in g.edges)
    assert Condition(g.n, g.edges) == g


@pytest.mark.parametrize("n", range(1, 7))
def test_every_builder_and_transform_builds_checked_conditions(n):
    span = range(1, n + 1)
    families = [cond_f(n), cond_kappa(n), complete_condition(n), empty_condition(n)]
    families += [make(k, n) for make in (cond_f_side, cond_f_down, cond_t_col, cond_t_row) for k in span]
    rng = random.Random(n)
    shuffled = list(span)
    rng.shuffle(shuffled)
    images = [tuple(span), tuple(reversed(span)), (*span[1:], 1), tuple(shuffled)]
    for g in families:
        assert_trusted(g)
        assert_trusted(cond_transpose(g))
        for perm in images:
            assert_trusted(cond_col_permute(g, perm))
        assert_trusted(cond_union(g, cond_transpose(g)))
        for u, v in sorted(g.edges)[:6]:
            assert_trusted(cond_minus_edge(g, (u, v)))
            assert cond_minus_edge(g, (v, u)) == cond_minus_edge(g, (u, v))


def test_trusted_conditions_still_check_their_size():
    for make in (lambda: empty_condition(0), lambda: complete_condition(-1), lambda: cond_kappa(0)):
        with pytest.raises(ValueError, match="condition size must be at least 1"):
            make()


@pytest.mark.parametrize("n", [3, 4])
def test_optimality_scan_campaigns_run_on_checked_conditions(n):
    report = optimality_scan(n, campaign_trials=1)
    assert [c.condition_id for c in report.campaigns] == ["f", "kappa", "f-super:0", "f-super:1"]
    for campaign in report.campaigns:
        assert_trusted(campaign.condition)


# --- the centralizer certificate in matrix_satisfies -------------------------
#
# Blocks are built over Z and then read into the ring, so one construction
# serves every ring: a derogatory or e1-blind block over Z stays a trap mod
# a small prime or as constant polynomials, or else the oracle says so.

CERT_RINGS = [ZZ, PrimeField(2), PrimeField(3), PrimeField(10007), PolynomialRing("x")]
HUB_KINDS = ("dense", "derogatory", "e1-blind", "distinct-diagonal", "scalar")
BLOCK_KINDS = ("poly-in-hub", "centralizer", "dense", "scalar", "poly-in-other")


def _z(rows):
    return Matrix(ZZ, rows)


def _entries(rng, m):
    return [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]


def _unitriangular(rng, m, upper):
    """A unitriangular matrix over Z and its inverse."""
    strict = _z([[rng.randint(-2, 2) if (j > i if upper else j < i) else 0 for j in range(m)]
                 for i in range(m)])
    ident = _diag([1] * m)
    inverse, power = ident, ident
    for k in range(1, m):
        power = power * strict
        inverse = inverse + power if k % 2 == 0 else inverse - power
    return ident + strict, inverse


def _conjugator(rng, m):
    """P = U L and its inverse over Z, so that P moves e1 off the
    coordinate axes."""
    u, u_inv = _unitriangular(rng, m, True)
    low, low_inv = _unitriangular(rng, m, False)
    return u * low, low_inv * u_inv


def _diag(values):
    m = len(values)
    return _z([[values[i] if i == j else 0 for j in range(m)] for i in range(m)])


def _hub(kind, m, rng):
    """The block the others are built around, and a maker of blocks that
    commute with it."""
    p, p_inv = _conjugator(rng, m)
    if kind == "derogatory":
        # P diag(1, 1, 2, 3, ...) P^-1; its centralizer is P (R + D) P^-1
        # for any 2x2 R in the corner and diagonal D, so two members
        # generically do not commute with each other.
        hub = p * _diag(([1, 1] + list(range(2, m)))[:m]) * p_inv

        def centralizer():
            corner = _entries(rng, m)
            rows = [[corner[i][j] if i < 2 and j < 2 else (rng.randint(-3, 3) if i == j else 0)
                     for j in range(m)] for i in range(m)]
            return p * _z(rows) * p_inv

        return hub, centralizer
    if kind == "e1-blind":
        # Cyclic for most draws, but e1 lies in the invariant span of the
        # first k coordinates, so its Krylov matrix is singular.
        k = rng.randint(1, max(1, m - 1))
        top, bottom = _entries(rng, m), _entries(rng, m)
        hub = _z([[(top if i < k else bottom)[i][j] if (i < k) == (j < k) else 0
                   for j in range(m)] for i in range(m)])
    elif kind == "distinct-diagonal":
        hub = _diag(list(range(1, m + 1)))
    elif kind == "scalar":
        hub = _diag([rng.randint(-3, 3)] * m)
    else:
        hub = _z(_entries(rng, m))
    return hub, lambda: _poly_in_z(hub, rng)


def _poly_in_z(x, rng):
    m = x.rows
    return (_diag([rng.randint(-3, 3)] * m) + x.scale(RingValue(ZZ, rng.randint(-3, 3)))
            + (x * x).scale(RingValue(ZZ, rng.randint(-3, 3))))


@st.composite
def certificate_cases(draw):
    ring = draw(st.sampled_from(CERT_RINGS), label="ring")
    n = draw(st.integers(2, 3), label="n")
    m = draw(st.integers(1, 5), label="m")
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    # Dense hubs are cyclic for most draws, so the certificate runs often.
    hub, commuting = _hub(draw(st.sampled_from(HUB_KINDS[:1] * 4 + HUB_KINDS[1:]), label="hub"), m, rng)
    pairs = list(combinations(vertices(n), 2))
    edges = draw(st.one_of(
        st.just(frozenset(pairs)),
        st.just(cond_kappa(n).edges),
        st.sets(st.sampled_from(pairs)).map(frozenset),
        st.sets(st.sampled_from(pairs), min_size=len(pairs) - 2).map(frozenset),
        st.just(None),
    ), label="edges")
    clique = set()
    if edges is None:
        # A clique of blocks that commute with the hub, through the hub's
        # position, which the certificate settles, and edges away from it,
        # which are still to be tested.
        clique = {(1, 1), *draw(st.sets(st.sampled_from(vertices(n)[1:]), min_size=2, max_size=4),
                                label="clique")}
        away = [(u, v) for u, v in pairs if u not in clique and v not in clique]
        edges = frozenset(combinations(sorted(clique), 2))
        if away:
            edges |= draw(st.sets(st.sampled_from(away)), label="away")
    other = _z(_entries(rng, m))
    makers = {
        "poly-in-hub": lambda: _poly_in_z(hub, rng),
        "centralizer": commuting,
        "dense": lambda: _z(_entries(rng, m)),
        "scalar": lambda: _diag([rng.randint(-3, 3)] * m),
        "poly-in-other": lambda: _poly_in_z(other, rng),
    }
    # Most blocks commute with the hub, so the certificate is tried often.
    kinds = st.sampled_from(BLOCK_KINDS[:2] * 3 + BLOCK_KINDS[2:])
    in_clique = st.sampled_from(BLOCK_KINDS[:2])

    def block(v):
        if v == (1, 1):
            return hub
        return makers[draw(in_clique if v in clique else kinds, label="block")]()

    bm = BlockMatrix(ring, m, n, [[Matrix(ring, block(v).entries) for v in vertices(n)[i * n : i * n + n]]
                                  for i in range(n)])
    return bm, Condition(n, edges)


@settings(max_examples=300, deadline=None)
@given(case=certificate_cases())
def test_certified_satisfaction_matches_the_pairwise_oracle(case):
    bm, g = case
    assert matrix_satisfies(bm, g) == pairwise_satisfies(bm, g)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(blockdet.conditions, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(blockdet.conditions, name, counted)
    return calls


@pytest.mark.parametrize("n, m", [(2, 4), (3, 6), (4, 4), (4, 8)])
def test_kappa_sample_is_certified_with_one_test_per_neighbour(monkeypatch, n, m):
    ring = PrimeField(10007)
    for seed in range(3):
        bm = gen_satisfying(cond_kappa(n), m, ring, seed)
        tests = _counting(monkeypatch, "shifted_commute")
        assert matrix_satisfies(bm, cond_kappa(n))
        # The hub's n(n-1) - 1 neighbours, and no product among them.  At
        # n = 2, kappa is f and its sample has slot blocks; its one edge
        # joins two slots, which the support certificate settles.
        assert len(tests) == (0 if n == 2 else n * (n - 1) - 1)
        monkeypatch.undo()


def test_complete_sample_over_z_is_certified(monkeypatch):
    g = complete_condition(3)
    bm = gen_satisfying(g, 4, ZZ, 1)
    cyclic = _counting(monkeypatch, "_is_cyclic")
    tests = _counting(monkeypatch, "shifted_commute")
    assert matrix_satisfies(bm, g)
    assert len(cyclic) == 1
    assert len(tests) < len(g.edges)


@pytest.mark.parametrize("family, n, m", [
    ("f", 2, 4), ("f", 3, 6), ("f", 4, 8), ("side:2", 3, 6), ("down:1", 3, 6), ("g5", 2, 4), ("g5", 2, 6),
    ("tcol:2", 3, 4),
])
def test_slot_and_scalar_samples_never_run_the_krylov_test(monkeypatch, family, n, m):
    g = family_condition(family, n)
    for seed in range(4):
        bm = gen_satisfying(g, m, PrimeField(10007), seed)
        cyclic = _counting(monkeypatch, "_is_cyclic")
        assert matrix_satisfies(bm, g)
        assert cyclic == []
        monkeypatch.undo()


@pytest.mark.parametrize("ring", [ZZ, PrimeField(10007), PrimeField(2)], ids=lambda r: r.label)
def test_a_derogatory_hub_certifies_nothing(ring):
    # X commutes with Y and Z, which do not commute with each other: a
    # certificate resting on X would wrongly pass the triangle.
    rng = random.Random(5)
    hub, commuting = _hub("derogatory", 4, rng)
    y, z = commuting(), commuting()
    while y * z == z * y:
        z = commuting()
    blocks = [[Matrix(ring, b.entries) for b in row] for row in [[hub, y], [z, hub]]]
    bm = BlockMatrix(ring, 4, 2, blocks)
    g = size2_condition(("AB", "AC", "BC"))
    assert matrix_satisfies(bm, g) == pairwise_satisfies(bm, g)


@pytest.mark.parametrize("ring", [ZZ, PrimeField(10007)], ids=lambda r: r.label)
def test_edges_away_from_the_hub_are_still_tested(monkeypatch, ring):
    # Row 1 is the hub and two polynomials in it, a triangle the
    # certificate settles; the edge in row 2 joins two dense blocks.
    rng = random.Random(1)
    hub = _z(_entries(rng, 3))
    rows = [[hub, hub * hub, hub + _diag([2, 2, 2])], [_z(_entries(rng, 3)) for _ in range(3)],
            [_diag([1, 2, 3])] * 3]
    bm = BlockMatrix(ring, 3, 3, [[Matrix(ring, b.entries) for b in row] for row in rows])
    row_one = cond(3, ((1, 1), (1, 2)), ((1, 1), (1, 3)), ((1, 2), (1, 3)))
    cyclic = _counting(monkeypatch, "_is_cyclic")
    assert matrix_satisfies(bm, row_one)
    assert not matrix_satisfies(bm, cond_union(row_one, cond(3, ((2, 1), (2, 2)))))
    assert len(cyclic) == 2


def test_family_builders_build_each_condition_once():
    for build, args in ((cond_f, (4,)), (cond_kappa, (4,)), (cond_t_col, (2, 4)), (cond_f_side, (3, 4)),
                        (cond_f_down, (2, 4))):
        assert build(*args) is build(*args)
        assert_trusted(build(*args))
    # A rejected size is rejected on every call, not cached.
    for _ in range(2):
        with pytest.raises(ValueError, match="condition size must be at least 1"):
            cond_f(0)
        with pytest.raises(ValueError, match="column 5 out of range"):
            cond_t_col(5, 4)


# --- the support certificate in matrix_satisfies -----------------------------
#
# An edge whose blocks X, Y have shifted rows R and nonzero columns C with
# C(X) & R(Y) = C(Y) & R(X) = 0 holds with no product.  Blocks are small
# integer blocks read into the ring, mostly with fewer than m - 1 shifted
# rows, so that the certificate's branch runs; small entries make pairs
# that commute, and pairs that nearly do, common.

SUPPORT_RINGS = [ZZ, PrimeField(3), PrimeField(10007), PolynomialRing("x")]
SUPPORT_KINDS = ("slot", "slot", "sparse", "sparse", "sparse", "scalar", "dense")


def _support_block(rng, m, kind):
    """c I alone (scalar), plus a 2x2 block on the diagonal (slot), plus up
    to three entries anywhere (sparse), or a dense block."""
    if kind == "dense":
        return _entries(rng, m)
    c = rng.randint(-2, 2)
    rows = [[c if i == j else 0 for j in range(m)] for i in range(m)]
    if kind == "slot":
        k = rng.randrange(m - 1)
        for i in (k, k + 1):
            for j in (k, k + 1):
                rows[i][j] += rng.randint(-2, 2)
    elif kind == "sparse":
        for _ in range(rng.randint(1, 3)):
            rows[rng.randrange(m)][rng.randrange(m)] = rng.randint(-2, 2)
    return rows


@st.composite
def support_cases(draw):
    ring = draw(st.sampled_from(SUPPORT_RINGS), label="ring")
    n = draw(st.integers(2, 3), label="n")
    m = draw(st.integers(2, 6), label="m")
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    bm = BlockMatrix(ring, m, n, [[Matrix(ring, _support_block(rng, m, rng.choice(SUPPORT_KINDS)))
                                   for _ in range(n)] for _ in range(n)])
    pairs = list(combinations(vertices(n), 2))
    commuting = [(u, v) for u, v in pairs if pairwise_satisfies(bm, cond(n, (u, v)))]
    # Random edges mostly fail; the commuting pairs, alone or with one more
    # pair, make satisfied samples and samples that fail on one edge.
    edges = draw(st.one_of(
        st.sets(st.sampled_from(pairs)),
        st.just(set(commuting)),
        st.sampled_from(pairs).map(lambda e: {*commuting, e}),
    ), label="edges")
    return bm, Condition(n, frozenset(edges))


@settings(max_examples=300, deadline=None)
@given(case=support_cases())
def test_support_certificate_matches_the_product_oracle(case):
    bm, g = case
    assert matrix_satisfies(bm, g) == pairwise_satisfies(bm, g)
    bits = [1 << j for j in range(bm.m)]
    blocks = {v: bm.block(v[0] - 1, v[1] - 1) for v in vertices(bm.n)}
    support = {v: _support(shifted(x), bits) for v, x in blocks.items()}
    for u, v in combinations(vertices(bm.n), 2):
        (rows_u, cols_u), (rows_v, cols_v) = support[u], support[v]
        if not (cols_u & rows_v or cols_v & rows_u):
            x, y = blocks[u], blocks[v]
            assert x * y == y * x


def test_support_masks_are_the_shifted_rows_and_their_nonzero_columns():
    bits = [1 << j for j in range(4)]
    x = Matrix(ZZ, [[5, 0, 0, 0], [0, 5, 0, 0], [0, 1, 7, 2], [0, 0, 0, 5]])
    assert shifted(x) == {2: (0, 1, 2, 2)}
    assert _support(shifted(x), bits) == (0b0100, 0b1110)
    assert _support({}, bits) == (0, 0)
    poly = Matrix(PolynomialRing("x"), [[0, 0], [(0, 1), 0]])
    assert _support(shifted(poly), bits[:2]) == (0b10, 0b01)


def test_f_slot_sample_tests_only_edges_that_share_a_slot(monkeypatch):
    # f puts each column's blocks below row 1 in one slot, and every edge
    # of f joins two columns, so no edge of an f sample needs a product.
    # A same-column edge shares a slot: it is the one edge tested.
    ring, g = PrimeField(10007), cond_f(4)
    wider = cond_union(g, cond(4, ((2, 1), (3, 1))))
    for seed in range(3):
        bm = gen_satisfying(g, 8, ring, seed)
        where = {id(shifted(bm.block(i, j))): (i + 1, j + 1) for i in range(4) for j in range(4)}
        tests = _counting(monkeypatch, "shifted_commute")
        assert matrix_satisfies(bm, g)
        assert tests == []
        holds = commutes(bm.block(1, 0), bm.block(2, 0))
        assert matrix_satisfies(bm, wider) == holds
        tested = [{where[id(xs)], where[id(ys)]} for _, xs, ys in tests]
        assert tested == [{(2, 1), (3, 1)}]
        assert {*shifted(bm.block(1, 0)), *shifted(bm.block(2, 0))} <= {0, 1}
        monkeypatch.undo()


# --- live edges in matrix_satisfies ------------------------------------------
#
# When few blocks have shifted rows, matrix_satisfies finds the live edges
# among the pairs of those blocks rather than by a scan of every edge.  On
# scalar samples with their two slot blocks, and with one more block
# perturbed, it must still agree with the whole commutativity graph.

@pytest.mark.parametrize("ring", [ZZ, PrimeField(10007)], ids=lambda r: r.label)
@pytest.mark.parametrize("n", [5, 6, 7, 8])
@pytest.mark.parametrize("m", [2, 4])
def test_live_edge_satisfaction_matches_the_commutativity_graph(m, n, ring):
    rng = random.Random(100 * n + m)
    verdicts = set()
    for family in ("f", "tcol:1", "side:2", "down:1"):
        g = family_condition(family, n)
        for seed in range(2):
            bm = gen_satisfying(g, m, ring, seed)
            samples = [bm]
            # One block perturbed: a dense block, which commutes with almost
            # no block, or a slot block at either end of the diagonal,
            # which commutes with blocks in the other slot.
            for kind in ("dense", 0, m - 2, "dense"):
                if kind == "dense":
                    rows = _entries(rng, m)
                else:
                    rows = [[int(i == j) for j in range(m)] for i in range(m)]
                    for i in (kind, kind + 1):
                        for j in (kind, kind + 1):
                            rows[i][j] += rng.randint(-2, 2)
                blocks = [list(row) for row in bm.blocks]
                blocks[rng.randrange(n)][rng.randrange(n)] = Matrix(ring, rows)
                samples.append(BlockMatrix(ring, m, n, blocks))
            for x in samples:
                verdict = matrix_satisfies(x, g)
                assert verdict == pairwise_satisfies(x, g), (family, seed)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_edge_vertices_are_the_ends_of_the_edges_in_order():
    g = cond(3, ((2, 3), (1, 1)), ((1, 1), (3, 2)))
    assert g.edge_vertices() == ((1, 1), (2, 3), (3, 2))
    assert g.edge_vertices() is g.edge_vertices()
    assert empty_condition(4).edge_vertices() == ()
    assert cond_f(3).edge_vertices() == tuple(v for v in vertices(3) if v[0] != 1)
