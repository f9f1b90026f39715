import random
from itertools import combinations, permutations as iter_perms

import pytest
from hypothesis import given, settings, strategies as st

from blockdet.conditions import (
    Condition,
    commutativity_graph,
    complete_condition,
    cond_col_permute,
    cond_f,
    cond_f_down,
    cond_f_side,
    cond_kappa,
    cond_named,
    cond_row_permute,
    cond_t_col,
    cond_t_row,
    cond_transpose,
    cond_union,
    empty_condition,
    family_condition,
    format_condition,
    is_subgraph,
    matrix_satisfies,
    parse_condition,
    vertices,
)
from blockdet.matrix import BlockMatrix, Matrix
from blockdet.ring import ZZ
from blockdet.verify import builtin_matrix

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
        assert len(got) == 12

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
        assert len(cond_kappa(3)) == 15  # C(6,2) over the six non-top positions

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
        assert cond_row_permute(g, ident) == g

    def test_group_action(self):
        rng = random.Random(0)
        g = cond_t_col(2, 4)
        for _ in range(25):
            p, q = rand_perm(4, rng), rand_perm(4, rng)
            assert cond_col_permute(cond_col_permute(g, q), p) == cond_col_permute(g, compose(p, q))
            assert cond_row_permute(cond_row_permute(g, q), p) == cond_row_permute(g, compose(p, q))

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
            assert cond_transpose(cond_col_permute(g, p)) == cond_row_permute(cond_transpose(g), p)

    def test_edge_count_preserved(self):
        g = cond_f(3)
        assert len(cond_col_permute(g, (2, 1, 3))) == len(g)
        assert len(cond_transpose(g)) == len(g)

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
        ident = Matrix.identity(ZZ, 2)
        bm = BlockMatrix(ZZ, 2, 2, [[ident, ident], [ident, ident]])
        assert commutativity_graph(bm) == complete_condition(2)

    def test_optimality_witness_missing_edge(self):
        bm = builtin_matrix("same_row", n=2)
        graph = commutativity_graph(bm)
        assert not graph.commutes(C, D)

    def test_m1_has_cross_edges(self):
        graph = commutativity_graph(builtin_matrix("m1"))
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
        graph = commutativity_graph(bm)
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
    for g in (cond_f(3), cond_kappa(2), empty_condition(2), cond_f_side(2, 4)):
        assert parse_condition(format_condition(g)) == g
    # Lines written higher vertex first, or more than once, name the same edges.
    for g in (cond_f(3), cond_t_col(2, 3), cond_named("g4")):
        lines = [f"{k} {l} {i} {j}" for (i, j), (k, l) in g.sorted_edges()]
        text = format_condition(g) + "\n".join(lines + lines[:2]) + "\n"
        assert parse_condition(text) == g
        assert format_condition(parse_condition(text)) == format_condition(g)


@st.composite
def conditions(draw):
    n = draw(st.integers(1, 4))
    pairs = list(combinations(vertices(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Condition(n, frozenset(edges))


@settings(max_examples=150, deadline=None)
@given(g=conditions())
def test_condition_text_round_trips(g):
    assert parse_condition(format_condition(g)) == g


def test_condition_rejects_sizes_below_one():
    for make in (lambda: parse_condition("0"), lambda: parse_condition("-3"),
                 lambda: Condition(0, frozenset()), lambda: cond_f(-2)):
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
