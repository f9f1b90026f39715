import random
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from blockdet.conditions import (
    Condition,
    complete_condition,
    cond_f,
    cond_f_down,
    cond_f_side,
    cond_kappa,
    cond_named,
    empty_condition,
    family_condition,
    is_subgraph,
    matrix_satisfies,
    vertices,
)
from blockdet.matrix import BlockMatrix, Matrix, block_view, commutes, det_commutative
from blockdet.ncdet import BLOCK_SIZE_CAP, nc_row_det
from blockdet.ring import PolynomialRing, PrimeField, RingValue, ZZ, poly_degree
from blockdet.verify import (
    CANONICAL_DIFF_ROW,
    CANONICAL_SAME_ROW,
    _draws,
    _edge_maps,
    _maps_onto,
    _poly_in,
    _scalar_block,
    _special_non_edge,
    builtin_matrix,
    check_identity,
    classify_size2,
    gen_satisfying,
    optimality_scan,
    pick_generator,
    run_campaign,
    silvester_check,
    trial_seed,
)
from oracles import maps_onto_by_relabelling, pairwise_satisfies, sample_by_randrange, scalar

F10007 = PrimeField(10007)


class TestSeeds:
    def test_trial_seed_deterministic_and_spread(self):
        a = [trial_seed(42, i) for i in range(10)]
        b = [trial_seed(42, i) for i in range(10)]
        assert a == b
        assert len(set(a)) == 10
        assert a != [trial_seed(43, i) for i in range(10)]

    def test_gen_deterministic_in_seed(self):
        g = cond_f(3)
        x = gen_satisfying(g, 6, F10007, seed=99)
        y = gen_satisfying(g, 6, F10007, seed=99)
        assert x == y
        assert x != gen_satisfying(g, 6, F10007, seed=100)


# _draws inlines CPython's rule for randrange; if a Python release changes
# randrange, this test fails by name, not only the golden pins.
@pytest.mark.parametrize(
    "ring, args",
    [pytest.param(ring, args, id=ring.label) for ring, args in
     [(PrimeField(p), (p,)) for p in (2, 3, 10007, 65537, 2**31 - 1)]
     + [(ZZ, (-3, 4)), (PolynomialRing("x"), (-3, 4))]],
)
def test_draws_are_randrange_draws(ring, args):
    ours, python = random.Random(2017), random.Random(2017)
    sizes = random.Random(5)
    got, want = [], []
    while len(got) < 20_000:
        # Single draws and whole blocks, one after another on one Random.
        count = sizes.choice((1, 1, 3, 5, 16, 36, 64))
        got += _draws(ring, ours, count)
        want += [python.randrange(*args) for _ in range(count)]
    assert got == want
    assert ours.getstate() == python.getstate()


class TestCheckIdentity:
    def test_known_counterexample_values(self):
        assert check_identity(builtin_matrix("m1"))[:2] == (RingValue(ZZ, -128), RingValue(ZZ, 0))
        assert check_identity(builtin_matrix("m2"))[:2] == (RingValue(ZZ, 128), RingValue(ZZ, 0))
        assert check_identity(builtin_matrix("m3"))[:2] == (RingValue(ZZ, 1152), RingValue(ZZ, 1872))
        # block-column swap negates both sides (odd block size)
        assert check_identity(builtin_matrix("m3swapped"))[:2] == (RingValue(ZZ, -1152), RingValue(ZZ, -1872))

    def test_identity_blocks_equal(self):
        bm = block_view(scalar(ZZ, 4), 2)
        result = check_identity(bm)
        assert result.equal and result.lhs == RingValue(ZZ, 1)

    @pytest.mark.parametrize("ring", [ZZ, F10007, PolynomialRing("x")], ids=lambda r: r.label)
    def test_a_sample_is_flattened_once(self, monkeypatch, ring):
        # The row determinant's subset DP and the flat determinant share the
        # flat rows the sample keeps.
        import blockdet.matrix

        flattened = []
        real = blockdet.matrix._flatten
        monkeypatch.setattr(blockdet.matrix, "_flatten", lambda bm: flattened.append(bm) or real(bm))
        for n, m in ((2, 4), (3, 3), (5, 2)):
            bm = gen_satisfying(cond_f(n), m, ring, n + m)
            flattened.clear()
            result = check_identity(bm)
            assert flattened == [bm]
            assert result.rhs == det_commutative(Matrix(ring, real(bm)))
            assert result.lhs == det_commutative(nc_row_det(BlockMatrix(ring, m, n, bm.blocks)))


SAMPLE_CASES = [
    (cond_f(2), 4),
    (cond_f(3), 6),
    (cond_f_side(2, 3), 6),
    (cond_f_down(3, 3), 6),
    (cond_kappa(2), 4),
    (cond_named("g5"), 4),
    (cond_named("h1"), 3),
    (cond_named("h3"), 3),
    (Condition(3, frozenset({(((2, 1)), ((3, 2)))})), 2),
    (empty_condition(2), 2),
]


class TestGenerators:
    @pytest.mark.parametrize(
        "cond,m,name",
        [
            (cond_f(2), 4, "f-slots"),
            (cond_f(3), 6, "f-slots"),
            (cond_f_side(1, 2), 4, "side-slots:1"),
            (cond_f_down(2, 2), 4, "down-slots:2"),
            (cond_kappa(3), 4, "kappa-poly"),
            (cond_named("g5"), 4, "g5-overlap"),
            (cond_named("h2"), 3, "h2-falsify"),
            (complete_condition(3), 2, "commutative"),
            (cond_f_side(1, 3), 2, "generic-scalar"),  # m too small for slots
        ],
    )
    def test_dispatch(self, cond, m, name):
        assert pick_generator(cond, m)[0] == name

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_only_the_complete_graph_is_commutative(self, n):
        full = complete_condition(n)
        assert pick_generator(full, 2)[0] == "commutative"
        for edge in (min(full.edges), max(full.edges)):
            short = Condition(n, full.edges - {edge})
            assert pick_generator(short, 2)[0] != "commutative"

    def test_polynomial_in_a_block_takes_d_minus_1_products(self):
        # c_0 + c_1 x + ... + c_d x^d from the payload rows of x, ..., x^d.
        x = Matrix(ZZ, [[1, 2], [3, 4]])
        for d in range(0, 5):
            coeffs = [3 - i for i in range(d + 1)]
            want, power, powers = Matrix(ZZ, [[0, 0], [0, 0]]), Matrix(ZZ, [[1, 0], [0, 1]]), []
            for c in coeffs:
                want = want + power.scale(RingValue(ZZ, c))
                power = power * x
                powers.append(power.entries)
            assert _poly_in(x, coeffs, powers[:d]) == want, d

    # The mod:10007 cases keep their plain ids; the other rings add their label.
    @pytest.mark.parametrize(
        "cond,m,ring",
        [
            pytest.param(cond, m, ring, id=f"cond{i}-{m}" + ("" if ring == F10007 else f"-{ring.label}"))
            for ring in (F10007, ZZ, PrimeField(2), PolynomialRing("x"))
            for i, (cond, m) in enumerate(SAMPLE_CASES)
        ],
    )
    def test_samples_satisfy_their_condition(self, cond, m, ring):
        for seed in range(8):
            bm = gen_satisfying(cond, m, ring, seed=seed)
            assert matrix_satisfies(bm, cond)

    def test_samples_are_not_fully_commutative(self):
        # non-vacuity: something permitted to noncommute actually does
        for cond, m in [(cond_f(3), 6), (cond_f_side(2, 3), 6), (cond_named("g5"), 4)]:
            bm = gen_satisfying(cond, m, F10007, seed=5)
            assert not pairwise_satisfies(bm, complete_condition(cond.n))

    def test_f_generator_noncommuting_same_column_pair(self):
        for n in (2, 3, 4):
            bm = gen_satisfying(cond_f(n), 2 * n, F10007, seed=17)
            found = any(
                not commutes(bm.block(i, j), bm.block(k, j))
                for j in range(n)
                for i in range(n)
                for k in range(i + 1, n)
            )
            assert found

    def test_g5_exercises_the_withheld_edges(self):
        bm = gen_satisfying(cond_named("g5"), 4, F10007, seed=3)
        a, b = bm.block(0, 0), bm.block(0, 1)
        c, d = bm.block(1, 0), bm.block(1, 1)
        assert commutes(a, b) and commutes(a, c) and commutes(b, d)
        assert not commutes(c, d)

    def test_block_size_guard(self):
        with pytest.raises(ValueError):
            gen_satisfying(cond_f(2), 1, F10007, seed=0)

    def test_integer_ring_samples(self):
        bm = gen_satisfying(cond_f(2), 4, ZZ, seed=8)
        assert matrix_satisfies(bm, cond_f(2))
        assert all(abs(e) <= 6 for row in bm.blocks for b in row for r in b.entries for e in r)


def family_ids(n):
    """Every family id that ``family_condition`` accepts at size n."""
    ids = ["f", "kappa", "complete", "empty"]
    ids += [f"{head}:{k}" for head in ("side", "down", "tcol", "trow") for k in range(1, n + 1)]
    if n == 2:
        ids += ["g1", "g2", "g3", "g4", "g5", "h1", "h2", "h3", "h4"]
    return ids


def sorted_non_edge(g):
    """The generic generator's special pair as it used to be chosen on
    every draw: all non-edges sorted, those with both rows >= 2 first."""
    non_edges = [(u, v) for u, v in combinations(vertices(g.n), 2) if not g.commutes(u, v)]
    non_edges.sort(key=lambda e: (0 if e[0][0] >= 2 and e[1][0] >= 2 else 1, e))
    return non_edges[0]


@st.composite
def random_conditions(draw):
    """Random edge sets at n = 1..4, dense and sparse, plus kappa's edges
    with some withheld and some edges through row 1 added."""
    n = draw(st.integers(1, 4), label="n")
    rng = draw(st.randoms(use_true_random=False), label="rng")
    pairs = list(combinations(vertices(n), 2))
    if draw(st.booleans(), label="near kappa"):
        edges = set(cond_kappa(n).edges)
        edges -= set(rng.sample(sorted(edges), min(len(edges), draw(st.integers(0, 2), label="withheld"))))
        row_one = [e for e in pairs if e[0][0] == 1]
        edges |= set(rng.sample(row_one, min(len(row_one), draw(st.integers(0, 2), label="added"))))
    else:
        density = rng.random()
        edges = {e for e in pairs if rng.random() < density}
    return Condition(n, frozenset(edges))


class TestGeneratorChoice:
    def test_kappa_is_recognised_for_every_family(self):
        # At n = 1 kappa has no edge, so it is the complete graph and takes
        # the commutative generator; m < 2n skips the slot layouts.
        for n in range(2, 9):
            for fid in family_ids(n):
                g = family_condition(fid, n)
                assert (pick_generator(g, 2 * n - 1)[0] == "kappa-poly") == (g == cond_kappa(n)), (fid, n)

    @settings(max_examples=300, deadline=None)
    @given(g=random_conditions())
    def test_choices_match_the_built_kappa_and_the_sorted_non_edge(self, g):
        if len(g) == g.n * g.n * (g.n * g.n - 1) // 2:
            return
        special = sorted_non_edge(g)
        assert _special_non_edge(g) == special
        name, fn = pick_generator(g, 2)
        assert (name == "kappa-poly") == (g == cond_kappa(g.n))
        if name == "generic-scalar":
            assert fn(F10007, random.Random(0))[1] == [special]

    def test_witnesses_are_non_edges_that_the_sample_breaks(self):
        # Every family at n <= 3 with and without room for slots, and the
        # slot families at n = 4: each generator's witness pairs are
        # non-edges of its condition, and every sample leaves at least one
        # of them noncommuting.
        cases = [(fid, n, m) for n in (1, 2, 3) for fid in family_ids(n) for m in sorted({2, 3, 4, 2 * n})]
        cases += [(fid, 4, 8) for fid in ["f"] + [f"{head}:{k}" for head in ("side", "down") for k in range(1, 5)]]
        names = set()
        for fid, n, m in cases:
            g = family_condition(fid, n)
            name, fn = pick_generator(g, m)
            names.add(name.partition(":")[0])
            witnesses = fn(F10007, random.Random(0))[1]
            if name == "commutative":
                assert witnesses == [], (fid, n, m)
                continue
            assert witnesses and not any(g.commutes(u, v) for u, v in witnesses), (fid, n, m)
            for ring, seed in ((F10007, 1), (PrimeField(2), 2)):
                bm = gen_satisfying(g, m, ring, seed)
                assert not pairwise_satisfies(bm, Condition(g.n, witnesses)), (fid, n, m, ring.label)
        assert names == {"commutative", "f-slots", "side-slots", "down-slots", "kappa-poly", "g5-overlap",
                         "h1-falsify", "h2-falsify", "h3-falsify", "h4-falsify", "generic-scalar"}

    def test_trusted_samples_pass_the_checked_constructor(self):
        # The generators build through the trusted BlockMatrix._of: every
        # family's sample at n <= 4, with and without room for slots, on
        # every ring, is one the checked constructor accepts and rebuilds.
        for n in range(1, 5):
            for fid in family_ids(n):
                g = family_condition(fid, n)
                for m in sorted({2, 3, 4, 2 * n}):
                    for ring in (ZZ, F10007, PrimeField(2), PolynomialRing("x")):
                        bm = gen_satisfying(g, m, ring, n + m)
                        assert BlockMatrix(ring, m, n, bm.blocks) == bm, (fid, n, m, ring.label)

    @pytest.mark.parametrize("family", ["f", "kappa"])
    def test_a_draw_shifts_each_block_once(self, monkeypatch, family):
        # matrix_satisfies shifts the six blocks on the edges, below row 1,
        # and the witness test reuses them; only the first witness pair's
        # block in row 1 is new, and the pair does not commute.
        import blockdet.matrix

        shifts = []
        real = blockdet.matrix._shift
        monkeypatch.setattr(blockdet.matrix, "_shift", lambda x: shifts.append(x) or real(x))
        for seed in range(3):
            shifts.clear()
            bm = gen_satisfying(family_condition(family, 3), 6, F10007, seed)
            assert len({id(x) for x in shifts}) == len(shifts) == 7
            row_one = [x for x in shifts if any(x is b for b in bm.blocks[0])]
            assert len(row_one) == 1 and row_one[0] is bm.block(0, 0)

    def test_the_special_non_edge_is_picked_once_per_campaign(self, monkeypatch):
        import blockdet.verify

        calls = []

        def counting(g):
            calls.append(g)
            return _special_non_edge(g)

        monkeypatch.setattr(blockdet.verify, "_special_non_edge", counting)
        g = family_condition("tcol:1", 3)
        assert run_campaign(g, 3, F10007, 4, seed=1).generator == "generic-scalar"
        assert calls == [g]

    # Every generator that pick_generator dispatches to, with the mod:2
    # samples of kappa at m = 2, tcol:1 at m = 3 and g5 that need retries.
    DRAW_CASES = [("complete", 2, 3), ("f", 2, 4), ("side:1", 2, 4), ("side:3", 3, 6), ("down:2", 2, 4),
                  ("kappa", 2, 2), ("kappa", 3, 3), ("g5", 2, 4), ("g5", 2, 5), ("h1", 2, 3), ("h2", 2, 3),
                  ("h3", 2, 3), ("h4", 2, 3), ("f", 3, 2), ("tcol:1", 3, 3)]

    @pytest.mark.parametrize("ring", [ZZ, F10007, PrimeField(2), PolynomialRing("x")], ids=lambda r: r.label)
    def test_samples_are_the_per_entry_randrange_draws(self, monkeypatch, ring):
        # Each sample's values come from one _draws call, sliced block by
        # block; the oracle draws them one randrange call at a time and
        # builds the blocks by matrix arithmetic.  The samples, the retries
        # and the Random's state after them are the same.
        import blockdet.verify

        made = []

        class Recording(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        monkeypatch.setattr(blockdet.verify, "random", SimpleNamespace(Random=Recording))
        names, retries = set(), 0
        for fid, n, m in self.DRAW_CASES:
            g = family_condition(fid, n)
            names.add(pick_generator(g, m)[0].partition(":")[0])
            for seed in range(4):
                made.clear()
                bm = gen_satisfying(g, m, ring, seed)
                want, rng, attempts = sample_by_randrange(g, m, ring, seed)
                assert bm == want, (fid, n, m, seed)
                assert len(made) == 1 and made[0].getstate() == rng.getstate(), (fid, n, m, seed)
                retries += attempts - 1
        assert names == {"commutative", "f-slots", "side-slots", "down-slots", "kappa-poly", "g5-overlap",
                         "h1-falsify", "h2-falsify", "h3-falsify", "h4-falsify", "generic-scalar"}
        if ring == PrimeField(2):
            assert retries > 0


class TestScalarInterning:
    def test_a_value_gives_one_block(self):
        assert _scalar_block(ZZ, 2, 3) is _scalar_block(ZZ, 2, 3)
        # Equal rings share the block.
        assert _scalar_block(PrimeField(10007), 4, 5) is _scalar_block(PrimeField(10007), 4, 5)

    def test_the_ring_and_the_size_are_part_of_the_key(self):
        px = PolynomialRing("x")
        blocks = {(ring.label, m): _scalar_block(ring, m, 3) for ring in (ZZ, px) for m in (2, 3)}
        assert len({id(b) for b in blocks.values()}) == 4
        assert blocks["int", 2].ring == ZZ and blocks["int", 2].entries == ((3, 0), (0, 3))
        assert blocks["int", 3].entries == ((3, 0, 0), (0, 3, 0), (0, 0, 3))
        assert blocks["poly:x", 2].ring == px and blocks["poly:x", 2].entries == (((3,), ()), ((), (3,)))
        assert blocks["poly:x", 3].entries == (((3,), (), ()), ((), (3,), ()), ((), (), (3,)))

    def test_the_cache_is_bounded(self):
        assert _scalar_block.cache_info().maxsize == 64

    def test_a_campaign_shifts_each_distinct_scalar_once(self, monkeypatch):
        # f at n = 5, m = 2 over int: 23 scalar blocks and 2 slot blocks a
        # sample, the scalars from 7 values.  Each block is shifted once,
        # and at most 7 of them are scalar: the interned ones.
        import blockdet.matrix

        shifts = []
        real = blockdet.matrix._shift
        monkeypatch.setattr(blockdet.matrix, "_shift", lambda x: shifts.append(x) or real(x))
        _scalar_block.cache_clear()
        assert run_campaign(cond_f(5), 2, ZZ, 20, seed=4).failures == 0
        assert len({id(x) for x in shifts}) == len(shifts)
        scalars = [x for x in shifts if not real(x)]
        assert 0 < len(scalars) <= 7
        assert len(shifts) - len(scalars) == 2 * 20


class TestCampaigns:
    def test_family_campaign_passes(self):
        report = run_campaign(cond_f(2), 4, F10007, 50, seed=42, condition_id="f")
        assert report.failures == 0
        assert report.first_failure is None
        assert report.generator == "f-slots"
        assert report.summary_line() == "condition=f trials=50 failures=0 seed=42"

    def test_falsifying_campaign_fails(self):
        report = run_campaign(cond_named("h4"), 3, F10007, 50, seed=42, condition_id="h4")
        assert report.failures > 0
        first = report.first_failure
        assert first is not None
        assert matrix_satisfies(first.matrix, cond_named("h4"))
        assert first.lhs != first.rhs

    def test_campaign_deterministic(self):
        a = run_campaign(cond_named("h4"), 2, F10007, 30, seed=7, condition_id="h4")
        b = run_campaign(cond_named("h4"), 2, F10007, 30, seed=7, condition_id="h4")
        assert a.failures == b.failures
        assert a.first_failure.matrix == b.first_failure.matrix

    def test_commutative_campaign_passes_over_integers(self):
        report = run_campaign(complete_condition(2), 2, ZZ, 25, seed=1, condition_id="complete")
        assert report.failures == 0

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(cond_f(2), 4, F10007, -3, seed=1)
        assert run_campaign(cond_f(2), 4, F10007, 0, seed=1).trials == 0

    def test_small_block_size_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(cond_f(2), 1, F10007, 0, seed=1)

    def test_generator_is_picked_once_per_campaign(self, monkeypatch):
        import blockdet.verify

        calls = []

        def counting(g, m):
            calls.append((g, m))
            return pick_generator(g, m)

        monkeypatch.setattr(blockdet.verify, "pick_generator", counting)
        assert run_campaign(cond_f(2), 4, F10007, 5, seed=1).failures == 0
        assert calls == [(cond_f(2), 4)]

    def test_condition_past_the_row_determinant_cap_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(cond_f(9), 2, F10007, 0, seed=1)


class TestCounterexamples:
    @pytest.mark.parametrize("h", ["h1", "h2", "h3", "h4"])
    def test_each_h_matrix_satisfies_and_fails(self, h):
        bm = builtin_matrix(h)
        assert matrix_satisfies(bm, cond_named(h))
        assert not check_identity(bm).equal

    def test_h_mapping(self):
        assert builtin_matrix("h1") == builtin_matrix("m1")
        assert builtin_matrix("h4") == builtin_matrix("m2")
        assert builtin_matrix("h2") == builtin_matrix("m3")
        assert builtin_matrix("h3") == builtin_matrix("m3swapped")

    def test_m3_block_values(self):
        bm = builtin_matrix("m3")
        assert bm.block(0, 0) == Matrix(ZZ, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        assert bm.block(1, 1) == Matrix(ZZ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])

    def test_unknown_names(self):
        with pytest.raises(ValueError):
            builtin_matrix("h5")
        with pytest.raises(ValueError):
            builtin_matrix("nope")


@pytest.fixture(scope="module")
def classification():
    return classify_size2()


class TestClassification:
    def test_covers_all_64_graphs(self, classification):
        assert len(classification.records) == 64
        assert len({r.labels for r in classification.records}) == 64

    def test_scc_set_is_upward_closure(self, classification):
        minimal = [cond_named(f"g{k}") for k in range(1, 6)]
        for rec in classification.records:
            expected = any(is_subgraph(g, rec.condition) for g in minimal)
            assert rec.is_scc == expected

    def test_counts(self, classification):
        assert sum(1 for r in classification.records if r.is_scc) == 48
        assert sum(1 for r in classification.records if not r.is_scc) == 16

    def test_every_falsifier_is_genuine(self, classification):
        for rec in classification.records:
            if rec.is_scc:
                assert rec.witness in {"G1", "G2", "G3", "G4", "G5"}
                continue
            bm = builtin_matrix(rec.falsifier.lower())
            assert matrix_satisfies(bm, rec.condition)
            result = check_identity(bm)
            assert not result.equal
            assert (result.lhs, result.rhs) == (rec.lhs, rec.rhs)

    def test_named_lines(self, classification):
        by_labels = {r.labels: r for r in classification.records}
        assert by_labels[("CD",)].line() == "edges={CD} SCC witness=G1"
        assert by_labels[("AC", "BD")].line() == "edges={AC,BD} NOT-SCC falsifier=M2 lhs=128 rhs=0"
        assert by_labels[()].is_scc is False


class TestSilvester:
    @pytest.mark.parametrize("variant", ["a", "b", "c"])
    def test_hypothesis_guarantees_equality(self, variant):
        report = silvester_check(variant, 3, F10007, 50, seed=11)
        assert report.failures == 0

    def test_integer_ring_variant(self):
        report = silvester_check("b", 2, ZZ, 25, seed=12)
        assert report.failures == 0

    def test_negative_control_fails(self):
        report = silvester_check("c", 3, F10007, 50, seed=13, enforce_hypothesis=False)
        assert report.failures > 0

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            silvester_check("d", 2, ZZ, 1, seed=0)

    # The same input checks as run_campaign: no report without trials behind
    # it, and the block size between 2 and the campaigns' cap.
    @pytest.mark.parametrize(
        ("m", "trials", "message"),
        [
            (2, -3, "trials must be non-negative, got -3"),
            (0, 1, "block size must be at least 2"),
            (100, 1, f"block size m=100 exceeds the cap {BLOCK_SIZE_CAP}"),
        ],
    )
    def test_bad_trials_or_block_size(self, m, trials, message):
        with pytest.raises(ValueError) as info:
            silvester_check("a", m, F10007, trials, seed=0)
        assert str(info.value) == message


class TestOptimalityWitnesses:
    def test_same_row_small_case(self):
        pa = PolynomialRing("a")
        w = builtin_matrix("same_row", 2)
        result = check_identity(w)
        assert nc_row_det(w) == Matrix(pa, [[0, 1], [(0, -1), 0]])
        assert result.lhs == pa.gen
        assert result.rhs == RingValue(pa, 0)
        assert poly_degree(result.rhs) <= 0

    def test_diff_row_small_case(self):
        pa = PolynomialRing("a")
        w = builtin_matrix("diff_row", 3)
        result = check_identity(w)
        assert nc_row_det(w) == Matrix(pa, [[0, -1], [(0, -1), 0]])
        assert result.lhs == RingValue(pa, (0, -1))
        assert poly_degree(result.rhs) <= 0

    @pytest.mark.parametrize("case,n", [("same_row", 2), ("same_row", 3), ("diff_row", 3), ("diff_row", 4)])
    def test_degree_dichotomy(self, case, n):
        result = check_identity(builtin_matrix(case, n))
        assert poly_degree(result.lhs) >= 1
        assert poly_degree(result.rhs) <= 0
        assert result.rhs != result.lhs
        assert not result.equal

    def test_witness_satisfies_its_graph(self):
        kap = cond_kappa(2)
        target = Condition(2, kap.edges - {((2, 1), (2, 2))})
        assert matrix_satisfies(builtin_matrix("same_row", 2), target)
        kap3 = cond_kappa(3)
        target3 = Condition(3, kap3.edges - {((2, 1), (3, 2))})
        assert matrix_satisfies(builtin_matrix("diff_row", 3), target3)

    def test_flattened_same_row_structure(self):
        pa = PolynomialRing("a")
        flat = builtin_matrix("same_row", 2).flatten()
        assert flat == Matrix(pa, [[1, 0, 0, 0], [0, 0, 1, 0], [(0, 1), 0, 0, 1], [0, 0, 0, 0]])

    @pytest.mark.parametrize("case,n", [("same_row", 2), ("same_row", 4), ("diff_row", 3), ("diff_row", 5)])
    def test_builtin_is_the_witness_matrix(self, case, n):
        # The witness at n is the one at its least size, the default, with
        # identity blocks down the rest of the diagonal and zero blocks
        # elsewhere.
        least = builtin_matrix(case)
        w = builtin_matrix(case, n=n)
        one, zero = Matrix(w.ring, [[1, 0], [0, 1]]), Matrix(w.ring, [[0, 0], [0, 0]])
        for i in range(n):
            for j in range(n):
                if i < least.n and j < least.n:
                    assert w.block(i, j) == least.block(i, j)
                else:
                    assert w.block(i, j) == (one if i == j else zero)

    def test_size_guards(self):
        with pytest.raises(ValueError):
            builtin_matrix("same_row", 1)
        with pytest.raises(ValueError):
            builtin_matrix("diff_row", 2)
        with pytest.raises(ValueError):
            builtin_matrix("other", 3)


class TestOptimalityScan:
    @pytest.mark.parametrize("n", [2, 3])
    def test_scan_passes(self, n):
        report = optimality_scan(n, campaign_trials=25)
        assert report.all_ok
        assert len(report.edge_cases) == len(cond_f(n).edges)
        for rec in report.edge_cases:
            assert rec.mapped_matches_canonical
        assert all(c.failures == 0 for c in report.campaigns)

    def test_scan_case_split(self):
        report = optimality_scan(3, campaign_trials=10)
        cases = {rec.case for rec in report.edge_cases}
        assert cases == {"same_row", "diff_row"}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_image_test_matches_the_relabelled_graphs(self, n):
        report = optimality_scan(n, campaign_trials=0)
        assert len(report.edge_cases) == len(cond_f(n).edges)
        for rec in report.edge_cases:
            case, canonical, row_map, col_map = _edge_maps(n, rec.edge)
            assert rec.case == case
            assert rec.mapped_matches_canonical == maps_onto_by_relabelling(n, rec.edge, canonical, row_map,
                                                                            col_map)
            assert rec.mapped_matches_canonical
            if n >= 3:
                # The same maps do not send the edge onto the other case's canonical edge.
                other = CANONICAL_DIFF_ROW if case == "same_row" else CANONICAL_SAME_ROW
                assert not _maps_onto(rec.edge, other, row_map, col_map)
                assert not maps_onto_by_relabelling(n, rec.edge, other, row_map, col_map)

    @pytest.mark.parametrize("n,edge,mutant", [
        (3, ((2, 1), (2, 2)), (3, 2, 1)),
        (4, ((2, 1), (3, 2)), (4, 2, 3, 1)),
        (5, ((3, 2), (5, 4)), (4, 1, 2, 5, 3)),
    ])
    def test_a_row_map_that_moves_row_one_matches_under_neither(self, n, edge, mutant):
        case, canonical, row_map, col_map = _edge_maps(n, edge)
        assert _maps_onto(edge, canonical, row_map, col_map)
        assert maps_onto_by_relabelling(n, edge, canonical, row_map, col_map)
        # The mutant still sends the edge onto the canonical one; only
        # moving row 1 tells it apart.
        assert sorted((mutant[r - 1], col_map[c - 1]) for r, c in edge) == list(canonical)
        assert not _maps_onto(edge, canonical, mutant, col_map)
        assert not maps_onto_by_relabelling(n, edge, canonical, mutant, col_map)

    def test_scan_guard(self):
        with pytest.raises(ValueError, match="n >= 2"):
            optimality_scan(1)
        with pytest.raises(ValueError, match="^size n=9 exceeds the row-determinant cap 8$"):
            optimality_scan(9)
