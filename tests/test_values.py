"""The value types `Matrix`, `BlockMatrix`, `RingValue`, the rings and
`Condition`: immutable, equal and hashed by their contents whatever path
built them, and printed the same way.  The records of `verify` and `ncdet`
are named tuples: immutable too, and equal to the tuple of their fields."""

import copy
import functools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from blockdet.conditions import Condition, cond_f, family_condition
from blockdet.matrix import (
    BlockMatrix,
    Matrix,
    _flat_rows,
    block_view,
    det_commutative,
    format_matrix,
    parse_block_matrix,
    parse_matrix,
    shifted,
)
from blockdet.ncdet import _det_and_cofactors, bourbaki_trace, nc_row_det
from blockdet.ring import ZZ, IntegerRing, PolynomialRing, PrimeField, RingValue
from blockdet.verify import (
    _dense,
    _draws,
    _poly_in,
    _scalar_block,
    _slot,
    builtin_matrix,
    classify_size2,
    gen_satisfying,
    optimality_scan,
    pick_generator,
    run_campaign,
)
from oracles import nc_cofactor, nc_minor_det

F7 = PrimeField(7)
PA = PolynomialRing("a")

ROWS = [[1, 2, 0, 0], [3, 4, 0, 5], [0, 0, 6, 0], [0, 0, 0, 1]]
TEXT = "4 4 int\n1 2 0 0\n3 4 0 5\n0 0 6 0\n0 0 0 1\n"
BLOCK_TEXT = "2 2 int\n1 2 0 0\n3 4 0 5\n0 0 6 0\n0 0 0 1\n"


def _blocks(ring):
    return [
        [Matrix(ring, [[1, 2], [3, 4]]), Matrix(ring, [[0, 0], [0, 5]])],
        [Matrix(ring, [[0, 0], [0, 0]]), Matrix(ring, [[6, 0], [0, 1]])],
    ]


def _values():
    mat = Matrix(ZZ, ROWS)
    return mat, block_view(mat, 2), RingValue(ZZ, mat.entries[1][0])


EDGE = ((1, 1), (2, 2))
COND = Condition(2, [EDGE[::-1]])


def _with_fields(mat, bm, v):
    """Every value type with the names of its fields: the rings, a
    condition from the checked and from the trusted constructor, and the
    three ``_values()``."""
    return ((ZZ, ()), (F7, ("p",)), (PA, ("variable",)), (COND, ("n", "edges")), (cond_f(3), ("n", "edges")),
            (mat, ("ring", "rows", "cols", "entries")), (bm, ("ring", "m", "n", "blocks")), (v, ("ring", "payload")))


@functools.cache
def _records():
    """One instance of every record type of ``verify`` and ``ncdet``."""
    report = run_campaign(family_condition("h1", 2), 2, F7, 2, 0, condition_id="h1")
    scan = optimality_scan(2, campaign_trials=1)
    checks = bourbaki_trace(builtin_matrix("m1"))
    return (report, report.first_failure, checks, scan, scan.edge_cases[0], classify_size2()[-1])


def test_assigning_a_field_or_a_new_attribute_raises():
    mat, bm, v = _values()
    for obj, fields in _with_fields(mat, bm, v) + tuple((rec, rec._fields) for rec in _records()):
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        assert not hasattr(obj, "extra")
    assert mat == Matrix(ZZ, ROWS) and bm == block_view(mat, 2) and v == RingValue(ZZ, 3)
    assert F7 == PrimeField(7) and PA == PolynomialRing("a") and COND == Condition(2, [EDGE])


def test_values_built_by_different_paths_are_equal():
    mat, bm, v = _values()
    parsed = parse_matrix(TEXT)
    assert mat == parsed and hash(mat) == hash(parsed)
    assert (mat.rows, mat.cols) == (parsed.rows, parsed.cols) == (4, 4)
    for other in (parse_block_matrix(BLOCK_TEXT), BlockMatrix(ZZ, 2, 2, _blocks(ZZ)), block_view(parsed, 2)):
        assert bm == other and hash(bm) == hash(other)
    assert bm.flatten() == mat
    for other in (RingValue(ZZ, 3), RingValue(ZZ, parsed.entries[1][0]), det_commutative(Matrix(ZZ, [[3]]))):
        assert v == other and hash(v) == hash(other)
    a = RingValue(PA, (0, 1))
    assert a == RingValue(PA, Matrix(PA, [[a]]).entries[0][0]) == RingValue(PA, [0, 1, 0])


def test_hash_is_the_hash_of_the_compared_fields():
    mat, bm, v = _values()
    assert hash(mat) == hash((ZZ, mat.entries))
    assert hash(bm) == hash((ZZ, 2, 2, bm.blocks))
    assert hash(v) == hash((ZZ, 3))
    p = RingValue(PA, (1, 0, 2))
    assert hash(p) == hash((PA, (1, 0, 2)))
    assert len({mat, parse_matrix(TEXT), bm, block_view(mat, 2), v, RingValue(ZZ, 3)}) == 3
    assert hash(ZZ) == hash(IntegerRing()) == hash(())
    assert hash(F7) == hash(PrimeField(7)) == hash((7,))
    assert hash(PA) == hash(PolynomialRing("a")) == hash(("a",))
    assert hash(PolynomialRing()) == hash(("z",))
    assert hash(COND) == hash((2, frozenset([EDGE])))
    assert hash(cond_f(3)) == hash(Condition(3, cond_f(3).edges)) == hash((3, cond_f(3).edges))
    for rec in _records():
        assert hash(rec) == hash(tuple(rec))


def test_values_differ_from_tuples_other_classes_and_other_rings():
    mat, bm, v = _values()
    assert mat != (ZZ, mat.entries) and mat != mat.entries
    assert bm != (ZZ, 2, 2, bm.blocks) and bm != bm.blocks
    assert v != (ZZ, 3) and v != 3
    one_by_one = Matrix(ZZ, [[3]])
    assert one_by_one != RingValue(ZZ, 3) and RingValue(ZZ, 3) != one_by_one
    assert block_view(one_by_one, 1) != one_by_one and one_by_one != block_view(one_by_one, 1)
    assert mat != Matrix(F7, ROWS)
    assert Matrix(F7, [[1, 2]]) != Matrix(PrimeField(11), [[1, 2]])
    assert bm != BlockMatrix(F7, 2, 2, _blocks(F7))
    assert v != RingValue(F7, 3) and RingValue(F7, 3) != RingValue(PrimeField(11), 3)
    assert RingValue(ZZ, 0) != RingValue(PA, 0)
    assert ZZ != () and F7 != (7,) and F7 != 7 and PA != ("a",) and PA != "a"
    assert ZZ != F7 and F7 != ZZ and ZZ != PA and PA != ZZ and F7 != PA
    assert F7 != PrimeField(11) and PA != PolynomialRing() and PolynomialRing() == PolynomialRing("z")
    assert COND != (2, COND.edges) and COND != COND.edges and COND != Condition(3, [EDGE])
    assert COND != Condition(2, []) and Condition(2, []) != ZZ
    # The records are named tuples: equal to the tuple of their fields.
    for rec in _records():
        assert rec == tuple(rec) and rec != tuple(rec)[:-1]


def test_exact_repr_and_str():
    mat, bm, v = _values()
    text = "Matrix(4x4 over int: [1 2 0 0; 3 4 0 5; 0 0 6 0; 0 0 0 1])"
    assert repr(mat) == str(mat) == text
    assert repr(Matrix(PA, [[RingValue(PA, (0, 1)), -1]])) == "Matrix(1x2 over poly:a: [0,1 -1])"
    assert repr(Matrix(ZZ, [])) == "Matrix(0x0 over int: [])"
    assert repr(bm) == str(bm) == "BlockMatrix(n=2, m=2, ring=int)"
    assert (repr(v), str(v)) == ("<int: 3>", "3")
    assert (repr(RingValue(F7, -1)), str(RingValue(F7, -1))) == ("<mod:7: 6>", "6")
    assert (repr(RingValue(PA, (1, 0, 2))), str(RingValue(PA, (1, 0, 2)))) == ("<poly:a: 1,0,2>", "1,0,2")
    assert (repr(RingValue(PA, 0)), str(RingValue(PA, 0))) == ("<poly:a: 0>", "0")
    assert (repr(ZZ), repr(F7), repr(PA)) == ("IntegerRing()", "PrimeField(p=7)", "PolynomialRing(variable='a')")
    assert repr(PolynomialRing()) == "PolynomialRing(variable='z')"
    assert repr(COND) == str(COND) == "Condition(n=2, edges=[((1, 1), (2, 2))])"
    assert repr(_records()[2]) == ("BourbakiChecks(first_column_collapse=False, lower_det_monic=True, "
                                   "det_product_identity=False, induction_step=True, identity_at_zero=False)")


def test_deleting_a_field_raises():
    for obj, fields in _with_fields(*_values()) + tuple((rec, rec._fields) for rec in _records()):
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(obj, name)
            getattr(obj, name)
        hash(obj)


def test_values_and_records_survive_pickle_and_deepcopy():
    mat, bm, v = _values()
    shifted(mat)  # a cached derivation travels with its matrix
    for obj, _ in _with_fields(mat, bm, v):
        for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert type(twin) is type(obj) and twin == obj and hash(twin) == hash(obj)
            assert vars(twin) == vars(obj)
            with pytest.raises(AttributeError):
                twin.extra = None
    for rec in _records():
        for twin in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec)):
            assert type(twin) is type(rec) and twin == rec and hash(twin) == hash(rec)


def test_ring_values_are_canonical_whatever_payload_built_them():
    for raw in (9, 2 + 7 * 2**70, -5, True + 1):
        assert RingValue(F7, raw) == RingValue(F7, 2) and hash(RingValue(F7, raw)) == hash(RingValue(F7, 2))
        assert RingValue(F7, raw).payload == 2
    assert RingValue(PA, (1, 0, 0)) == RingValue(PA, [1]) == RingValue(PA, 1) == RingValue(PA, (1,))
    for ring in (ZZ, F7, PolynomialRing("x")):
        assert all(RingValue(ring, k).payload == ring.int_payload(k) for k in range(-9, 13))
    assert type(RingValue(ZZ, True).payload) is int and RingValue(PA, (False, True)).payload == (0, 1)
    assert format_matrix(Matrix(ZZ, [[True, False]])) == "1 2 int\n1 0\n"
    for ring, raw in ((ZZ, 1.5), (F7, "3"), (PA, (1, 0.5))):
        with pytest.raises(TypeError):
            RingValue(ring, raw)
        with pytest.raises(TypeError):
            Matrix(ring, [[raw]])


# --- the checked edge: Matrix(ring, rows) canonicalises every entry ----------

BIG = 2**70
EDGE_RINGS = [ZZ, F7, PrimeField(2**61 - 1), PA]


@st.composite
def entry_forms(draw, ring):
    """A canonical payload of ``ring`` and a form of it that ``Matrix``
    takes: an int that is negative, at least p or at least 2^64, a bool,
    an untrimmed coefficient tuple or list, or a ``RingValue``."""
    if isinstance(ring, PolynomialRing):
        coeffs = draw(st.lists(st.integers(-5, 5), max_size=3))
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        canonical = tuple(coeffs)
        raw = draw(st.sampled_from([canonical + (0, 0), coeffs + [0], canonical]))
        if len(canonical) <= 1 and draw(st.booleans()):
            raw = canonical[0] if canonical else 0
    elif isinstance(ring, PrimeField):
        canonical = draw(st.integers(0, ring.p - 1))
        raw = canonical + ring.p * draw(st.integers(-BIG, BIG))
    else:
        canonical = draw(st.integers(-BIG, BIG) | st.sampled_from([0, 1]))
        raw = bool(canonical) if canonical in (0, 1) and draw(st.booleans()) else canonical
    if draw(st.booleans()):
        raw = RingValue(ring, raw)
    return canonical, raw


def plain_ints(mat):
    for row in mat.entries:
        for e in row:
            yield from (e if isinstance(e, tuple) else (e,))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_matrix_built_from_any_form_of_its_entries_is_the_canonical_one(data):
    ring = data.draw(st.sampled_from(EDGE_RINGS))
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    grid = [[data.draw(entry_forms(ring)) for _ in range(cols)] for _ in range(rows)]
    canonical = tuple(tuple(c for c, _ in row) for row in grid)
    mat = Matrix(ring, [[raw for _, raw in row] for row in grid])
    assert mat.entries == canonical and (mat.rows, mat.cols) == (rows, cols)
    assert mat == Matrix(ring, canonical) and hash(mat) == hash(Matrix(ring, canonical))
    assert all(type(x) is int for x in plain_ints(mat))
    assert parse_matrix(format_matrix(mat)) == mat


# --- the trusted paths: every matrix built inside is what the checked ---------
# --- constructor makes of its entries ------------------------------------------

def assert_trusted(mat):
    assert type(mat.entries) is tuple and all(type(row) is tuple for row in mat.entries)
    assert (mat.rows, mat.cols) == (len(mat.entries), len(mat.entries[0]) if mat.entries else 0)
    assert Matrix(mat.ring, mat.entries).entries == mat.entries
    assert all(type(x) is int for x in plain_ints(mat))


# One condition per generator kind, with a size and block size that pick it.
GENERATOR_CASES = {
    "commutative": ("complete", 2, 2),
    "f-slots": ("f", 2, 4),
    "side-slots:1": ("side:1", 2, 4),
    "down-slots:2": ("down:2", 2, 4),
    "kappa-poly": ("kappa", 3, 2),
    "g5-overlap": ("g5", 2, 4),
    "h1-falsify": ("h1", 2, 2),
    "h2-falsify": ("h2", 2, 2),
    "h3-falsify": ("h3", 2, 2),
    "h4-falsify": ("h4", 2, 2),
    "generic-scalar": ("tcol:1", 3, 2),
}
TRUSTED_RINGS = [ZZ, F7, PrimeField(2**61 - 1), PA]


@pytest.mark.parametrize("ring", TRUSTED_RINGS, ids=lambda r: r.label)
def test_every_generator_builds_canonical_blocks(ring):
    for kind, (family, n, m) in GENERATOR_CASES.items():
        g = family_condition(family, n)
        assert pick_generator(g, m)[0] == kind
        bm = gen_satisfying(g, m, ring, seed=5)
        for row in bm.blocks:
            for blk in row:
                assert_trusted(blk)
    rng = random.Random(3)
    x = _dense(ring, 3, _draws(ring, rng, 9))
    for mat in (x, _scalar_block(ring, 3, *_draws(ring, rng, 1)), _slot(ring, 4, _draws(ring, rng, 5), 1), _poly_in(x, [2, -1, 3, 1], [
            x.entries, (x * x).entries, (x * x * x).entries])):
        assert_trusted(mat)


@pytest.mark.parametrize("ring", TRUSTED_RINGS, ids=lambda r: r.label)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_kernel_builds_canonical_matrices(ring, n):
    bm = gen_satisfying(family_condition("f", n), 2 * n, ring, seed=n) if n > 1 else BlockMatrix(
        ring, 2, 1, [[Matrix(ring, [[3, -1], [2, 5]])]])
    x, y = bm.block(n - 1, 0), bm.block(0, n - 1)
    flat = bm.flatten()
    outputs = [nc_row_det(bm), flat, x * y, x + y, x - y, -x, x.scale(RingValue(ring, -2))]
    outputs += [blk for row in block_view(flat, 2).blocks for blk in row]
    if n > 1:
        outputs += [Matrix._of(ring, rows) for rows in _det_and_cofactors(ring, bm.m, _flat_rows(bm))[1]]
        outputs += [nc_cofactor(bm, 1, 2), nc_minor_det(bm, 2, 1)]
    for mat in outputs:
        assert_trusted(mat)


def test_the_trace_and_the_witnesses_box_no_value(monkeypatch):
    # A value is boxed only at the API edge: the induction trace takes its
    # determinants as payloads, and the witnesses hold the variable as one.
    sample = gen_satisfying(cond_f(3), 6, ZZ, seed=23)
    boxed = []
    real = RingValue.__init__
    monkeypatch.setattr(RingValue, "__init__", lambda v, ring, payload: boxed.append(payload) or real(v, ring, payload))
    assert bourbaki_trace(sample).all_pass
    for n in (2, 3, 5):
        builtin_matrix("same_row", n)
        if n >= 3:
            builtin_matrix("diff_row", n)
    assert boxed == []
    # The count sees the determinant, which boxes its result.
    det_commutative(sample.flatten())
    assert len(boxed) == 1


def test_the_trace_builds_no_matrix(monkeypatch):
    # The trace runs on the flat rows of zI + M and returns only its
    # checks: it builds no Matrix, no BlockMatrix and no block view.
    import blockdet.matrix

    samples = [gen_satisfying(family_condition("f", n), 2 * n, ZZ, seed=seed) for n, seed in ((2, 4), (3, 8))]
    samples.append(builtin_matrix("m1"))
    built = []
    for kind in (Matrix, BlockMatrix):
        real = kind._of.__func__
        monkeypatch.setattr(kind, "_of", classmethod(lambda cls, *args, real=real: built.append(cls) or real(cls, *args)))
    real_view = blockdet.matrix.block_view
    monkeypatch.setattr(blockdet.matrix, "block_view", lambda *args: built.append(args) or real_view(*args))
    for bm in samples:
        bourbaki_trace(bm)
    assert built == []
    # The count sees a block view: the call, its four blocks and itself.
    blockdet.matrix.block_view(Matrix(ZZ, [[1, 2], [3, 4]]), 1)
    assert len(built) == 1 + 4 + 1
