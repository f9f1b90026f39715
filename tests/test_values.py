"""The value types `Matrix`, `BlockMatrix` and `RingValue`: immutable,
equal and hashed by their contents whatever path built them, and printed
the same way."""

import pytest

from blockdet.matrix import BlockMatrix, Matrix, block_view, parse_block_matrix, parse_matrix
from blockdet.ring import ZZ, PolynomialRing, PrimeField, RingValue

F7 = PrimeField(7)
PA = PolynomialRing("a")

ROWS = [[1, 2, 0, 0], [3, 4, 0, 5], [0, 0, 6, 0], [0, 0, 0, 1]]
TEXT = "4 4 int\n1 2 0 0\n3 4 0 5\n0 0 6 0\n0 0 0 1\n"
BLOCK_TEXT = "2 2 int\n1 2 0 0\n3 4 0 5\n0 0 6 0\n0 0 0 1\n"


def _blocks(ring):
    return [
        [Matrix.from_rows(ring, [[1, 2], [3, 4]]), Matrix.from_rows(ring, [[0, 0], [0, 5]])],
        [Matrix.from_rows(ring, [[0, 0], [0, 0]]), Matrix.from_rows(ring, [[6, 0], [0, 1]])],
    ]


def _values():
    mat = Matrix.from_rows(ZZ, ROWS)
    return mat, block_view(mat, 2), mat.entry(1, 0)


def test_assigning_a_field_or_a_new_attribute_raises():
    mat, bm, v = _values()
    for obj, fields in ((mat, ("ring", "rows", "cols", "entries")), (bm, ("ring", "m", "n", "blocks")),
                        (v, ("ring", "payload"))):
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        assert not hasattr(obj, "extra")
    assert mat == Matrix.from_rows(ZZ, ROWS) and bm == block_view(mat, 2) and v == ZZ.from_int(3)


def test_values_built_by_different_paths_are_equal():
    mat, bm, v = _values()
    parsed = parse_matrix(TEXT)
    assert mat == parsed and hash(mat) == hash(parsed)
    assert (mat.rows, mat.cols) == (parsed.rows, parsed.cols) == (4, 4)
    for other in (parse_block_matrix(BLOCK_TEXT), BlockMatrix(ZZ, 2, 2, _blocks(ZZ)), block_view(parsed, 2)):
        assert bm == other and hash(bm) == hash(other)
    assert bm.flatten() == mat
    for other in (ZZ.from_int(3), ZZ.value(3), RingValue(ZZ, 3), parsed.entry(1, 0), mat.row_list(1)[0]):
        assert v == other and hash(v) == hash(other)
    assert PA.gen == Matrix.from_rows(PA, [[PA.gen]]).entry(0, 0) == PA.value((0, 1))


def test_hash_is_the_hash_of_the_compared_fields():
    mat, bm, v = _values()
    assert hash(mat) == hash((ZZ, mat.entries))
    assert hash(bm) == hash((ZZ, 2, 2, bm.blocks))
    assert hash(v) == hash((ZZ, 3))
    p = PA.value((1, 0, 2))
    assert hash(p) == hash((PA, (1, 0, 2)))
    assert len({mat, parse_matrix(TEXT), bm, block_view(mat, 2), v, ZZ.from_int(3)}) == 3


def test_values_differ_from_tuples_other_classes_and_other_rings():
    mat, bm, v = _values()
    assert mat != (ZZ, mat.entries) and mat != mat.entries
    assert bm != (ZZ, 2, 2, bm.blocks) and bm != bm.blocks
    assert v != (ZZ, 3) and v != 3
    one_by_one = Matrix.from_rows(ZZ, [[3]])
    assert one_by_one != ZZ.from_int(3) and ZZ.from_int(3) != one_by_one
    assert block_view(one_by_one, 1) != one_by_one and one_by_one != block_view(one_by_one, 1)
    assert mat != Matrix.from_rows(F7, ROWS)
    assert Matrix.from_rows(F7, [[1, 2]]) != Matrix.from_rows(PrimeField(11), [[1, 2]])
    assert bm != BlockMatrix(F7, 2, 2, _blocks(F7))
    assert v != F7.from_int(3) and F7.from_int(3) != PrimeField(11).from_int(3)
    assert ZZ.from_int(0) != PA.zero


def test_exact_repr_and_str():
    mat, bm, v = _values()
    text = "Matrix(4x4 over int: [1 2 0 0; 3 4 0 5; 0 0 6 0; 0 0 0 1])"
    assert repr(mat) == str(mat) == text
    assert repr(Matrix.from_rows(PA, [[PA.gen, -1]])) == "Matrix(1x2 over poly:a: [0,1 -1])"
    assert repr(Matrix(ZZ, [])) == "Matrix(0x0 over int: [])"
    assert repr(bm) == str(bm) == "BlockMatrix(n=2, m=2, ring=int)"
    assert (repr(v), str(v)) == ("<int: 3>", "3")
    assert (repr(F7.from_int(-1)), str(F7.from_int(-1))) == ("<mod:7: 6>", "6")
    assert (repr(PA.value((1, 0, 2))), str(PA.value((1, 0, 2)))) == ("<poly:a: 1,0,2>", "1,0,2")
    assert (repr(PA.zero), str(PA.zero)) == ("<poly:a: 0>", "0")


def test_deleting_a_field_raises():
    mat, bm, v = _values()
    for obj, fields in ((mat, ("ring", "rows", "cols", "entries")), (bm, ("ring", "m", "n", "blocks")),
                        (v, ("ring", "payload"))):
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(obj, name)
            getattr(obj, name)
        hash(obj)
