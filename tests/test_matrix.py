import random

import pytest

from blockdet.matrix import (
    BlockMatrix,
    Matrix,
    MatrixFormatError,
    block_view,
    cofactor_matrix,
    commutes,
    det_commutative,
    det_expansion_oracle,
    format_block_matrix,
    format_matrix,
    parse_block_matrix,
    parse_matrix,
    signed_permutations,
)
from blockdet.ring import PolynomialRing, PrimeField, ZZ

F7 = PrimeField(7)
F10007 = PrimeField(10007)
PZ = PolynomialRing("z")
PA = PolynomialRing("a")

ALL_RINGS = [ZZ, F10007, PZ]


def rand_matrix(ring, rows, cols, rng):
    def entry():
        if isinstance(ring, PolynomialRing):
            return ring.value(tuple(rng.randrange(-3, 4) for _ in range(2)))
        if isinstance(ring, PrimeField):
            return ring.from_int(rng.randrange(ring.p))
        return ring.from_int(rng.randrange(-5, 6))

    return Matrix(ring, rows, cols, [entry() for _ in range(rows * cols)])


def test_matmul_example():
    x = Matrix.from_rows(ZZ, [[1, 2], [3, 4]])
    y = Matrix.from_rows(ZZ, [[5, 6], [7, 8]])
    assert x * y == Matrix.from_rows(ZZ, [[19, 22], [43, 50]])


def test_matmul_identity():
    rng = random.Random(1)
    x = rand_matrix(ZZ, 3, 3, rng)
    assert x * Matrix.identity(ZZ, 3) == x
    assert Matrix.identity(ZZ, 3) * x == x


def test_matmul_mod_example():
    x = Matrix.from_rows(F7, [[1, 1], [0, 1]])
    y = Matrix.from_rows(F7, [[1, 0], [1, 1]])
    assert x * y == Matrix.from_rows(F7, [[2, 1], [1, 1]])


def test_matmul_shape_errors():
    x = Matrix.from_rows(ZZ, [[1, 2]])
    with pytest.raises(ValueError):
        x * x


def test_det_small_examples():
    assert det_commutative(Matrix.from_rows(ZZ, [[1, 2], [3, 4]])) == ZZ.from_int(-2)
    for k in (1, 2, 3, 4):
        assert det_commutative(Matrix.identity(ZZ, k)) == ZZ.one
    assert det_expansion_oracle(Matrix.from_rows(ZZ, [[0]])) == ZZ.zero


def test_det_poly_expansion_example():
    a = PA.gen
    m = Matrix.from_rows(PA, [[a, PA.one], [PA.one, PA.zero]])
    assert det_expansion_oracle(m) == -PA.one
    assert det_commutative(m) == -PA.one


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det_commutative(Matrix.from_rows(ZZ, [[1, 2]]))
    with pytest.raises(ValueError):
        det_expansion_oracle(Matrix.from_rows(ZZ, [[1, 2]]))


def test_signed_permutations():
    assert list(signed_permutations(0)) == [((), 1)]
    assert list(signed_permutations(3)) == [
        ((0, 1, 2), 1), ((0, 2, 1), -1), ((1, 0, 2), -1),
        ((1, 2, 0), 1), ((2, 0, 1), 1), ((2, 1, 0), -1),
    ]
    assert len({perm for perm, _ in signed_permutations(5)}) == 120


def test_expansion_oracle_cap():
    with pytest.raises(ValueError):
        det_expansion_oracle(Matrix.identity(ZZ, 9))


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.label)
def test_det_matches_oracle(ring):
    rng = random.Random(7)
    for dim in range(1, 5):
        for _ in range(25):
            m = rand_matrix(ring, dim, dim, rng)
            assert det_commutative(m) == det_expansion_oracle(m)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.label)
def test_det_multiplicative(ring):
    rng = random.Random(8)
    for _ in range(30):
        x = rand_matrix(ring, 3, 3, rng)
        y = rand_matrix(ring, 3, 3, rng)
        assert det_commutative(x * y) == det_commutative(x) * det_commutative(y)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.label)
def test_det_transpose_invariant(ring):
    rng = random.Random(9)
    for _ in range(30):
        x = rand_matrix(ring, 4, 4, rng)
        assert det_commutative(x.transpose()) == det_commutative(x)


def test_cofactor_examples():
    assert cofactor_matrix(Matrix.from_rows(ZZ, [[1, 2], [3, 4]])) == Matrix.from_rows(
        ZZ, [[4, -3], [-2, 1]]
    )
    assert cofactor_matrix(Matrix.identity(ZZ, 3)) == Matrix.identity(ZZ, 3)
    assert cofactor_matrix(Matrix.from_rows(ZZ, [[7]])) == Matrix.identity(ZZ, 1)


def test_cofactor_identity_randomized():
    rng = random.Random(10)
    for _ in range(100):
        x = rand_matrix(F10007, 3, 3, rng)
        d = det_commutative(x)
        assert x * cofactor_matrix(x).transpose() == Matrix.identity(F10007, 3).scale(d)


def test_commutes():
    x = Matrix.from_rows(ZZ, [[1, 2], [3, 4]])
    assert commutes(x, x * x)
    assert not commutes(x, Matrix.from_rows(ZZ, [[0, 1], [0, 0]]))


def test_block_flatten_single():
    a = Matrix.from_rows(ZZ, [[1, 2], [3, 4]])
    bm = BlockMatrix(ZZ, 2, 1, [[a]])
    assert bm.flatten() == a


def test_block_view_identity():
    v = block_view(Matrix.identity(ZZ, 6), 2)
    assert v.n == 3 and v.m == 2
    for i in range(3):
        for j in range(3):
            want = Matrix.identity(ZZ, 2) if i == j else Matrix.zeros(ZZ, 2, 2)
            assert v.block(i, j) == want
    v3 = block_view(Matrix.identity(ZZ, 6), 3)
    assert v3.n == 2 and v3.m == 3


def test_block_roundtrip():
    rng = random.Random(11)
    flat = rand_matrix(ZZ, 6, 6, rng)
    for m in (1, 2, 3, 6):
        assert block_view(flat, m).flatten() == flat
    bm = block_view(flat, 2)
    assert block_view(bm.flatten(), 2) == bm


def test_block_view_errors():
    with pytest.raises(ValueError):
        block_view(Matrix.identity(ZZ, 6), 4)
    with pytest.raises(ValueError):
        block_view(Matrix.from_rows(ZZ, [[1, 2]]), 1)


def test_block_transpose_definition():
    rng = random.Random(12)
    blocks = [[rand_matrix(ZZ, 2, 2, rng) for _ in range(2)] for _ in range(2)]
    bm = BlockMatrix(ZZ, 2, 2, blocks)
    t = bm.transpose()
    for i in range(2):
        for j in range(2):
            assert t.block(i, j) == blocks[j][i].transpose()
    # flattening then transposing agrees with transposing blockwise
    assert t.flatten() == bm.flatten().transpose()


def test_matrix_format_roundtrip():
    rng = random.Random(13)
    for ring in ALL_RINGS:
        m = rand_matrix(ring, 3, 4, rng)
        assert parse_matrix(format_matrix(m)) == m


def test_block_format_roundtrip():
    rng = random.Random(14)
    blocks = [[rand_matrix(PZ, 2, 2, rng) for _ in range(2)] for _ in range(2)]
    bm = BlockMatrix(PZ, 2, 2, blocks)
    assert parse_block_matrix(format_block_matrix(bm)) == bm


def test_parse_errors_carry_line_info():
    with pytest.raises(MatrixFormatError, match="line 1"):
        parse_matrix("nonsense")
    with pytest.raises(MatrixFormatError, match="line 2"):
        parse_matrix("2 2 int\n1 2 3\n4 5 6")
    with pytest.raises(MatrixFormatError, match="column 2"):
        parse_matrix("1 2 int\n1 oops")
    with pytest.raises(MatrixFormatError):
        parse_block_matrix("2 2\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("")
