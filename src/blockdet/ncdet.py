"""Row-ordered noncommutative determinants of block matrices.

The determinant of a block matrix over the (noncommutative) ring of m x m
blocks is the signed permutation sum with each product's factors ordered by
row index.  It is evaluated by a dynamic program over column subsets that
takes n 2^(n-1) - n block products instead of the sum's (n-1) n!; that size
is optimal for the noncommutative determinant (Nisan, STOC 1991).  The
program's last level holds every first-row minor, so the determinant, the
first-column cofactor identity and a checkable trace of the
polynomial-extension induction each take one run of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .matrix import BlockMatrix, Matrix, det_commutative
from .ring import IntegerRing, PolynomialRing, poly_is_monic

ROW_DET_CAP = 8
# Largest block size m a campaign draws: its cost grows as m^3.
BLOCK_SIZE_CAP = 64


def nc_first_row_cofactors(bm: BlockMatrix) -> list[Matrix]:
    """All n first-row cofactors, (-1)^(1+j) times the (1, j) minor, from
    one dynamic program over column subsets.

    E[S], for a set S of k columns, is the row-determinant of the last k
    block rows restricted to the columns in S.  It starts from the last
    row, E[{c}] = B[n][c], and grows one row r at a time:
    E[S] = sum over c in S of (-1)^#{c' in S : c' < c} B[r][c] E[S - {c}],
    keeping the factors in row order.  The (1, j) minor is E[all - {j}].
    Stopping below row 1 takes n 2^(n-1) - 2n block products.
    """
    n = bm.n
    if n < 2:
        raise ValueError("cofactors need n >= 2")
    if n > ROW_DET_CAP:
        raise ValueError(f"row-determinant capped at n={ROW_DET_CAP}")
    blocks = bm.blocks
    level = {1 << c: blk for c, blk in enumerate(blocks[n - 1])}
    for r in range(n - 2, 0, -1):
        row = blocks[r]
        nxt = {}
        for cols in combinations(range(n), n - r):
            mask = sum(1 << c for c in cols)
            acc = row[cols[0]] * level[mask ^ (1 << cols[0])]
            for idx in range(1, len(cols)):
                c = cols[idx]
                term = row[c] * level[mask ^ (1 << c)]
                acc = acc - term if idx % 2 else acc + term
            nxt[mask] = acc
        level = nxt
    full = (1 << n) - 1
    return [
        level[full ^ (1 << c)] if c % 2 == 0 else -level[full ^ (1 << c)]
        for c in range(n)
    ]


def _row_times(row, cofs) -> Matrix:
    acc = row[0] * cofs[0]
    for blk, cof in zip(row[1:], cofs[1:]):
        acc = acc + blk * cof
    return acc


def nc_row_det(bm: BlockMatrix) -> Matrix:
    """Signed permutation sum with factors ordered by block row.

    Evaluated as the first-row expansion over the cofactors of
    ``nc_first_row_cofactors``: n 2^(n-1) - n block products, not the
    (n-1) n! of the sum written out.
    """
    n = bm.n
    if n < 1:
        raise ValueError("row-determinant needs n >= 1")
    if n == 1:
        return bm.blocks[0][0]
    return _row_times(bm.blocks[0], nc_first_row_cofactors(bm))


def nc_minor_det(bm: BlockMatrix, i: int, j: int) -> Matrix:
    """Row-determinant after removing block row i and block column j (1-based)."""
    n = bm.n
    if n < 2:
        raise ValueError("minors need n >= 2")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"minor index ({i},{j}) out of range for n={n}")
    rows = [
        [bm.blocks[r][c] for c in range(n) if c != j - 1]
        for r in range(n)
        if r != i - 1
    ]
    return nc_row_det(BlockMatrix(bm.ring, bm.m, n - 1, rows))


def nc_cofactor(bm: BlockMatrix, i: int, j: int) -> Matrix:
    """Signed minor: (-1)^(i+j) times the (i, j) minor determinant."""
    minor = nc_minor_det(bm, i, j)
    return minor if (i + j) % 2 == 0 else -minor


def cofactor_column_check(bm: BlockMatrix) -> bool:
    """Check the first-column cofactor identity, blockwise and exactly.

    Multiplying the matrix by the column of first-row cofactors must give
    (Det, 0, ..., 0)^t.  The first entry is Det for every input (it is the
    first-row expansion ``nc_row_det`` evaluates), so only the vanishing of
    the others is checked.  Guaranteed when every pair of blocks outside
    row 1 and in different columns commutes; reported honestly for any
    input.
    """
    n = bm.n
    if n == 1:
        return True
    cofs = nc_first_row_cofactors(bm)
    zero = Matrix.zeros(bm.ring, bm.m, bm.m)
    return all(_row_times(row, cofs) == zero for row in bm.blocks[1:])


@dataclass(frozen=True)
class BourbakiChecks:
    """Outcomes of the polynomial-extension induction checks."""

    first_column_collapse: bool
    lower_det_monic: bool
    det_product_identity: bool
    induction_step: bool
    identity_at_zero: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.first_column_collapse
            and self.lower_det_monic
            and self.det_product_identity
            and self.induction_step
            and self.identity_at_zero
        )


@dataclass(frozen=True)
class BourbakiTrace:
    """Intermediate objects of the inductive determinant argument.

    ``shifted`` is the input with the polynomial variable added to each
    diagonal entry of each diagonal block; ``eliminator`` is the identity
    with its first block column replaced by the first-row cofactors of the
    shifted matrix, so the first column of shifted times eliminator must
    collapse to (Det, 0, ..., 0)^t; ``tail`` is the shifted matrix without
    its first block row and column.
    """

    shifted: BlockMatrix
    eliminator: BlockMatrix
    tail: BlockMatrix
    shifted_det: Matrix
    checks: BourbakiChecks


def bourbaki_trace(bm: BlockMatrix) -> BourbakiTrace:
    """Build and verify the objects of the inductive determinant proof.

    Requires an integer base ring (the construction works over its
    polynomial extension).  With blocks satisfying the row-one-free
    commutation family all checks pass; for other inputs the failures are
    reported in the checks record rather than raised.
    """
    if not isinstance(bm.ring, IntegerRing):
        raise ValueError("trace construction requires the integer base ring")
    n, m = bm.n, bm.m
    if n < 2:
        raise ValueError("trace construction needs n >= 2")
    rz = PolynomialRing("z")

    def lift(block: Matrix, add_z_diag: bool) -> Matrix:
        return Matrix(rz, [
            [rz.canonical([x, 1] if add_z_diag and i == j else [x]) for j, x in enumerate(row)]
            for i, row in enumerate(block.entries)
        ])

    shifted = BlockMatrix(
        rz, m, n,
        [[lift(bm.blocks[i][j], i == j) for j in range(n)] for i in range(n)],
    )

    cofs = nc_first_row_cofactors(shifted)
    ident = Matrix.identity(rz, m)
    zero = Matrix.zeros(rz, m, m)
    eliminator = BlockMatrix(
        rz, m, n,
        [
            [cofs[i] if j == 0 else (ident if i == j else zero) for j in range(n)]
            for i in range(n)
        ],
    )
    shifted_det = _row_times(shifted.blocks[0], cofs)
    first_column_collapse = cofactor_column_check(shifted)

    tail = BlockMatrix(
        rz, m, n - 1,
        [[shifted.blocks[i][j] for j in range(1, n)] for i in range(1, n)],
    )

    det_tail = det_commutative(tail.flatten())
    lower_det_monic = poly_is_monic(det_tail) and len(det_tail.payload) - 1 == m * (n - 1)

    det_shifted_flat = det_commutative(shifted.flatten())
    det_eliminator = det_commutative(eliminator.flatten())
    det_of_block_det = det_commutative(shifted_det)
    det_product_identity = det_shifted_flat * det_eliminator == det_of_block_det * det_tail
    induction_step = det_tail == det_commutative(cofs[0]) and det_tail == det_eliminator

    identity_at_zero = det_commutative(nc_row_det(bm)) == det_commutative(bm.flatten())

    return BourbakiTrace(
        shifted=shifted,
        eliminator=eliminator,
        tail=tail,
        shifted_det=shifted_det,
        checks=BourbakiChecks(
            first_column_collapse=first_column_collapse,
            lower_det_monic=lower_det_monic,
            det_product_identity=det_product_identity,
            induction_step=induction_step,
            identity_at_zero=identity_at_zero,
        ),
    )
