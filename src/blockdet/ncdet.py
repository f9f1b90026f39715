"""Row-ordered noncommutative determinants of block matrices.

The determinant of a block matrix over the (noncommutative) ring of m x m
blocks is the signed permutation sum with each product's factors ordered by
row index.  It is evaluated by a dynamic program over column subsets that
takes n 2^(n-1) - n block products instead of the sum's (n-1) n!; that size
is optimal for the noncommutative determinant (Nisan, STOC 1991).  The
program's last level holds every first-row minor, so the determinant, the
first-column cofactor identity and a checkable trace of the
polynomial-extension induction each take one run of it.

Each entry of the program is a sum of block products: the blocks of the
row side by side times the entries they multiply stacked in one column.
One predicate, ``_packs``, picks how it is computed from the ring and n m:

- Over ``mod:p`` with n m (p - 1) p < 2^64, each entry is held as m Python
  ints, one per payload row, with each entry of the row in its own 64-bit
  slot.  A row is packed as ``int.from_bytes(array("Q", row).tobytes(),
  sys.byteorder)`` and unpacked by ``to_bytes`` in the same byte order,
  cast to ``"Q"``, so the slots come back in order on either endianness.
  Row i of an entry is ``sum(map(mul, ...))`` of row i of the left blocks
  against the packed rows stacked, one C-level multiply-add per term; the
  sign of a term goes on its packed factor as P - E, P the all-p row, so
  every slot stays in [0, p].  A slot then sums at most n m terms of at
  most (p - 1) p, so the bound keeps it from carrying into its neighbour.
  Each entry's slots are reduced mod p once and repacked, and only the
  level the program returns is unpacked.
- Over ``int``, ``poly:`` and larger primes, each entry is one
  ``matrix._product_rows`` call on payload row tuples, reduced once.

Either way the program builds a ``Matrix``, through the trusted
``Matrix._of``, only for what it returns.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import chain, combinations
from operator import mul

from .matrix import BlockMatrix, Matrix, _product_rows, det_commutative
from .ring import IntegerRing, PolynomialRing, PrimeField, Ring, poly_is_monic

ROW_DET_CAP = 8
# Largest block size m a campaign draws: its cost grows as m^3.
BLOCK_SIZE_CAP = 64


def check_row_det_size(n: int) -> None:
    """Raise ``ValueError`` when n block rows exceed ``ROW_DET_CAP``."""
    if n > ROW_DET_CAP:
        raise ValueError(f"size n={n} exceeds the row-determinant cap {ROW_DET_CAP}")


def _row_times(ring: Ring, row, column) -> tuple:
    """Rows of the sum of row[t] * column[t], as one product: the blocks of
    ``row`` side by side times those of ``column`` stacked.  Both hold
    blocks as payload row tuples."""
    left = [list(chain.from_iterable(rows)) for rows in zip(*row)]
    return tuple(_product_rows(ring, left, list(chain.from_iterable(column))))


def _negated(ring: Ring, rows) -> tuple:
    pneg = ring.pneg
    return tuple(tuple(map(pneg, row)) for row in rows)


def _packs(ring: Ring, n: int, m: int) -> bool:
    """Whether the subset DP runs on packed rows: over ``mod:p``, when a
    slot's largest sum, n m terms of at most (p - 1) p, fits in 64 bits."""
    return isinstance(ring, PrimeField) and n * m * (ring.p - 1) * ring.p < 2**64


def _pack(row) -> int:
    # One 64-bit slot per entry.  Packing and unpacking both use the native
    # byte order, so the slots come back in row order on either endianness.
    return int.from_bytes(array("Q", row).tobytes(), sys.byteorder)


def _unpack(packed: int, m: int) -> tuple:
    return tuple(memoryview(packed.to_bytes(8 * m, sys.byteorder)).cast("Q"))


def _packed_entry(p: int, left, column) -> list[int]:
    """Packed rows of one DP entry mod p: row i is the sum of left[i][t]
    times column[t], with ``left`` the payload rows of a block row's blocks
    side by side and ``column`` the packed rows of the factors stacked.
    Each term is one multiply-add on whole rows, and the entry's slots are
    reduced and repacked in one pass."""
    width = 8 * len(left)
    order = sys.byteorder
    sums = b"".join([sum(map(mul, row, column)).to_bytes(width, order) for row in left])
    reduced = array("Q", [v % p for v in memoryview(sums).cast("Q")]).tobytes()
    return [int.from_bytes(reduced[i : i + width], order) for i in range(0, len(reduced), width)]


def _subset_dp_packed(bm: BlockMatrix, top: int) -> dict[int, tuple]:
    # ``_subset_dp`` with each E[S] as m packed rows; a sign goes on the
    # factor E[S - {c}] as P - E, P the packed all-p row.
    n, m, p = bm.n, bm.m, bm.ring.p
    blocks = bm.blocks
    full = _pack([p] * m)
    level = {1 << c: [_pack(row) for row in blk.entries] for c, blk in enumerate(blocks[n - 1])}
    for r in range(n - 2, top - 1, -1):
        signed = {mask: (rows, [full - x for x in rows]) for mask, rows in level.items()}
        brows = [blk.entries for blk in blocks[r]]
        nxt = {}
        for cols in combinations(range(n), n - r):
            mask = sum(1 << c for c in cols)
            nxt[mask] = _packed_entry(
                p,
                [list(chain.from_iterable(rows)) for rows in zip(*[brows[c] for c in cols])],
                list(chain.from_iterable(signed[mask ^ (1 << c)][idx % 2] for idx, c in enumerate(cols))),
            )
        level = nxt
    return {mask: tuple(_unpack(x, m) for x in rows) for mask, rows in level.items()}


def _subset_dp(bm: BlockMatrix, top: int) -> dict[int, tuple]:
    """E[S] by column mask, as payload rows, for every set S of n - top
    columns: the row-determinant of block rows top..n-1 (0-based)
    restricted to the columns in S.

    It starts from the last row, E[{c}] = B[n-1][c], and grows one row r
    at a time: E[S] = sum over c in S of (-1)^#{c' in S : c' < c}
    B[r][c] E[S - {c}], keeping the factors in row order.  On payload rows
    each B[r][c] is negated once, and each E[S] is one product; over
    ``mod:p`` within the slot bound, ``_subset_dp_packed`` runs instead.
    """
    n = bm.n
    check_row_det_size(n)
    ring = bm.ring
    if _packs(ring, n, bm.m):
        return _subset_dp_packed(bm, top)
    blocks = bm.blocks
    level = {1 << c: blk.entries for c, blk in enumerate(blocks[n - 1])}
    for r in range(n - 2, top - 1, -1):
        signed = [(blk.entries, _negated(ring, blk.entries)) for blk in blocks[r]]
        nxt = {}
        for cols in combinations(range(n), n - r):
            mask = sum(1 << c for c in cols)
            nxt[mask] = _row_times(
                ring,
                [signed[c][idx % 2] for idx, c in enumerate(cols)],
                [level[mask ^ (1 << c)] for c in cols],
            )
        level = nxt
    return level


def _cofactor_rows(bm: BlockMatrix) -> list[tuple]:
    # The first-row cofactors as payload rows: (-1)^j E[all - {j}] over
    # block rows 1..n-1.
    minors = _subset_dp(bm, 1)
    full = (1 << bm.n) - 1
    return [
        minors[full ^ (1 << c)] if c % 2 == 0 else _negated(bm.ring, minors[full ^ (1 << c)])
        for c in range(bm.n)
    ]


def nc_first_row_cofactors(bm: BlockMatrix) -> list[Matrix]:
    """All n first-row cofactors, (-1)^(1+j) times the (1, j) minor, from
    one dynamic program over column subsets.

    The (1, j) minor is the program's E[all - {j}] over block rows 2..n.
    Stopping below row 1 takes n 2^(n-1) - 2n block products.
    """
    if bm.n < 2:
        raise ValueError("cofactors need n >= 2")
    return [Matrix._of(bm.ring, rows) for rows in _cofactor_rows(bm)]


def nc_row_det(bm: BlockMatrix) -> Matrix:
    """Signed permutation sum with factors ordered by block row.

    Evaluated as the subset dynamic program run up to the first row, whose
    last step is the first-row expansion: n 2^(n-1) - n block products, not
    the (n-1) n! of the sum written out.
    """
    n = bm.n
    if n < 1:
        raise ValueError("row-determinant needs n >= 1")
    return Matrix._of(bm.ring, _subset_dp(bm, 0)[(1 << n) - 1])


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


def _column_collapses(bm: BlockMatrix, cofs) -> bool:
    # Every block row below the first times the cofactor column is zero.
    return not any(
        any(map(any, _row_times(bm.ring, [blk.entries for blk in row], cofs)))
        for row in bm.blocks[1:]
    )


def cofactor_column_check(bm: BlockMatrix) -> bool:
    """Check the first-column cofactor identity, blockwise and exactly.

    Multiplying the matrix by the column of first-row cofactors must give
    (Det, 0, ..., 0)^t.  The first entry is Det for every input (it is the
    first-row expansion ``nc_row_det`` evaluates), so only the vanishing of
    the others is checked.  Guaranteed when every pair of blocks outside
    row 1 and in different columns commutes; reported honestly for any
    input.
    """
    if bm.n == 1:
        return True
    return _column_collapses(bm, _cofactor_rows(bm))


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

    ``shifted`` is the input with z added to each diagonal entry of each
    diagonal block; ``tail`` is it without its first block row and column.
    The proof multiplies ``shifted`` by E, the identity with its first block
    column replaced by the first-row cofactors C0..C(n-1), to collapse that
    column to (Det, 0, ..., 0)^t.  E is block lower-triangular with C0 and
    then identity blocks down its diagonal, so det E = det C0: E is not built.
    """

    shifted: BlockMatrix
    tail: BlockMatrix
    shifted_det: Matrix
    checks: BourbakiChecks


def bourbaki_trace(bm: BlockMatrix) -> BourbakiTrace:
    """Build and verify the objects of the inductive determinant proof.

    Requires an integer base ring (the construction works over its
    polynomial extension).  With blocks satisfying the row-one-free
    commutation family all checks pass; for other inputs the failures are
    reported in the checks record rather than raised.  It takes four
    determinants over Z[z]: of ``tail``, ``shifted``, ``shifted_det`` and C0.
    """
    if not isinstance(bm.ring, IntegerRing):
        raise ValueError("trace construction requires the integer base ring")
    n, m = bm.n, bm.m
    if n < 2:
        raise ValueError("trace construction needs n >= 2")
    rz = PolynomialRing("z")

    def lift(block: Matrix, add_z_diag: bool) -> Matrix:
        return Matrix._of(rz, tuple(
            tuple((x, 1) if add_z_diag and i == j else rz.int_payload(x) for j, x in enumerate(row))
            for i, row in enumerate(block.entries)
        ))

    shifted = BlockMatrix(
        rz, m, n,
        [[lift(bm.blocks[i][j], i == j) for j in range(n)] for i in range(n)],
    )

    cof_rows = _cofactor_rows(shifted)
    shifted_det = Matrix._of(rz, _row_times(rz, [blk.entries for blk in shifted.blocks[0]], cof_rows))
    first_column_collapse = _column_collapses(shifted, cof_rows)

    tail = BlockMatrix(
        rz, m, n - 1,
        [[shifted.blocks[i][j] for j in range(1, n)] for i in range(1, n)],
    )

    det_tail = det_commutative(tail.flatten())
    lower_det_monic = poly_is_monic(det_tail) and len(det_tail.payload) - 1 == m * (n - 1)

    det_shifted_flat = det_commutative(shifted.flatten())
    det_of_block_det = det_commutative(shifted_det)
    det_c0 = det_commutative(Matrix._of(rz, cof_rows[0]))
    det_product_identity = det_shifted_flat * det_c0 == det_of_block_det * det_tail
    induction_step = det_tail == det_c0

    # Setting z = 0 is a ring map that sends ``shifted`` back to bm, so these
    # constant terms are det(Det M) and det M.
    lhs, rhs = (p[0] if p else 0 for p in (det_of_block_det.payload, det_shifted_flat.payload))
    identity_at_zero = lhs == rhs

    return BourbakiTrace(
        shifted=shifted,
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
