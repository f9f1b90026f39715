"""Row-ordered noncommutative determinants of block matrices.

The determinant of a block matrix over the (noncommutative) ring of m x m
blocks is the signed permutation sum with each product's factors ordered by
row index.  It is evaluated by a dynamic program over column subsets that
takes n 2^(n-1) - n block products instead of the sum's (n-1) n!; that size
is optimal for the noncommutative determinant (Nisan, STOC 1991).  One run
over all n block rows gives the determinant and, one level below it, every
first-row minor, so the determinant, the first-column cofactor identity and
a checkable trace of the polynomial-extension induction each take one run.
All three run on flat payload rows, n = len(rows) // m; the trace lifts
those of M to zI + M once and returns only its five checks.  The cofactors
are not exported: ``cofactor_column_check`` and ``bourbaki_trace`` take
them from ``_det_and_cofactors``, and ``nc_minor_det`` and
``nc_cofactor``, one run per minor, are oracles in ``tests/oracles.py``.

Each entry of the program is a sum of block products: the blocks of the
row side by side times the entries they multiply stacked in one column.
Over every ring it runs on packed rows (Kronecker substitution):

- With d the largest entry degree (0 over ``int`` and ``mod:p``) and C the
  largest |coefficient| (p - 1 over ``mod:p``, with no scan), each row of
  an entry is one Python int holding its m entries in D = n d + 1 slots
  each, V = bit_length(n! (m (d + 1))^(n-1) C^n) + 1 bits a slot.  A
  ``poly:`` entry goes in as its value at 2^V.  An entry of level k is a
  signed sum of k! products of k blocks, each entry of which has degree at
  most k d and coefficients at most (m (d + 1))^(k-1) C^k in size.  So
  for k = n - 1 and k = n, the two levels read, every coefficient fits a
  signed slot and no entry runs into the next, and all arithmetic on the
  packed ints is exact.
- Row i of an entry is one ``sum(map(mul, ...))`` of row i of the left
  blocks against the packed rows of the factors stacked, one C-level
  multiply-add per term, with a sign put on its packed factor as -E.
  Nothing is reduced inside the program: over ``mod:p`` it runs on the
  entries lifted to Z.
- The program reads the flattened rows that the block matrix keeps
  (``matrix._flat_rows``), so the flat determinant of the same sample
  reuses them; over ``poly:`` it packs them at 2^V once.  Which entries
  and factors an entry takes, and with which signs, depend only on the
  shape (n, m), so ``_dp_plan`` builds it once per shape.  Per column
  set S it holds one ``itemgetter`` over the flat columns c m + t, for c
  in S and t < m, which picks S's blocks side by side from a flat row,
  and one over the previous level's store: the m packed rows of E0, then
  of -E0, E1, -E1, ..., from which it picks those of E[S - {c}] with the
  sign (-1)^(position of c in S), for each c in S.  Each level is then a
  flat list in ``combinations`` order, and an entry is m + 1 ``itemgetter``
  calls and one ``sum(map(mul, ...))`` per row.
- Only what a caller returns is decoded, once per row, by the slot codec
  the determinant over ``poly:`` uses too (``matrix._unpacker``): the
  determinant, and for the cofactors the minors, each sign put on the
  packed rows first.  The coefficients are then reduced mod p over
  ``mod:p``, and cut into runs of D and trimmed over ``poly:``.

The program builds a ``Matrix``, through the trusted ``Matrix._of``, only
for what ``nc_row_det`` returns; the trace builds none.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations
from math import factorial
from operator import itemgetter, mul, neg
from typing import NamedTuple

from .matrix import BlockMatrix, Matrix, _det_poly, _flat_rows, _pack, _product_rows, _unpacker
from .ring import IntegerRing, PolynomialRing, PrimeField, Ring, _poly_trim

ROW_DET_CAP = 8
# Largest block size m a campaign draws: its cost grows as m^3.
BLOCK_SIZE_CAP = 64


def check_row_det_size(n: int) -> None:
    """Raise ``ValueError`` when n block rows exceed ``ROW_DET_CAP``."""
    if n > ROW_DET_CAP:
        raise ValueError(f"size n={n} exceeds the row-determinant cap {ROW_DET_CAP}")


def _dp_entry(left, column) -> list[int]:
    """Packed rows of one DP entry: row i is the sum of left[i][t] times
    column[t], ``left`` the rows of a block row's blocks side by side and
    ``column`` the packed rows of the signed factors stacked.  Each term is
    one C-level multiply-add on whole rows."""
    return [sum(map(mul, row, column)) for row in left]


@lru_cache(maxsize=8)
def _dp_plan(n: int, m: int) -> tuple:
    """The index plan of the subset DP over n columns of m x m blocks, for
    every block matrix of that shape.

    It holds, for each set size 2..n, one pair ``(cols, keys)`` per column
    set S, in ``combinations`` order.  ``cols`` is ``itemgetter`` over the
    flat columns c m + t, for c in S and t < m in that order: it picks S's
    blocks side by side from a flat row.  ``keys`` picks from the previous
    level's signed store, which holds the m packed rows of E0, then those
    of -E0, E1, -E1, ...: for each c in S, the rows K m .. K m + m - 1 of
    K = 2 i + (position of c in S) mod 2, i the index of S - {c} in that
    level.

    The gathers of a plan hold 2 m sum_s s C(n, s) <= 2032 m indices,
    about 2 MB at n = 8 and m = 64, the campaigns' largest block.  Block
    files have no cap on m, so the cache keeps the 8 plans used last.
    """
    # Index lists sliced from one list, so that the gathers share its ints.
    flat = list(range(n * m))
    block_cols = [flat[c * m : (c + 1) * m] for c in range(n)]
    index = {(c,): c for c in range(n)}
    levels = []
    for size in range(2, n + 1):
        sets = list(combinations(range(n), size))
        keys = [[2 * index[cols[:at] + cols[at + 1 :]] + at % 2 for at in range(size)] for cols in sets]
        store = list(range(2 * len(index) * m))
        key_rows = [store[key * m : key * m + m] for key in range(2 * len(index))]
        levels.append(tuple(
            (itemgetter(*chain.from_iterable(map(block_cols.__getitem__, cols))),
             itemgetter(*chain.from_iterable(map(key_rows.__getitem__, key))))
            for cols, key in zip(sets, keys)
        ))
        index = {cols: i for i, cols in enumerate(sets)}
    return tuple(levels)


def _subset_dp(ring: Ring, m: int, rows) -> tuple:
    """One run of the subset DP over all n = len(rows) // m block rows of
    the flat payload rows ``rows``: ``(det, minors, decode)``, the packed
    rows of the row-determinant E[all], those of the level below it, the n
    first-row minors E[all - {j}] in ``combinations`` order (j = n - 1
    first), and the decoder of one packed row.

    It starts from the last row, E[{c}] = B[n-1][c], and grows one row r
    at a time: E[S] = sum over c in S of (-1)^#{c' in S : c' < c}
    B[r][c] E[S - {c}], keeping the factors in row order, on the packed
    rows and the plan ``_dp_plan(n, m)`` that the module docstring describes.
    """
    n = len(rows) // m
    check_row_det_size(n)
    poly = isinstance(ring, PolynomialRing)
    p = ring.p if isinstance(ring, PrimeField) else 0
    if p:
        d, c = 0, p - 1
    else:
        payloads = list(chain.from_iterable(rows))
        d, coeffs = 0, payloads
        if poly:
            d = max(max(map(len, payloads)) - 1, 0)
            coeffs = chain.from_iterable(payloads)
        c = max(map(abs, coeffs), default=0)
    v = (factorial(n) * (m * (d + 1)) ** (n - 1) * c**n).bit_length() + 1
    slots = n * d + 1
    width = n * m
    if poly:
        values = _pack(payloads, v, d + 1)
        rows = [values[i : i + width] for i in range(0, n * m * width, width)]
    # E[{c}] is B[n-1][c]: columns c m .. c m + m - 1 of the last m rows.
    minors = level = [_pack([row[j : j + m] for row in rows[-m:]], slots * v, m) for j in range(0, width, m)]
    # Block rows n-2 up to 0, each as its m flat rows.
    for at, plan in zip(range((n - 2) * m, -1, -m), _dp_plan(n, m)):
        band = rows[at : at + m]
        store = []
        for packed in level:
            store += packed
            store += map(neg, packed)
        minors, level = level, [_dp_entry([*map(cols, band)], keys(store)) for cols, keys in plan]
    unpack = _unpacker(v, m * slots)

    def decode(x: int) -> tuple:
        digits = unpack(x)
        if poly:
            return tuple(_poly_trim(digits[j : j + slots]) for j in range(0, m * slots, slots))
        if p:
            return tuple([y % p for y in digits])
        return tuple(digits)

    return level[0], minors, decode


def _det_and_cofactors(ring: Ring, m: int, rows) -> tuple[tuple, list[tuple]]:
    # The row-determinant and the first-row cofactors (-1)^j E[all - {j}],
    # as payload rows, from one run; a sign goes on the packed rows.
    det, minors, decode = _subset_dp(ring, m, rows)
    return tuple(map(decode, det)), [
        tuple(decode(-x if j % 2 else x) for x in packed) for j, packed in enumerate(reversed(minors))
    ]


def nc_row_det(bm: BlockMatrix) -> Matrix:
    """Signed permutation sum with factors ordered by block row.

    Evaluated as the subset dynamic program run up to the first row, whose
    last step is the first-row expansion: n 2^(n-1) - n block products, not
    the (n-1) n! of the sum written out.
    """
    if bm.n < 1:
        raise ValueError("row-determinant needs n >= 1")
    det, _, decode = _subset_dp(bm.ring, bm.m, _flat_rows(bm))
    return Matrix._of(bm.ring, tuple(map(decode, det)))


def _column_collapses(ring: Ring, m: int, rows, cofs) -> bool:
    """Every block row below the first times the cofactor column is zero:
    one product each, of the row's flat rows by the cofactors stacked."""
    column = list(chain.from_iterable(cofs))
    return not any(any(map(any, _product_rows(ring, rows[at : at + m], column))) for at in range(m, len(rows), m))


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
    ring, m, rows = bm.ring, bm.m, _flat_rows(bm)
    return _column_collapses(ring, m, rows, _det_and_cofactors(ring, m, rows)[1])


class BourbakiChecks(NamedTuple):
    """Outcomes of the polynomial-extension induction checks."""

    first_column_collapse: bool
    lower_det_monic: bool
    det_product_identity: bool
    induction_step: bool
    identity_at_zero: bool

    @property
    def all_pass(self) -> bool:
        return all(self)


def bourbaki_trace(bm: BlockMatrix) -> BourbakiChecks:
    """Replay the inductive determinant proof on bm; return its five checks.

    Requires an integer base ring: the proof works over Z[z].  It shifts M
    to zI + M and multiplies that by E, the identity with its first block
    column replaced by the first-row cofactors C0..C(n-1), to collapse the
    column to (Det, 0, ..., 0)^t.  E is block lower-triangular with C0 and
    then identity blocks down its diagonal, so det E = det C0: E is not
    built, nor is any matrix.  The trace lifts the flat rows of M to those
    of zI + M once, runs the one subset DP on them, and takes four
    determinants over Z[z], as coefficient tuples, of flat rows: of the
    tail (zI + M less its first block row and column), of zI + M, of its
    block determinant and of C0.  With blocks satisfying the row-one-free
    family all checks pass; other inputs report their failures.
    """
    if not isinstance(bm.ring, IntegerRing):
        raise ValueError("trace construction requires the integer base ring")
    n, m = bm.n, bm.m
    if n < 2:
        raise ValueError("trace construction needs n >= 2")
    rz = PolynomialRing("z")
    # z on the diagonal of each diagonal block is z on the flat diagonal.
    rows = tuple(
        tuple((x, 1) if i == j else rz.int_payload(x) for j, x in enumerate(row))
        for i, row in enumerate(_flat_rows(bm))
    )
    tail_rows = tuple(row[m:] for row in rows[m:])
    det_rows, cof_rows = _det_and_cofactors(rz, m, rows)
    first_column_collapse = _column_collapses(rz, m, rows, cof_rows)

    det_tail, det_shifted_flat, det_of_block_det, det_c0 = map(_det_poly, (tail_rows, rows, det_rows, cof_rows[0]))
    lower_det_monic = det_tail[-1:] == (1,) and len(det_tail) - 1 == m * (n - 1)
    det_product_identity = rz.pmul(det_shifted_flat, det_c0) == rz.pmul(det_of_block_det, det_tail)
    induction_step = det_tail == det_c0

    # Setting z = 0 is a ring map that sends zI + M back to bm, so these
    # constant terms are det(Det M) and det M.
    lhs, rhs = (p[0] if p else 0 for p in (det_of_block_det, det_shifted_flat))
    identity_at_zero = lhs == rhs

    return BourbakiChecks(first_column_collapse, lower_det_monic, det_product_identity, induction_step, identity_at_zero)
