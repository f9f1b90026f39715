"""Dense matrices over a single exact ring, plus the block-matrix view.

A matrix stores its entries as a tuple of row tuples of the ring's canonical
payloads, and every kernel computes on those rows directly.  Values are
checked where they enter: ``Matrix(ring, rows)`` takes ints, payloads or
``RingValue``s and canonicalises each entry, while the kernels build through
the trusted ``Matrix._of``.  The determinants return ``RingValue``s.
``Matrix`` and ``BlockMatrix`` are immutable values on ``ring.Frozen``,
like ``RingValue``, each with a validating ``__init__``, a trusted ``_of``
and its own ``__repr__``: a matrix compares and hashes on ``(ring,
entries)``, a block matrix on ``(ring, m, n, blocks)``, and assigning or
deleting any attribute raises ``AttributeError``.  Generators and kernels
build block matrices through ``BlockMatrix._of`` too.  A block matrix
builds its flat rows, the payload rows of the mn x mn matrix, on first use
and keeps them (``_flat_rows``), as a matrix keeps its shifted rows, so
``flatten`` and the row determinant's subset DP in ``ncdet`` flatten a
sample once between them; ``block_view`` keeps the viewed matrix's rows as
them.

Products are built one row at a time: row i of A*B is the sum of
a[i][k] * (row k of B) over the nonzero a[i][k] only, so zero entries of A
cost nothing.  Over ``int`` and ``mod:p`` the row sums are exact Python
ints, reduced once per entry (``% p`` over ``mod:p``) rather than after
every product.  The kernel, ``_product_rows``, takes and yields payload row
tuples, so a sum of block products X1 Y1 + ... + Xk Yk is one call: the
X's side by side times the Y's stacked in one column.

Commutation is tested on shifted blocks: XY = YX exactly when
(X - cI)(Y - dI) = (Y - dI)(X - cI), for any scalars c and d.  ``shifted``
subtracts a block's most common diagonal entry and keeps only the nonzero
rows, so a scalar block keeps none and c*I plus a 2x2 perturbation keeps at
most two.  A matrix is shifted once, on first use, and keeps its shifted
rows, so a sample's satisfaction check and its witness test share them.
``shifted_commute`` compares the two products only on rows that are nonzero
in either factor and stops at the first row that differs; ``commutes`` runs
it on the shifted rows of both blocks.

Determinants are exact.  Over ``int``, Bareiss's fraction-free O(k^3)
elimination on Python ints: each update is pivot * x - f * y divided
exactly by the previous pivot (Sylvester's identity).  Over ``poly:``, that
one elimination on the entries' values at z = 2^V (Kronecker substitution):

- Let N_ij be the sum of the |coefficients| of a_ij.  That sum is
  submultiplicative, so each coefficient of the term of a permutation s in
  det A is at most N_1s(1) ... N_ks(k), and each coefficient of det A at
  most the permanent of N.  That is at most B = prod_i sum_j N_ij, whose
  expansion has a nonnegative term for every map from rows to columns.  A
  zero row makes B = 0 and det A = 0.
- Each term has degree sum_i deg a_is(i), at most sum_i max_j deg a_ij.
- z -> 2^V is a ring map to Z, so det(A(2^V)) = (det A)(2^V).  With V =
  bit_length(B) + 1 each coefficient has |c| <= B < 2^(V-1) and fills one
  signed V-bit slot, read back as ``ncdet``'s subset DP reads its own.

Over prime fields it is Gaussian elimination, taking the rows sparsest
first (Markowitz 1957): a stable sort on the zero count, whose parity goes
into the sign, and a pivot row at most half full updates only its nonzero
columns.  A flattened block sample is mostly rows with a scalar and one 2x2
slot per block, so they are eliminated before the dense first block row and
fill in little.  The slow oracles the tests hold these kernels to, the
signed permutation sum, Bird's division-free O(k^4) method and Bareiss's
elimination on each ring's own operations, live in ``tests/oracles.py``.
"""

from __future__ import annotations

import operator
from itertools import chain, permutations, repeat

from .ring import Frozen, PolynomialRing, PrimeField, Ring, RingMismatchError, RingValue, _poly_trim, parse_int, parse_ring


class MatrixFormatError(ValueError):
    """Raised on malformed matrix text input."""


def permutation_sign(perm) -> int:
    """Sign of a permutation of range(k), in O(k): by the parity of k minus
    its number of cycles."""
    seen = [False] * len(perm)
    parity = len(perm)
    for start in range(len(perm)):
        if not seen[start]:
            parity -= 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return -1 if parity % 2 else 1


def signed_permutations(n: int):
    """Every permutation of range(n) as a tuple, paired with its sign."""
    for perm in permutations(range(n)):
        yield perm, permutation_sign(perm)


class Matrix(Frozen):
    """A rows x cols matrix over ``ring``.

    ``entries`` is a tuple of row tuples of canonical payloads of ``ring``
    (ints for ``int`` and ``mod:p``, coefficient tuples for ``poly:v``);
    the shape is read from it.  ``rows`` may hold ints, payloads or
    ``RingValue``s of ``ring``; any other value raises ``RingMismatchError``
    or ``TypeError``, and ragged rows raise ``ValueError``.
    """

    _fields = ("ring", "entries")

    def __init__(self, ring: Ring, rows):
        def payload(e):
            if not isinstance(e, RingValue):
                return ring.canonical(e)
            if e.ring != ring:
                raise RingMismatchError("matrix entries must share the ring")
            return e.payload

        entries = tuple(tuple(map(payload, row)) for row in rows)
        if any(len(row) != len(entries[0]) for row in entries):
            raise ValueError("ragged rows")
        self._fill(ring, entries)

    @classmethod
    def _of(cls, ring: Ring, entries: tuple) -> Matrix:
        """The trusted constructor: ``entries`` is a tuple of equal-length
        tuples of canonical payloads of ``ring``, taken as it is."""
        mat = object.__new__(cls)
        mat._fill(ring, entries)
        return mat

    def _fill(self, ring: Ring, entries: tuple) -> None:
        # Straight into the instance dict, past the frozen __setattr__.
        self.__dict__.update(ring=ring, rows=len(entries), cols=len(entries[0]) if entries else 0, entries=entries)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def _check_ring(self, other: Matrix) -> None:
        if self.ring != other.ring:
            raise RingMismatchError("matrices over different rings")

    def _entrywise(self, other: Matrix, op, what: str) -> Matrix:
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch in {what}")
        return Matrix._of(self.ring, tuple(tuple(map(op, a, b)) for a, b in zip(self.entries, other.entries)))

    def __add__(self, other: Matrix) -> Matrix:
        return self._entrywise(other, self.ring.padd, "addition")

    def __sub__(self, other: Matrix) -> Matrix:
        return self._entrywise(other, self.ring.psub, "subtraction")

    def __neg__(self) -> Matrix:
        pneg = self.ring.pneg
        return Matrix._of(self.ring, tuple(tuple(map(pneg, row)) for row in self.entries))

    def __mul__(self, other: Matrix) -> Matrix:
        self._check_ring(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        return Matrix._of(self.ring, tuple(_product_rows(self.ring, self.entries, other.entries)))

    def scale(self, s: RingValue) -> Matrix:
        if s.ring != self.ring:
            raise RingMismatchError("scalar from a different ring")
        pmul = self.ring.pmul
        sp = s.payload
        return Matrix._of(self.ring, tuple(tuple(map(pmul, repeat(sp), row)) for row in self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(map(self.ring.format_payload, row)) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols} over {self.ring.label}: [{body}])"


def _row_ops(ring: Ring):
    """(add, mul, p) for sums of scaled payload rows: exact Python ints over
    ``int`` and ``mod:p``, which the caller reduces ``% p`` once per entry
    when p is not None, and the ring's own operations over ``poly:``."""
    if isinstance(ring, PolynomialRing):
        return ring.padd, ring.pmul, None
    return operator.add, operator.mul, ring.p if isinstance(ring, PrimeField) else None


def _product_rows(ring: Ring, arows, brows):
    """Rows of a * b as payload tuples, one row at a time, from the rows of
    a and of b.

    Row i is the sum of a[i][k] * (row k of b) over the nonzero a[i][k]
    only.  Over ``int`` and ``mod:p`` the sums are exact Python ints,
    reduced once per entry at the end (``% p`` over ``mod:p``); over
    ``poly:`` the ring's own payload operations run in the same loop.
    """
    add, mul, p = _row_ops(ring)
    zero_row = (ring.int_payload(0),) * (len(brows[0]) if brows else 0)
    for arow in arows:
        acc = None
        for x, brow in zip(arow, brows):
            if x:
                prods = map(mul, repeat(x), brow)
                acc = tuple(prods) if acc is None else tuple(map(add, acc, prods))
        if acc is None:
            yield zero_row
        elif p is None:
            yield acc
        else:
            yield tuple([v % p for v in acc])


def shifted(x: Matrix) -> dict[int, tuple]:
    """The nonzero rows of x - cI by row index, for square x and c the most
    common diagonal entry of x; on a tie, the one met first down the
    diagonal.  Computed once per matrix and kept on it, so every caller
    shares the dict: read it, never change it.  A block that several
    samples hold, such as an interned scalar block, keeps rows that serve
    every one of them."""
    # Kept in the instance dict, past the frozen __setattr__, as _fill
    # does; functools.cached_property would take a lock on every first
    # access under CPython 3.11.
    kept = x.__dict__
    form = kept.get("_shifted")
    if form is None:
        form = kept["_shifted"] = _shift(x)
    return form


def _shift(x: Matrix) -> dict[int, tuple]:
    rows = x.entries
    counts = {}
    for i, row in enumerate(rows):
        counts[row[i]] = counts.get(row[i], 0) + 1
    # max keeps the first maximal key, and a dict keeps insertion order.
    c = max(counts, key=counts.__getitem__, default=None)
    zero = x.ring.int_payload(0)
    psub = x.ring.psub
    off_diagonal = len(rows) - 1
    out = {}
    for i, row in enumerate(rows):
        d = row[i]
        if d != c:
            out[i] = row[:i] + (psub(d, c),) + row[i + 1 :]
        elif row.count(zero) - (not d) < off_diagonal:
            # A nonzero entry off the diagonal.
            out[i] = row[:i] + (zero,) + row[i + 1 :]
    return out


def shifted_commute(ring: Ring, xs: dict[int, tuple], ys: dict[int, tuple]) -> bool:
    """Whether X and Y commute, from their shifted rows xs and ys, those
    of X' = X - cI and Y' = Y - dI.

    Row i of X'Y' is the sum of X'[i][k] * (row k of Y') over the rows k
    of ys, and it is zero unless i is a row of xs.  So only rows that are
    nonzero in either factor are compared, and the test stops at the first
    row that differs.  A scalar block (no rows) commutes with every block.
    """
    if not xs or not ys:
        return True
    add, mul, p = _row_ops(ring)

    def product_row(own, other):
        # Row i of X'Y' from own = row i of X' and other = the rows of Y',
        # or None when it is zero.
        acc = None
        for k, brow in other.items():
            x = own[k]
            if x:
                prods = map(mul, repeat(x), brow)
                acc = tuple(prods) if acc is None else tuple(map(add, acc, prods))
        if acc is None:
            return None
        if p is not None:
            acc = tuple([v % p for v in acc])
        return acc if any(acc) else None

    for i in xs.keys() | ys.keys():
        xi, yi = xs.get(i), ys.get(i)
        if (xi and product_row(xi, ys)) != (yi and product_row(yi, xs)):
            return False
    return True


def commutes(x: Matrix, y: Matrix) -> bool:
    """Exact test that x*y == y*x: ``shifted_commute`` on the shifted rows
    of both blocks."""
    x._check_ring(y)
    if not (x.is_square and y.is_square and x.rows == y.rows):
        raise ValueError("commutation test requires equal square shapes")
    return shifted_commute(x.ring, shifted(x), shifted(y))


def _pack(seqs, v: int, count: int) -> list[int]:
    """Each sequence of at most ``count`` signed ints in ``seqs`` as one
    int, the sum of s[i] 2^(i v): its values in v-bit slots, the first
    lowest.  A sequence of one value is that value."""
    shifts = range(0, count * v, v)
    lshift = operator.lshift
    return [(sum(map(lshift, s, shifts)) if len(s) > 1 else s[0]) if s else 0 for s in seqs]


def _unpacker(v: int, count: int):
    """The inverse of ``_pack`` on ints of ``count`` slots whose values all
    have |y| < 2^(v-1): adding 2^(v-1) to every slot makes each a
    nonnegative v-bit digit, read off by shift and mask."""
    low, half = (1 << v) - 1, 1 << (v - 1)
    offset = ((1 << count * v) - 1) // low * half
    starts = range(0, count * v, v)

    def unpack(x: int) -> list[int]:
        x += offset
        return [(x >> s & low) - half for s in starts]

    return unpack


def _det_int(rows) -> int:
    """Bareiss's fraction-free elimination: after step c every entry below
    row c is the (c+2)-rowed leading minor through it, so dividing by the
    previous pivot is exact (Sylvester's identity).  A zero pivot swaps in
    a lower row with a nonzero entry and flips the sign."""
    m = [list(row) for row in rows]
    k = len(m)
    prev, sign = 1, 1
    for c in range(k - 1):
        piv = next((r for r in range(c, k) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        pivot = m[c][c]
        tail = m[c][c + 1 :]
        for row in m[c + 1 :]:
            f = row[c]
            if f:
                row[c + 1 :] = [(pivot * x - f * y) // prev for x, y in zip(row[c + 1 :], tail)]
            elif pivot != prev:
                row[c + 1 :] = [pivot * x // prev for x in row[c + 1 :]]
        prev = pivot
    return sign * m[-1][-1] if k else 1


def _det_poly(rows) -> tuple:
    """det A over Z[z] as ``_det_int`` of A(2^V), by the module docstring."""
    bound, deg = 1, 0
    for row in rows:
        size = sum(map(abs, chain.from_iterable(row)))
        if not size:
            return ()
        bound *= size
        deg += max(map(len, row)) - 1
    v, k = bound.bit_length() + 1, len(rows)
    packed = _pack(list(chain.from_iterable(rows)), v, deg + 1)
    return _poly_trim(_unpacker(v, deg + 1)(_det_int([packed[i : i + k] for i in range(0, k * k, k)])))


def _det_gauss_mod_p(p: int, rows) -> int:
    # Rows go sparsest first: a stable sort on the zero count, so equal
    # rows keep their order, whose sign goes into the determinant.  Already
    # in order, they skip the sort, which keeps dense inputs as fast as
    # plain elimination.
    k = len(rows)
    zeros = [row.count(0) for row in rows]
    det = 1
    if zeros == sorted(zeros, reverse=True):
        m = [list(row) for row in rows]
    else:
        order = sorted(range(k), key=zeros.__getitem__, reverse=True)
        m = [list(rows[i]) for i in order]
        det = permutation_sign(order)
    for col in range(k - 1):
        piv = None
        for r in range(col, k):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        pivot = m[col][col]
        det = det * pivot % p
        inv = pow(pivot, -1, p)
        tail = m[col][col + 1 :]
        # A pivot row at most half full updates only its nonzero columns.
        sparse = 2 * tail.count(0) >= len(tail)
        if sparse:
            tail = [(j, y * inv % p) for j, y in enumerate(tail, col + 1) if y]
        for r in range(col + 1, k):
            f = m[r][col]
            if f:
                row = m[r]
                if sparse:
                    for j, y in tail:
                        row[j] = (row[j] - f * y) % p
                else:
                    f = f * inv % p
                    row[col + 1 :] = [(x - f * y) % p for x, y in zip(row[col + 1 :], tail)]
    return det * m[-1][-1] % p if k else 1


def det_commutative(mat: Matrix) -> RingValue:
    """Exact determinant over the matrix's (commutative) base ring."""
    if not mat.is_square:
        raise ValueError("determinant of a non-square matrix")
    ring, rows = mat.ring, mat.entries
    if isinstance(ring, PrimeField):
        return RingValue(ring, _det_gauss_mod_p(ring.p, rows))
    return RingValue(ring, _det_poly(rows) if isinstance(ring, PolynomialRing) else _det_int(rows))


class BlockMatrix(Frozen):
    """An n x n array of m x m matrices over a common base ring."""

    _fields = ("ring", "m", "n", "blocks")

    def __init__(self, ring: Ring, m: int, n: int, blocks):
        blocks = tuple(tuple(row) for row in blocks)
        if len(blocks) != n or any(len(row) != n for row in blocks):
            raise ValueError(f"expected {n}x{n} blocks")
        for row in blocks:
            for b in row:
                if b.ring != ring:
                    raise RingMismatchError("blocks over different rings")
                if (b.rows, b.cols) != (m, m):
                    raise ValueError(f"every block must be {m}x{m}")
        self._fill(ring, m, n, blocks)

    @classmethod
    def _of(cls, ring: Ring, m: int, n: int, blocks: tuple) -> BlockMatrix:
        """The trusted constructor: ``blocks`` is a tuple of n tuples of n
        m x m matrices over ``ring``, taken as it is."""
        bm = object.__new__(cls)
        bm._fill(ring, m, n, blocks)
        return bm

    def _fill(self, ring: Ring, m: int, n: int, blocks: tuple) -> None:
        # Straight into the instance dict, past the frozen __setattr__.
        self.__dict__.update(ring=ring, m=m, n=n, blocks=blocks)

    def block(self, i: int, j: int) -> Matrix:
        """Block at 0-based position (i, j)."""
        return self.blocks[i][j]

    def flatten(self) -> Matrix:
        """The mn x mn matrix of the entries, on the kept flat rows."""
        return Matrix._of(self.ring, _flat_rows(self))

    def __repr__(self):
        return f"BlockMatrix(n={self.n}, m={self.m}, ring={self.ring.label})"


def _flat_rows(bm: BlockMatrix) -> tuple:
    """The payload rows of the flattened matrix: row r of block row i is
    row r of each block in that block row, side by side.  Built once per
    block matrix and kept on it, as ``shifted`` keeps a matrix's shifted
    rows, so its flat determinant and the row determinant's subset DP share
    them: read them, never change them."""
    kept = bm.__dict__
    rows = kept.get("_flat")
    if rows is None:
        rows = kept["_flat"] = _flatten(bm)
    return rows


def _flatten(bm: BlockMatrix) -> tuple:
    return tuple(tuple(chain.from_iterable(rows)) for brow in bm.blocks for rows in zip(*(b.entries for b in brow)))


def block_view(mat: Matrix, m: int) -> BlockMatrix:
    """View a square matrix as an n x n array of m x m blocks."""
    if not mat.is_square:
        raise ValueError("block view of a non-square matrix")
    if m < 1 or mat.rows % m:
        raise ValueError(f"dimension {mat.rows} not divisible by block size {m}")
    n = mat.rows // m
    bands = [mat.entries[bi * m : (bi + 1) * m] for bi in range(n)]
    blocks = tuple(
        tuple([Matrix._of(mat.ring, tuple(row[bj * m : (bj + 1) * m] for row in band)) for bj in range(n)])
        for band in bands
    )
    bm = BlockMatrix._of(mat.ring, m, n, blocks)
    # The matrix's own rows are the block matrix's flat rows.
    bm.__dict__["_flat"] = mat.entries
    return bm


# --- text formats -----------------------------------------------------------

def _format_text(a: int, b: int, ring: Ring, rows) -> str:
    lines = [f"{a} {b} {ring.label}"]
    lines.extend(" ".join(map(ring.format_payload, row)) for row in rows)
    return "\n".join(lines) + "\n"


def format_matrix(mat: Matrix) -> str:
    return _format_text(mat.rows, mat.cols, mat.ring, mat.entries)


def format_block_matrix(bm: BlockMatrix) -> str:
    return _format_text(bm.m, bm.n, bm.ring, bm.flatten().entries)


def _parse_header(text: str, names: str, sizes: str):
    """The nonblank lines of ``text`` as (line number, line) pairs, counting
    blank lines too, then the two positive sizes and the ring of its header
    line ``a b ring``; ``names`` spells a and b, ``sizes`` names them in the
    error."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise MatrixFormatError("line 1: empty input")
    at, header = lines[0][0], lines[0][1].split()
    if len(header) != 3:
        raise MatrixFormatError(f"line {at}: header must be '{names} ring-descriptor'")
    try:
        a, b = parse_int(header[0]), parse_int(header[1])
        ring = parse_ring(header[2])
    except ValueError as exc:
        raise MatrixFormatError(f"line {at}: {exc}") from None
    if a < 1 or b < 1:
        raise MatrixFormatError(f"line {at}: {sizes} must be positive")
    return lines, a, b, ring


def _parse_grid(lines, nrows: int, ncols: int, ring: Ring):
    # lines[1:] are the entry rows; a missing row is reported on the line
    # after the last nonblank one, and a nonblank line past the last row on
    # that line.
    rows = []
    for k in range(1, nrows + 1):
        if k >= len(lines):
            raise MatrixFormatError(f"line {lines[-1][0] + 1}: expected {nrows} entry rows, file ended early")
        at, tokens = lines[k][0], lines[k][1].split()
        if len(tokens) != ncols:
            raise MatrixFormatError(f"line {at}: expected {ncols} entries, got {len(tokens)}")
        row = []
        for c, tok in enumerate(tokens):
            try:
                row.append(ring.parse_payload(tok))
            except ValueError:
                raise MatrixFormatError(f"line {at}, column {c + 1}: bad entry {tok!r}") from None
        rows.append(row)
    if len(lines) > nrows + 1:
        raise MatrixFormatError(f"line {lines[nrows + 1][0]}: expected {nrows} entry rows, found more")
    return rows


def parse_matrix(text: str) -> Matrix:
    """Parse the plain-text matrix format: ``rows cols ring`` then entry rows."""
    lines, nrows, ncols, ring = _parse_header(text, "rows cols", "dimensions")
    return Matrix(ring, _parse_grid(lines, nrows, ncols, ring))


def parse_block_matrix(text: str) -> BlockMatrix:
    """Parse the block-matrix format: ``m n ring`` then the mn x mn entries."""
    lines, m, n, ring = _parse_header(text, "m n", "block sizes")
    return block_view(Matrix(ring, _parse_grid(lines, m * n, m * n, ring)), m)
