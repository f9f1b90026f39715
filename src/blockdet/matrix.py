"""Dense matrices over a single exact ring, plus the block-matrix view.

A matrix stores its entries as the ring's canonical payloads, flat and in
row-major order, and every kernel computes on them directly.  ``RingValue``
is the API form: ``from_rows`` accepts it, and ``entry``, ``row_list`` and
the determinants return it.

Products are built one row at a time: row i of A*B is the sum of
a[i][k] * (row k of B) over the nonzero a[i][k] only, so zero entries of A
cost nothing.  Over ``int`` and ``mod:p`` the row sums are exact Python
ints, reduced once per entry (``% p`` over ``mod:p``) rather than after
every product.  ``commutes`` compares XY and YX row by row and stops at
the first row that differs.

Determinants are exact: a division-free O(k^4) method (Bird's sequence of
triangular mutations) over rings without division, and ordinary Gaussian
elimination over prime fields where division is available.
"""

from __future__ import annotations

import operator
from itertools import chain, combinations, permutations, repeat

from .ring import PolynomialRing, PrimeField, Ring, RingMismatchError, RingValue, parse_ring

EXPANSION_CAP = 8


class MatrixFormatError(ValueError):
    """Raised on malformed matrix text input."""


def permutation_sign(perm) -> int:
    """Sign of a sequence of distinct values, by counting inversions."""
    inversions = sum(1 for a, b in combinations(perm, 2) if a > b)
    return -1 if inversions % 2 else 1


def signed_permutations(n: int):
    """Every permutation of range(n) as a tuple, paired with its sign."""
    for perm in permutations(range(n)):
        yield perm, permutation_sign(perm)


class Matrix:
    """A rows x cols matrix over ``ring``.

    ``entries`` is a flat row-major tuple of canonical payloads of ``ring``
    (ints for ``int`` and ``mod:p``, coefficient tuples for ``poly:v``).
    Build from ints or ``RingValue``s with ``from_rows``.
    """

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        if entries and isinstance(entries[0], RingValue):
            raise TypeError("Matrix entries are canonical payloads; use Matrix.from_rows for ring values")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, ring: Ring, rows) -> Matrix:
        """Build a matrix from nested sequences of ints or ring values."""
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        entries = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            for e in r:
                if not isinstance(e, RingValue):
                    entries.append(ring.canonical(ring.int_payload(e)))
                elif e.ring != ring:
                    raise RingMismatchError("matrix entries must share the ring")
                else:
                    entries.append(e.payload)
        return cls(ring, nrows, ncols, entries)

    @classmethod
    def identity(cls, ring: Ring, k: int) -> Matrix:
        one, zero = ring.int_payload(1), ring.int_payload(0)
        return cls(ring, k, k, [one if i == j else zero for i in range(k) for j in range(k)])

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> Matrix:
        return cls(ring, rows, cols, [ring.int_payload(0)] * (rows * cols))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> RingValue:
        return RingValue(self.ring, self.entries[i * self.cols + j])

    def row_list(self, i: int) -> list[RingValue]:
        return [RingValue(self.ring, p) for p in self.entries[i * self.cols : (i + 1) * self.cols]]

    def _payload_rows(self) -> list[tuple]:
        c = self.cols
        return [self.entries[i * c : (i + 1) * c] for i in range(self.rows)]

    def _check_ring(self, other: Matrix) -> None:
        if self.ring != other.ring:
            raise RingMismatchError("matrices over different rings")

    def __add__(self, other: Matrix) -> Matrix:
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        padd = self.ring.padd
        return Matrix(self.ring, self.rows, self.cols, [padd(a, b) for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: Matrix) -> Matrix:
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in subtraction")
        psub = self.ring.psub
        return Matrix(self.ring, self.rows, self.cols, [psub(a, b) for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> Matrix:
        pneg = self.ring.pneg
        return Matrix(self.ring, self.rows, self.cols, [pneg(a) for a in self.entries])

    def __mul__(self, other: Matrix) -> Matrix:
        self._check_ring(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        return Matrix(self.ring, self.rows, other.cols, chain.from_iterable(_product_rows(self, other)))

    def scale(self, s: RingValue) -> Matrix:
        if s.ring != self.ring:
            raise RingMismatchError("scalar from a different ring")
        pmul = self.ring.pmul
        sp = s.payload
        return Matrix(self.ring, self.rows, self.cols, [pmul(sp, a) for a in self.entries])

    def transpose(self) -> Matrix:
        c = self.cols
        return Matrix(self.ring, c, self.rows, [e for j in range(c) for e in self.entries[j::c]])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(map(self.ring.format_payload, row)) for row in self._payload_rows())
        return f"Matrix({self.rows}x{self.cols} over {self.ring.label}: [{body}])"


def _product_rows(a: Matrix, b: Matrix):
    """Rows of a * b as payload lists, one row at a time.

    Row i is the sum of a[i][k] * (row k of b) over the nonzero a[i][k]
    only.  Over ``int`` and ``mod:p`` the sums are exact Python ints,
    reduced once per entry at the end (``% p`` over ``mod:p``); over
    ``poly:`` the ring's own payload operations run in the same loop.
    """
    ring = a.ring
    if isinstance(ring, PolynomialRing):
        add, mul = ring.padd, ring.pmul
    else:
        add, mul = operator.add, operator.mul
    p = ring.p if isinstance(ring, PrimeField) else None
    brows = b._payload_rows()
    zero_row = [ring.int_payload(0)] * b.cols
    for arow in a._payload_rows():
        acc = None
        for x, brow in zip(arow, brows):
            if x:
                prods = map(mul, repeat(x), brow)
                acc = list(prods) if acc is None else list(map(add, acc, prods))
        if acc is None:
            yield zero_row
        elif p is None:
            yield acc
        else:
            yield [v % p for v in acc]


def commutes(x: Matrix, y: Matrix) -> bool:
    """Exact test that x*y == y*x, one row at a time.

    Row i of xy is compared with row i of yx, and the test stops at the
    first row that differs, so neither product is built in full.
    """
    x._check_ring(y)
    if not (x.is_square and y.is_square and x.rows == y.rows):
        raise ValueError("commutation test requires equal square shapes")
    return all(map(operator.eq, _product_rows(x, y), _product_rows(y, x)))


def _det_bird(ring: Ring, rows) -> object:
    # Bird's division-free determinant: F_{k+1} = mu(F_k) A where mu zeroes
    # the lower triangle and replaces each diagonal entry with minus the sum
    # of the diagonal entries below it.  det A = (-1)^(k-1) (F_k)_{11}.
    k = len(rows)
    if k == 0:
        return ring.int_payload(1)
    padd = ring.padd
    pmul = ring.pmul
    pneg = ring.pneg
    zero = ring.int_payload(0)
    a = f = rows
    for _ in range(k - 1):
        suffix = [zero] * k
        acc = zero
        for i in range(k - 1, -1, -1):
            suffix[i] = acc
            acc = padd(acc, f[i][i])
        g = []
        for i in range(k):
            mii = pneg(suffix[i])
            fi = f[i]
            grow = []
            for j in range(k):
                aij = a[i][j]
                total = pmul(mii, aij) if (mii and aij) else zero
                for t in range(i + 1, k):
                    x = fi[t]
                    if x:
                        y = a[t][j]
                        if y:
                            total = padd(total, pmul(x, y))
                grow.append(total)
            g.append(grow)
        f = g
    return f[0][0] if k % 2 else ring.pneg(f[0][0])


def _det_gauss_mod_p(p: int, rows) -> int:
    m = [list(row) for row in rows]
    k = len(m)
    det = 1
    for col in range(k):
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
        base = m[col]
        for r in range(col + 1, k):
            f = m[r][col]
            if f:
                f = f * inv % p
                row = m[r]
                row[col + 1 :] = [(x - f * y) % p for x, y in zip(row[col + 1 :], base[col + 1 :])]
    return det % p


def _det_payload(ring: Ring, rows) -> object:
    if isinstance(ring, PrimeField):
        return _det_gauss_mod_p(ring.p, rows)
    return _det_bird(ring, rows)


def det_commutative(mat: Matrix) -> RingValue:
    """Exact determinant over the matrix's (commutative) base ring."""
    if not mat.is_square:
        raise ValueError("determinant of a non-square matrix")
    return RingValue(mat.ring, _det_payload(mat.ring, mat._payload_rows()))


def det_expansion_oracle(mat: Matrix) -> RingValue:
    """Determinant by the signed permutation sum; test oracle only."""
    if not mat.is_square:
        raise ValueError("determinant of a non-square matrix")
    k = mat.rows
    if k > EXPANSION_CAP:
        raise ValueError(f"expansion oracle capped at dimension {EXPANSION_CAP}")
    ring = mat.ring
    padd = ring.padd
    psub = ring.psub
    pmul = ring.pmul
    rows = mat._payload_rows()
    total = ring.int_payload(0)
    one = ring.int_payload(1)
    for perm, sign in signed_permutations(k):
        prod = one
        for i in range(k):
            e = rows[i][perm[i]]
            if not e:
                prod = None
                break
            prod = pmul(prod, e)
        if prod is None:
            continue
        total = padd(total, prod) if sign > 0 else psub(total, prod)
    return RingValue(ring, total)


def cofactor_matrix(mat: Matrix) -> Matrix:
    """Matrix of signed minors; satisfies X (Cof X)^t = (det X) I."""
    if not mat.is_square:
        raise ValueError("cofactor matrix of a non-square matrix")
    k = mat.rows
    ring = mat.ring
    if k == 0:
        return mat
    if k == 1:
        return Matrix.identity(ring, 1)
    rows = mat._payload_rows()
    out = []
    for i in range(k):
        for j in range(k):
            sub = [[rows[r][c] for c in range(k) if c != j] for r in range(k) if r != i]
            minor = _det_payload(ring, sub)
            out.append(minor if (i + j) % 2 == 0 else ring.pneg(minor))
    return Matrix(ring, k, k, out)


class BlockMatrix:
    """An n x n array of m x m matrices over a common base ring."""

    __slots__ = ("ring", "m", "n", "blocks")

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
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("BlockMatrix is immutable")

    def block(self, i: int, j: int) -> Matrix:
        """Block at 0-based position (i, j)."""
        return self.blocks[i][j]

    def with_block(self, i: int, j: int, mat: Matrix) -> BlockMatrix:
        rows = [list(row) for row in self.blocks]
        rows[i][j] = mat
        return BlockMatrix(self.ring, self.m, self.n, rows)

    def flatten(self) -> Matrix:
        m, n = self.m, self.n
        entries = []
        for bi in range(n):
            for r in range(m):
                for bj in range(n):
                    blk = self.blocks[bi][bj]
                    entries.extend(blk.entries[r * m : (r + 1) * m])
        return Matrix(self.ring, m * n, m * n, entries)

    def transpose(self) -> BlockMatrix:
        # Block (i, j) of the transpose is the transpose of block (j, i).
        return BlockMatrix(
            self.ring,
            self.m,
            self.n,
            [[self.blocks[j][i].transpose() for j in range(self.n)] for i in range(self.n)],
        )

    def __mul__(self, other: BlockMatrix) -> BlockMatrix:
        if not isinstance(other, BlockMatrix):
            return NotImplemented
        if self.ring != other.ring or self.m != other.m or self.n != other.n:
            raise ValueError("block shape or ring mismatch")
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.blocks[i][0] * other.blocks[0][j]
                for t in range(1, n):
                    acc = acc + self.blocks[i][t] * other.blocks[t][j]
                row.append(acc)
            out.append(row)
        return BlockMatrix(self.ring, self.m, n, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockMatrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.m == other.m
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.ring, self.m, self.n, self.blocks))

    def __repr__(self):
        return f"BlockMatrix(n={self.n}, m={self.m}, ring={self.ring.label})"


def block_view(mat: Matrix, m: int) -> BlockMatrix:
    """View a square matrix as an n x n array of m x m blocks."""
    if not mat.is_square:
        raise ValueError("block view of a non-square matrix")
    if m < 1 or mat.rows % m:
        raise ValueError(f"dimension {mat.rows} not divisible by block size {m}")
    n = mat.rows // m
    blocks = []
    for bi in range(n):
        row = []
        for bj in range(n):
            entries = []
            for r in range(m):
                base = (bi * m + r) * mat.cols + bj * m
                entries.extend(mat.entries[base : base + m])
            row.append(Matrix(mat.ring, m, m, entries))
        blocks.append(row)
    return BlockMatrix(mat.ring, m, n, blocks)


# --- text formats -----------------------------------------------------------

def format_matrix(mat: Matrix) -> str:
    lines = [f"{mat.rows} {mat.cols} {mat.ring.label}"]
    lines.extend(" ".join(map(mat.ring.format_payload, row)) for row in mat._payload_rows())
    return "\n".join(lines) + "\n"


def _parse_grid(lines, start: int, nrows: int, ncols: int, ring: Ring):
    entries = []
    for r in range(nrows):
        lineno = start + r
        if lineno >= len(lines):
            raise MatrixFormatError(f"line {lineno + 1}: expected {nrows} entry rows, file ended early")
        tokens = lines[lineno].split()
        if len(tokens) != ncols:
            raise MatrixFormatError(f"line {lineno + 1}: expected {ncols} entries, got {len(tokens)}")
        for c, tok in enumerate(tokens):
            try:
                entries.append(ring.canonical(ring.parse_payload(tok)))
            except (ValueError, TypeError):
                raise MatrixFormatError(f"line {lineno + 1}, column {c + 1}: bad entry {tok!r}") from None
    return entries


def parse_matrix(text: str) -> Matrix:
    """Parse the plain-text matrix format: ``rows cols ring`` then entry rows."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MatrixFormatError("line 1: empty input")
    header = lines[0].split()
    if len(header) != 3:
        raise MatrixFormatError("line 1: header must be 'rows cols ring-descriptor'")
    try:
        nrows, ncols = int(header[0]), int(header[1])
        ring = parse_ring(header[2])
    except ValueError as exc:
        raise MatrixFormatError(f"line 1: {exc}") from None
    if nrows < 1 or ncols < 1:
        raise MatrixFormatError("line 1: dimensions must be positive")
    return Matrix(ring, nrows, ncols, _parse_grid(lines, 1, nrows, ncols, ring))


def format_block_matrix(bm: BlockMatrix) -> str:
    lines = [f"{bm.m} {bm.n} {bm.ring.label}"]
    lines.extend(" ".join(map(bm.ring.format_payload, row)) for row in bm.flatten()._payload_rows())
    return "\n".join(lines) + "\n"


def parse_block_matrix(text: str) -> BlockMatrix:
    """Parse the block-matrix format: ``m n ring`` then the mn x mn entries."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MatrixFormatError("line 1: empty input")
    header = lines[0].split()
    if len(header) != 3:
        raise MatrixFormatError("line 1: header must be 'm n ring-descriptor'")
    try:
        m, n = int(header[0]), int(header[1])
        ring = parse_ring(header[2])
    except ValueError as exc:
        raise MatrixFormatError(f"line 1: {exc}") from None
    if m < 1 or n < 1:
        raise MatrixFormatError("line 1: block sizes must be positive")
    k = m * n
    flat = Matrix(ring, k, k, _parse_grid(lines, 1, k, k, ring))
    return block_view(flat, m)
