"""Slow, independent oracles that the tests hold the package's kernels to.

None of this runs in ``blockdet`` itself:

- ``det_expansion_oracle``, the determinant as the signed permutation sum,
  ``_det_bird``, Bird's division-free O(k^4) determinant, and
  ``_det_bareiss``, Bareiss's elimination on the ring's own operations
  with the exact quotient ``exquo``, check the integer elimination, its
  Kronecker-packed form over Z[z] and sparsest-first Gaussian elimination
  (``blockdet.matrix``);
- ``trace_equal`` compares normal forms, and ``trace_equal_by_projection``
  decides trace equality by the projection lemma, independently of
  ``word_normal_form``; ``blockdet.traces._identity_holds`` rests on that
  lemma, and ``identity_holds_on_every_pair`` is it without its skip of
  row pairs that cannot leave row order;
- ``pairwise_satisfies`` multiplies out both products of every edge's
  blocks, with no shift and no centralizer certificate, and checks
  ``blockdet.conditions.matrix_satisfies``; ``commutation_graph`` joins
  every pair of positions whose blocks ``commutes`` says commute, for the
  tests that need every edge of a sample;
- ``nc_minor_det`` and ``nc_cofactor`` take the (i, j) minor of a block
  matrix and its signed form, by one run of ``blockdet.ncdet.nc_row_det``
  per minor; ``cofactor_matrix``, every signed minor by
  ``det_commutative``, checks ``nc_cofactor`` on 1 x 1 blocks;
- ``subset_dp_by_mask`` is the subset DP keyed by column mask, which looks
  up S - {c} and its sign for every term of every entry; it checks the DP
  on ``blockdet.ncdet._dp_plan``'s flat levels up to ``ROW_DET_CAP``;
- ``maps_onto_by_relabelling`` relabels the whole of kappa less one edge
  and compares it with kappa less the canonical edge, and checks the
  optimality scan's image test, ``blockdet.verify._maps_onto``; it
  relabels rows by ``cond_row_permute``, the column relabelling between
  two transposes;
- ``shifted_by_z`` builds the induction's objects from their definition,
  zI + M by adding z I to each diagonal block, its tail and its block
  determinant, which ``blockdet.ncdet.bourbaki_trace`` never builds: it
  runs on the flat rows of zI + M and returns only its five checks;
  ``eliminator_det`` flattens the eliminator E and takes its determinant,
  and ``identity_at_zero`` runs ``check_identity`` on the input itself:
  they check the trace's det E = det C0 and its z = 0 identity read from
  constant terms, on the ``trace_inputs`` that the trace's golden pin also
  hashes;
- ``main_by_full_parser`` parses every argv with the full parser alone and
  checks ``blockdet.cli.main``'s dispatch of a named command straight to
  that command's parser;
- ``sample_by_randrange`` draws each entry of a sample by its own
  ``rng.randrange`` call, in block order, and builds the blocks by matrix
  arithmetic: it checks that ``blockdet.verify``'s generators, which draw a
  sample's values in one call and slice them, give the same samples, retry
  the same draws and leave the ``Random`` in the same state.

``scalar`` builds c I, the one scalar-matrix builder the tests share.
"""

from __future__ import annotations

import random
import sys
from functools import cache
from itertools import chain, combinations, islice
from math import factorial
from operator import mul, neg

from blockdet.cli import build_parser
from blockdet.conditions import (
    Condition,
    cond_col_permute,
    cond_f,
    cond_kappa,
    cond_minus_edge,
    cond_named,
    cond_transpose,
    vertices,
)
from blockdet.matrix import (
    BlockMatrix,
    Matrix,
    MatrixFormatError,
    _flat_rows,
    _pack,
    _unpacker,
    commutes,
    det_commutative,
    permutation_sign,
    signed_permutations,
)
from blockdet.ncdet import _det_and_cofactors, nc_row_det
from blockdet.ring import ZZ, PolynomialRing, PrimeField, Ring, RingValue, _poly_trim
from blockdet.traces import Word, _check_word, word_normal_form
from blockdet.verify import (
    PAPER_SEED,
    _mix64,
    builtin_matrix,
    check_identity,
    gen_satisfying,
    pick_generator,
    trial_seed,
)

EXPANSION_CAP = 8


def scalar(ring: Ring, k: int, c=1) -> Matrix:
    """c I, k x k, for an int or a value c of ring."""
    return Matrix(ring, [[c if i == j else 0 for j in range(k)] for i in range(k)])


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
    rows = mat.entries
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


def _det_bird(ring: Ring, rows) -> object:
    # Bird's division-free determinant, a test oracle for Bareiss's method:
    # F_{k+1} = mu(F_k) A where mu zeroes the lower triangle and replaces
    # each diagonal entry with minus the sum of the diagonal entries below
    # it.  det A = (-1)^(k-1) (F_k)_{11}.
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


def exquo(ring: Ring, a, b):
    """The exact quotient a / b of two payloads of ``ring``: ``divmod``
    over Z, a field inverse over ``mod:p`` and long division over Z[z].

    Raises ``ArithmeticError`` when b does not divide a, rather than
    rounding; a zero b raises ``ZeroDivisionError``, one of its kind.
    """
    if isinstance(ring, PrimeField):
        if not b:
            raise ZeroDivisionError("division by zero in a prime field")
        return a * pow(b, -1, ring.p) % ring.p
    if not isinstance(ring, PolynomialRing):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError(f"{b} does not divide {a}")
        return q
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lead = b[-1]
    db = len(b) - 1
    rem = list(a)
    out = [0] * max(len(a) - db, 0)
    for i in range(len(out) - 1, -1, -1):
        c, r = divmod(rem[i + db], lead)
        if r:
            raise ArithmeticError("inexact polynomial division")
        if c:
            out[i] = c
            for j, y in enumerate(b):
                rem[i + j] -= c * y
    if any(rem[:db]):
        raise ArithmeticError("inexact polynomial division")
    return tuple(out)


def _det_bareiss(ring: Ring, rows) -> object:
    # Bareiss's fraction-free elimination on the ring's own payload
    # operations: after step c every entry below row c is the (c+2)-rowed
    # leading minor through it, so dividing by the previous pivot is exact
    # (Sylvester's identity).  A zero pivot swaps in a lower row with a
    # nonzero entry and flips the sign.
    m = [list(row) for row in rows]
    k = len(m)
    if k == 0:
        return ring.int_payload(1)
    pmul, psub = ring.pmul, ring.psub
    one = ring.int_payload(1)
    prev = one
    negate = False
    for c in range(k - 1):
        piv = next((r for r in range(c, k) if m[r][c]), None)
        if piv is None:
            return ring.int_payload(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            negate = not negate
        pivot = m[c][c]
        tail = m[c][c + 1 :]
        for r in range(c + 1, k):
            row = m[r]
            f = row[c]
            if f:
                new = [psub(pmul(pivot, x), pmul(f, y)) for x, y in zip(row[c + 1 :], tail)]
            else:
                new = [pmul(pivot, x) for x in row[c + 1 :]]
            row[c + 1 :] = new if prev == one else [exquo(ring, x, prev) for x in new]
        prev = pivot
    det = m[k - 1][k - 1]
    return ring.pneg(det) if negate else det


def trace_equal(u: Word, v: Word, rel: Condition) -> bool:
    """Equality of trace classes, via normal forms."""
    return word_normal_form(u, rel) == word_normal_form(v, rel)


def trace_equal_by_projection(u: Word, v: Word, rel: Condition) -> bool:
    """Independent equality test: equal letter multisets and equal
    projections onto every non-commuting pair of letters."""
    _check_word(u, rel)
    _check_word(v, rel)
    if sorted(u) != sorted(v):
        return False
    letters = sorted(set(u))
    for x, a in enumerate(letters):
        for b in letters[x + 1 :]:
            if rel.commutes(a, b):
                continue
            pu = tuple(lt for lt in u if lt == a or lt == b)
            pv = tuple(lt for lt in v if lt == a or lt == b)
            if pu != pv:
                return False
    return True


def identity_holds_on_every_pair(n: int, commutes, letter_map, reverse: bool, sign: int) -> bool:
    """``blockdet.traces._identity_holds`` testing every pair of letters in
    different rows and columns, with no pair of rows skipped."""
    grid = [[letter_map((r, c)) for c in range(1, n + 1)] for r in range(1, n + 1)]
    if permutation_sign([c - 1 for _, c in sorted(grid[r][r] for r in range(n))]) != sign:
        return False
    for r, upper in enumerate(grid):
        for lower in grid[r + 1 :]:
            for x, p in enumerate(upper):
                for y, q in enumerate(lower):
                    a, b = (q, p) if reverse else (p, q)
                    if x != y and a[0] > b[0] and not commutes(a, b):
                        return False
    return True


def pairwise_satisfies(bm: BlockMatrix, g: Condition) -> bool:
    """Whether every edge of g joins blocks x, y of bm with x y = y x, by
    both full products of every pair."""
    for (i, j), (k, l) in g.edges:
        x, y = bm.block(i - 1, j - 1), bm.block(k - 1, l - 1)
        if x * y != y * x:
            return False
    return True


def commutation_graph(bm: BlockMatrix) -> Condition:
    """The condition joining every two positions of bm whose blocks
    commute, each pair tested by ``commutes``."""
    blocks = {v: bm.block(v[0] - 1, v[1] - 1) for v in vertices(bm.n)}
    return Condition(bm.n, [(u, v) for u, v in combinations(blocks, 2) if commutes(blocks[u], blocks[v])])


def cofactor_matrix(mat: Matrix) -> Matrix:
    """Matrix of signed minors; satisfies X (Cof X)^t = (det X) I."""
    if not mat.is_square:
        raise ValueError("cofactor matrix of a non-square matrix")
    k, ring, rows = mat.rows, mat.ring, mat.entries
    if k == 0:
        return mat
    if k == 1:
        return Matrix(ring, [[1]])

    def cofactor(i, j):
        minor = det_commutative(Matrix(ring, [[rows[r][c] for c in range(k) if c != j] for r in range(k) if r != i]))
        return minor.payload if (i + j) % 2 == 0 else ring.pneg(minor.payload)

    return Matrix(ring, [[cofactor(i, j) for j in range(k)] for i in range(k)])


def subset_dp_by_mask(bm: BlockMatrix, top: int) -> dict[int, tuple]:
    """E[S] by column mask, as payload rows, for every set S of n - top
    columns: the subset DP with each level a dict by mask, each term's
    factor looked up as E[S - {c}] and its sign chosen per term.  The
    slots are sized as in ``blockdet.ncdet._subset_dp``."""
    n, m, ring = bm.n, bm.m, bm.ring
    k = n - top
    rows = [[blk.entries for blk in row] for row in bm.blocks[top:]]
    poly = isinstance(ring, PolynomialRing)
    p = ring.p if isinstance(ring, PrimeField) else 0
    if p:
        d, c = 0, p - 1
    else:
        payloads = list(chain.from_iterable(chain.from_iterable(chain.from_iterable(rows))))
        d, coeffs = 0, payloads
        if poly:
            d = max(max(map(len, payloads)) - 1, 0)
            coeffs = chain.from_iterable(payloads)
        c = max(map(abs, coeffs), default=0)
    v = (factorial(k) * (m * (d + 1)) ** (k - 1) * c**k).bit_length() + 1
    slots = k * d + 1
    if poly:
        values = iter(_pack(payloads, v, d + 1))
        rows = [[tuple(tuple(islice(values, m)) for _ in blk) for blk in row] for row in rows]
    level = {1 << col: _pack(blk, slots * v, m) for col, blk in enumerate(rows[-1])}
    for r in range(k - 2, -1, -1):
        signed = {mask: (packed, list(map(neg, packed))) for mask, packed in level.items()}
        brows = rows[r]
        nxt = {}
        for cols in combinations(range(n), k - r):
            mask = sum(1 << col for col in cols)
            left = [list(chain.from_iterable(erows)) for erows in zip(*[brows[col] for col in cols])]
            column = list(chain.from_iterable(signed[mask ^ (1 << col)][idx % 2] for idx, col in enumerate(cols)))
            nxt[mask] = [sum(map(mul, row, column)) for row in left]
        level = nxt
    unpack = _unpacker(v, m * slots)

    def decode(x: int) -> tuple:
        digits = unpack(x)
        if poly:
            return tuple(_poly_trim(digits[j : j + slots]) for j in range(0, m * slots, slots))
        if p:
            return tuple([y % p for y in digits])
        return tuple(digits)

    return {mask: tuple(map(decode, packed)) for mask, packed in level.items()}


def cond_row_permute(g: Condition, images: tuple[int, ...]) -> Condition:
    """Relabel rows: row x becomes row images[x-1], where ``images`` is a
    permutation of 1..n; the column relabelling of the transpose, transposed
    back."""
    return cond_transpose(cond_col_permute(cond_transpose(g), images))


def maps_onto_by_relabelling(n: int, edge, canonical, row_map, col_map) -> bool:
    """Whether relabelling columns by col_map and then rows by row_map sends
    kappa less edge onto kappa less canonical, graph against graph."""
    kappa = cond_kappa(n)
    mapped = cond_row_permute(cond_col_permute(cond_minus_edge(kappa, edge), col_map), row_map)
    return mapped == cond_minus_edge(kappa, canonical)


def nc_minor_det(bm: BlockMatrix, i: int, j: int) -> Matrix:
    """Row-determinant after removing block row i and block column j (1-based)."""
    n = bm.n
    if n < 2:
        raise ValueError("minors need n >= 2")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"minor index ({i},{j}) out of range for n={n}")
    rows = tuple(
        tuple([bm.blocks[r][c] for c in range(n) if c != j - 1])
        for r in range(n)
        if r != i - 1
    )
    return nc_row_det(BlockMatrix._of(bm.ring, bm.m, n - 1, rows))


def nc_cofactor(bm: BlockMatrix, i: int, j: int) -> Matrix:
    """Signed minor: (-1)^(i+j) times the (i, j) minor determinant.  On 1x1
    blocks the tests hold it to ``cofactor_matrix``."""
    minor = nc_minor_det(bm, i, j)
    return minor if (i + j) % 2 == 0 else -minor


def shifted_by_z(bm: BlockMatrix) -> tuple[BlockMatrix, BlockMatrix, Matrix]:
    """The objects of the induction on an integer block matrix M, by their
    definition over Z[z]: zI + M, z I added to each diagonal block; its
    tail, the lower-right (n - 1) x (n - 1) blocks; and its block
    determinant, ``nc_row_det`` of zI + M."""
    rz = PolynomialRing("z")
    z = scalar(rz, bm.m, RingValue(rz, (0, 1)))
    blocks = [[Matrix(rz, b.entries) + z if i == j else Matrix(rz, b.entries) for j, b in enumerate(row)]
              for i, row in enumerate(bm.blocks)]
    shifted = BlockMatrix(rz, bm.m, bm.n, blocks)
    tail = BlockMatrix(rz, bm.m, bm.n - 1, [row[1:] for row in blocks[1:]])
    return shifted, tail, nc_row_det(shifted)


def eliminator_det(shifted: BlockMatrix) -> RingValue:
    """det E by flattening E: the identity with its first block column
    replaced by the first-row cofactors C0..C(n-1) of ``shifted``."""
    ring, m, n = shifted.ring, shifted.m, shifted.n
    cofs = [Matrix._of(ring, rows) for rows in _det_and_cofactors(ring, m, _flat_rows(shifted))[1]]
    ident, zero = scalar(ring, m), scalar(ring, m, 0)
    rows = [[cofs[i] if j == 0 else (ident if i == j else zero) for j in range(n)] for i in range(n)]
    return det_commutative(BlockMatrix(ring, m, n, rows).flatten())


def identity_at_zero(bm: BlockMatrix) -> bool:
    """det(Det M) = det M, computed on M itself rather than on the shifted
    matrix at z = 0."""
    return check_identity(bm).equal


@cache
def trace_inputs() -> tuple[BlockMatrix, ...]:
    """64 integer block matrices for the induction trace: the 40 samples of
    ``scripts/run_verification.py`` at its default seed, the four fixed
    counterexamples, and seeds 0-4 of h1, h4, kappa (n = 3) and g5, which
    fail some of the trace's checks."""
    out = [
        gen_satisfying(cond_f(n), 2 * n, ZZ, trial_seed(PAPER_SEED, 300 + 50 * n + i))
        for n in (2, 3)
        for i in range(20)
    ]
    out += [builtin_matrix(name) for name in ("m1", "m2", "m3", "m3swapped")]
    conditions = [(cond_named("h1"), 3), (cond_named("h4"), 3), (cond_kappa(3), 3), (cond_named("g5"), 4)]
    out += [gen_satisfying(g, m, ZZ, seed) for g, m in conditions for seed in range(5)]
    return tuple(out)


@cache
def _full_parser():
    return build_parser()


def main_by_full_parser(argv: list[str]) -> int:
    """``blockdet.cli.main`` as one pass of the full parser,
    ``build_parser().parse_args(argv)``, then ``args.fn(args)`` under
    main's error handling: the exit code, with the same stdout and stderr."""
    try:
        args = _full_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return args.fn(args)
    except MatrixFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


def sample_by_randrange(g: Condition, m: int, ring: Ring, seed: int) -> tuple[BlockMatrix, random.Random, int]:
    """``gen_satisfying(g, m, ring, seed)`` with one ``rng.randrange`` call
    per drawn value: the sample, the ``Random`` after it and the number of
    samples drawn, retries included.

    The generator's name and witness pairs come from ``pick_generator``;
    the layout of each generator is restated here.  A sample is redrawn
    while every witness pair commutes, by both full products.
    """
    name, _, witnesses = pick_generator(g, m)
    head, _, arg = name.partition(":")
    n = g.n
    rng = random.Random(_mix64(seed))

    def draw():
        return rng.randrange(ring.p) if isinstance(ring, PrimeField) else rng.randrange(-3, 4)

    def diagonal(values):
        return Matrix(ring, [[v if i == j else 0 for j in range(m)] for i, v in enumerate(values)])

    def dense():
        return Matrix(ring, [[draw() for _ in range(m)] for _ in range(m)])

    def slot(corner):
        # c I, then the 2 x 2 perturbation at (corner, corner), row-major.
        c = draw()
        rows = [[c if i == j else 0 for j in range(m)] for i in range(m)]
        for i, j in ((corner, corner), (corner, corner + 1), (corner + 1, corner), (corner + 1, corner + 1)):
            rows[i][j] += draw()
        return Matrix(ring, rows)

    def poly(x):
        c0, c1, c2 = (draw() for _ in range(3))
        return scalar(ring, m, c0) + x.scale(RingValue(ring, c1)) + (x * x).scale(RingValue(ring, c2))

    def block(kind):
        return dense() if kind == "dense" else scalar(ring, m, draw()) if kind == "scalar" else slot(kind)

    layouts = {
        "f-slots": lambda i, j: "dense" if i == 1 else 2 * j - 2,
        "side-slots": lambda i, j: "dense" if (i, j) == (n, int(arg)) else 2 * i - 2,
        "down-slots": lambda i, j: 2 * j - 2,
        "h2-falsify": lambda i, j: "scalar" if (i, j) == (1, 1) else "dense",
        "h3-falsify": lambda i, j: "scalar" if (i, j) == (1, 2) else "dense",
        "generic-scalar": lambda i, j: 0 if (i, j) in witnesses[0] else "scalar",
    }

    def sample():
        if head in layouts:
            return [[block(layouts[head](i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
        if head in ("commutative", "kappa-poly"):
            x = dense()
            return [[dense() if head == "kappa-poly" and i == 0 else poly(x) for _ in range(n)] for i in range(n)]
        if head == "g5-overlap":
            a2 = draw()
            a = diagonal([a2, a2] + [draw() for _ in range(m - 2)])
            b23, b1 = draw(), draw()
            b = diagonal([b1, b23, b23] + [draw() for _ in range(m - 3)])
            return [[a, b], [slot(0), slot(1)]]
        a, b = dense(), dense()
        x, y = (b, a) if head == "h1-falsify" else (a, b)
        return [[a, b], [poly(x), poly(y)]]

    for attempt in range(1, 33):
        bm = BlockMatrix(ring, m, n, sample())
        if not witnesses or not all(
            (x := bm.block(i - 1, j - 1)) * (y := bm.block(k - 1, l - 1)) == y * x for (i, j), (k, l) in witnesses
        ):
            return bm, rng, attempt
    raise RuntimeError(f"generator {name!r} failed to produce a non-vacuous sample")
