"""Randomized and deterministic verification of the determinant identity.

Generators produce block matrices satisfying a target commutativity
condition while keeping at least one permitted pair genuinely
noncommuting, campaigns run the identity check over many seeded samples,
and the deterministic counterexamples certify which size-2 conditions
fail.  All randomness flows from one 64-bit seed through splitmix64-derived
sub-seeds feeding Python's Mersenne Twister, so every report is
reproducible bit for bit.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import chain, combinations, repeat
from typing import Callable, NamedTuple

from .conditions import (
    Condition,
    cond_f,
    cond_f_down,
    cond_f_side,
    cond_kappa,
    cond_minus_edge,
    cond_named,
    is_subgraph,
    matrix_satisfies,
    size2_condition,
    vertices,
)
from .matrix import BlockMatrix, Matrix, _row_ops, commutes, det_commutative
from .ncdet import BLOCK_SIZE_CAP, check_row_det_size, nc_row_det
from .ring import ZZ, PolynomialRing, PrimeField, Ring, RingValue

# Default seed of the scan and the verification report; the scan's trials.
PAPER_SEED = 20161004
SCAN_TRIALS = 60

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    x &= _MASK
    x ^= x >> 30
    x = x * 0xBF58476D1CE4E5B9 & _MASK
    x ^= x >> 27
    x = x * 0x94D049BB133111EB & _MASK
    x ^= x >> 31
    return x


def trial_seed(seed: int, index: int) -> int:
    """Sub-seed for one trial: the splitmix64 stream at position index."""
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK)


# --- random building blocks -------------------------------------------------
#
# Every random entry comes from ``_draws``: over mod:p the values of
# rng.randrange(p), otherwise those of rng.randrange(-3, 4), in the same
# order and from the same generator state, so the samples are the ones
# those calls gave.  The builders below make payload rows directly from
# consecutive drawn values, with no ``RingValue`` and no matrix arithmetic
# except the square of a polynomial's source block.  A scalar block is
# interned by value (``_scalar_block``), so the blocks a draw repeats are
# one object, built and shifted once.  A polynomial c0 I + c1 x + c2 x^2 in
# a block x is built in one pass over the payload rows of x and x^2,
# reduced once per entry as ``matrix._product_rows`` does.

def _draws(ring: Ring, rng: random.Random, count: int) -> list[int]:
    """count draws: what count calls of rng.randrange(p) give over mod:p,
    and of rng.randrange(-3, 4) over the other rings.

    This is CPython's own rule for randrange(n) (``Random._randbelow``):
    k = n.bit_length(), then r = getrandbits(k), redrawn while r >= n.
    """
    n, offset = (ring.p, 0) if isinstance(ring, PrimeField) else (7, -3)
    k = n.bit_length()
    getrandbits = rng.getrandbits
    out = []
    append = out.append
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        append(r + offset)
    return out


def _dense(ring: Ring, m: int, values) -> Matrix:
    """The m x m block whose entries are the m^2 drawn values, row-major."""
    # A draw over mod:p or int is its own payload.
    if isinstance(ring, PolynomialRing):
        values = list(map(ring.int_payload, values))
    return Matrix._of(ring, tuple(tuple(values[i : i + m]) for i in range(0, m * m, m)))


def _diag_rows(ring: Ring, values) -> list[tuple]:
    """Payload rows of the diagonal matrix with the int entries values."""
    zero_row = (ring.int_payload(0),) * len(values)
    return [zero_row[:i] + (ring.int_payload(v),) + zero_row[i + 1 :] for i, v in enumerate(values)]


@lru_cache(maxsize=64)
def _scalar_block(ring: Ring, m: int, c: int) -> Matrix:
    """The m x m block c I over ring for the drawn value c, interned by
    value: one object per (ring, m, c) while it stays cached.

    Sharing is sound because a ``Matrix`` is immutable and what it keeps
    in its instance dict, its shifted rows, derives from its entries; what
    belongs to one sample, its flat rows, stays on the ``BlockMatrix``.  So
    ``matrix_satisfies`` and the witness test shift each cached scalar once
    per process, not once per sample.  Over ``int`` and ``poly:`` a draw
    takes 7 values, so 64 entries hold them for several (ring, m) pairs.
    At worst, over a large p at m = 64, where the cache rarely hits, the 64
    blocks hold about 2.5 MB of row tuples (``tracemalloc``).
    """
    return Matrix._of(ring, tuple(_diag_rows(ring, [c] * m)))


def _slot(ring: Ring, m: int, values, corner: int) -> Matrix:
    """Scalar plus a 2x2 perturbation on the diagonal at 0-based indices
    corner and corner + 1, from the five drawn values c, a, b, d, e: the
    scalar c, then the perturbation [[a, b], [d, e]] row-major.

    Perturbations in disjoint slots multiply to zero both ways, so such
    blocks commute across slots; blocks sharing a slot generically do not.
    """
    c, a, b, d, e = values
    payload = ring.int_payload
    rows = _diag_rows(ring, [c] * m)
    left, right = rows[corner][:corner], rows[corner][corner + 2 :]
    rows[corner] = left + (payload(c + a), payload(b)) + right
    rows[corner + 1] = left + (payload(d), payload(c + e)) + right
    return Matrix._of(ring, tuple(rows))


def _poly_in(x: Matrix, coeffs, powers) -> Matrix:
    """The sum of the int coeffs[i] times x^i, in one pass over ``powers``,
    the payload rows of x, x^2, ..., x^d for d = len(coeffs) - 1."""
    ring, m = x.ring, x.rows
    add, mul, p = _row_ops(ring)
    c0, *cs = map(ring.int_payload, coeffs)
    terms = [(c, power) for c, power in zip(cs, powers) if c]
    zero_row = [ring.int_payload(0)] * m
    rows = []
    for i in range(m):
        acc = zero_row
        for c, power in terms:
            acc = list(map(add, acc, map(mul, repeat(c), power[i])))
        acc = acc[:i] + [add(acc[i], c0)] + acc[i + 1 :]
        rows.append(tuple(acc) if p is None else tuple([v % p for v in acc]))
    return Matrix._of(ring, tuple(rows))


# --- generators ----------------------------------------------------------------
#
# A generator maps (ring, rng) to a sample.  ``pick_generator`` returns it
# with its witness pairs: non-edges of the condition that are expected to be
# genuinely noncommuting; the caller redraws on the rare degenerate draw
# where all of them commute.  Every generator is a ``_gen_layout``: a kind
# per block, and one ``_draws`` call per sample whose values the blocks take
# in row-major block order.

Pair = tuple[tuple[int, int], tuple[int, int]]
GenFn = Callable[[Ring, random.Random], BlockMatrix]
Generator = tuple[str, GenFn, list[Pair]]


def _gen_layout(n: int, m: int, kind) -> GenFn:
    """Samples whose block at 1-based (i, j) is built as kind(i, j) says:

    - ``"dense"``: its m^2 values, row-major;
    - ``"scalar"``: c I from 1 value (``_scalar_block``);
    - an int k: a slot block at 0-based corner k from 5 values (``_slot``);
    - ``("tie", k)``: a diagonal block whose entries k and k + 1 are equal,
      from m - 1 values: the tied value first, then the other diagonal
      entries in order;
    - ``("poly", src)``: c0 I + c1 x + c2 x^2 from 3 values, where x is the
      block at 1-based src, earlier in row-major order, or, for src None, a
      dense block the sample does not hold, whose m^2 values come first.

    The blocks take consecutive values in row-major order; their offsets,
    and so the count of values one ``_draws`` call takes per sample, are
    fixed once per campaign.  Each sample squares each source block once.
    """
    mm = m * m
    sizes = {"dense": mm, "scalar": 1, "tie": m - 1, "poly": 3}
    kinds = [kind(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    count = mm if ("poly", None) in kinds else 0
    cells = []
    for k in kinds:
        cells.append((k, count))
        count += sizes.get(k[0] if isinstance(k, tuple) else k, 5)

    def fn(ring: Ring, rng: random.Random):
        values = _draws(ring, rng, count)
        built = []
        sources = {}

        def block(k, at):
            if k == "scalar":
                return _scalar_block(ring, m, values[at])
            if k == "dense":
                return _dense(ring, m, values[at : at + mm])
            if isinstance(k, int):
                return _slot(ring, m, values[at : at + 5], k)
            tag, arg = k
            if tag == "tie":
                tied, *rest = values[at : at + m - 1]
                return Matrix._of(ring, tuple(_diag_rows(ring, [*rest[:arg], tied, tied, *rest[arg:]])))
            if arg not in sources:
                x = _dense(ring, m, values[:mm]) if arg is None else built[(arg[0] - 1) * n + arg[1] - 1]
                sources[arg] = x, (x.entries, (x * x).entries)
            x, powers = sources[arg]
            return _poly_in(x, values[at : at + 3], powers)

        for k, at in cells:
            built.append(block(k, at))
        blocks = tuple(tuple(built[s : s + n]) for s in range(0, n * n, n))
        return BlockMatrix._of(ring, m, n, blocks)

    return fn


# The size-2 generators by condition: a name and the kinds of A, B, C, D.
# g5: A scalar on indices {1,2}, B scalar on {2,3}; C and D carry
# perturbations supported there, overlapping at index 2, so AB, AC and BD
# commute while C and D generically do not.  h1, h4: A and B dense; C and D
# polynomials in B and A (h1) or in A and B (h4).
_SIZE2_LAYOUTS = {
    "g5": ("g5-overlap", (("tie", 0), ("tie", 1), 0, 1)),
    "h2": ("h2-falsify", ("scalar", "dense", "dense", "dense")),
    "h3": ("h3-falsify", ("dense", "scalar", "dense", "dense")),
    "h1": ("h1-falsify", ("dense", "dense", ("poly", (1, 2)), ("poly", (1, 1)))),
    "h4": ("h4-falsify", ("dense", "dense", ("poly", (1, 1)), ("poly", (1, 2)))),
}


def _special_non_edge(g: Condition) -> Pair:
    """The first non-edge in lexicographic order with both rows >= 2, or
    else the first non-edge; g must not be complete."""
    every = vertices(g.n)
    lower = [v for v in every if v[0] >= 2]
    pairs = chain(combinations(lower, 2), combinations(every, 2))
    return next((u, v) for u, v in pairs if not g.commutes(u, v))


def pick_generator(g: Condition, m: int) -> Generator:
    """The most specific sound generator for g, as a name, a ``_gen_layout``
    and its witness pairs: polynomials in one hidden block for complete and
    kappa, slot blocks for f, side and down at m >= 2n, the size-2 layouts
    for g5 (m >= 4) and h1..h4, else scalar blocks with one shared slot."""
    n = g.n
    span = range(1, n + 1)
    # Condition orders and range-checks its edges, so only the complete
    # graph has all n^2 (n^2 - 1) / 2 of them.
    if len(g.edges) == n * n * (n * n - 1) // 2:
        return "commutative", _gen_layout(n, m, lambda i, j: ("poly", None)), []
    if m >= 2 * n:
        # Slot blocks in different slots commute; f and down put each
        # column's blocks in one slot, side each row's.  f's first block
        # row and side's block (n, c) are dense.
        if g == cond_f(n):
            witnesses = [((1, j), (2, j)) for j in span] + [((2, j), (i, j)) for j in span for i in span[2:]]
            return "f-slots", _gen_layout(n, m, lambda i, j: "dense" if i == 1 else 2 * j - 2), witnesses
        for c in span:
            if g == cond_f_side(c, n):
                witnesses = [((i, c), (i, j)) for i in span for j in span if j != c]
                return f"side-slots:{c}", _gen_layout(
                    n, m, lambda i, j: "dense" if (i, j) == (n, c) else 2 * i - 2), witnesses
        for r in span:
            if g == cond_f_down(r, n):
                witnesses = [((i, j), (i + 1, j)) for j in span for i in span[:-1]]
                return f"down-slots:{r}", _gen_layout(n, m, lambda i, j: 2 * j - 2), witnesses
    if g == cond_kappa(n):
        return "kappa-poly", _gen_layout(
            n, m, lambda i, j: "dense" if i == 1 else ("poly", None)), [((1, 1), (2, 1))]
    if n == 2:
        for name, (label, kinds) in _SIZE2_LAYOUTS.items():
            if (name != "g5" or m >= 4) and g == cond_named(name):
                return label, _gen_layout(2, m, lambda i, j: kinds[2 * i + j - 3]), [((2, 1), (2, 2))]
    # Scalar blocks commute with everything; the special non-edge pair gets
    # perturbations in a shared slot so the sample is not fully commutative.
    special = _special_non_edge(g)
    return "generic-scalar", _gen_layout(n, m, lambda i, j: 0 if (i, j) in special else "scalar"), [special]


_RETRY_CAP = 32


def _check_block_size(m: int) -> None:
    if m < 2:
        raise ValueError("block size must be at least 2")
    if m > BLOCK_SIZE_CAP:
        raise ValueError(f"block size m={m} exceeds the cap {BLOCK_SIZE_CAP}")


def gen_satisfying(g: Condition, m: int, ring: Ring, seed: int) -> BlockMatrix:
    """Deterministic sample satisfying the condition, non-vacuously.

    Satisfaction is structural and asserted on every sample; the generator
    redraws (bounded, seed-driven) only when its intended noncommuting
    witness pair degenerates.
    """
    _check_block_size(m)
    return _draw_satisfying(g, pick_generator(g, m), ring, seed)


def _draw_satisfying(g: Condition, generator: Generator, ring: Ring, seed: int) -> BlockMatrix:
    """``gen_satisfying`` with the generator for g already picked, so a
    campaign looks it up once rather than once per trial."""
    name, fn, witnesses = generator
    rng = random.Random(_mix64(seed))
    for _ in range(_RETRY_CAP):
        bm = fn(ring, rng)
        if not matrix_satisfies(bm, g):
            raise RuntimeError(f"generator {name!r} produced a non-satisfying sample")
        if not witnesses or not all(
            commutes(bm.block(i - 1, j - 1), bm.block(k - 1, l - 1)) for (i, j), (k, l) in witnesses
        ):
            return bm
    raise RuntimeError(f"generator {name!r} failed to produce a non-vacuous sample")


# --- identity check and campaigns --------------------------------------------

class IdentityCheck(NamedTuple):
    lhs: RingValue
    rhs: RingValue
    equal: bool


def check_identity(bm: BlockMatrix) -> IdentityCheck:
    """Compare det(Det M) with det of the flattened matrix, exactly."""
    lhs = det_commutative(nc_row_det(bm))
    rhs = det_commutative(bm.flatten())
    return IdentityCheck(lhs, rhs, lhs == rhs)


class FailureCase(NamedTuple):
    trial: int
    matrix: BlockMatrix
    lhs: RingValue
    rhs: RingValue


class VerificationReport(NamedTuple):
    condition_id: str
    condition: Condition
    trials: int
    failures: int
    seed: int
    generator: str
    first_failure: FailureCase | None

    def summary_line(self) -> str:
        return (
            f"condition={self.condition_id} trials={self.trials} "
            f"failures={self.failures} seed={self.seed}"
        )


def _run_trials(trials: int, seed: int, trial, **fields) -> VerificationReport:
    """Run trial(sub_seed) -> (matrix, lhs, rhs) for every trial index and
    report the failures (lhs != rhs) and the first of them; a report needs
    at least one trial behind it."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    failures = 0
    first: FailureCase | None = None
    for i in range(trials):
        bm, lhs, rhs = trial(trial_seed(seed, i))
        if lhs != rhs:
            failures += 1
            if first is None:
                first = FailureCase(trial=i, matrix=bm, lhs=lhs, rhs=rhs)
    return VerificationReport(trials=trials, failures=failures, seed=seed, first_failure=first, **fields)


def run_campaign(
    g: Condition,
    m: int,
    ring: Ring,
    trials: int,
    seed: int,
    condition_id: str = "custom",
) -> VerificationReport:
    """Run the identity check over seeded samples satisfying the condition."""
    _check_block_size(m)
    check_row_det_size(g.n)
    generator = pick_generator(g, m)

    def trial(sub_seed: int):
        bm = _draw_satisfying(g, generator, ring, sub_seed)
        result = check_identity(bm)
        return bm, result.lhs, result.rhs

    return _run_trials(trials, seed, trial, condition_id=condition_id, condition=g, generator=generator[0])


# --- deterministic counterexamples -------------------------------------------

# The fixed counterexamples over Z, as block rows of the named integer blocks.
_BLOCKS = {
    "a": [[1, 2], [3, 4]],
    "b": [[5, 6], [7, 8]],
    "c": [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
    "d": [[1, 2, 0], [3, 4, 0], [0, 0, 5]],
    "e": [[6, 7, 0], [8, 9, 0], [0, 0, 10]],
    "f": [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
}
_FIXED_BUILTINS = {"m1": ("ab", "ba"), "m2": ("ab", "ab"), "m3": ("cd", "ef"), "m3swapped": ("dc", "fe")}
# classify_size2 offers the falsifiers in this order.
_H_TO_MATRIX = {"h1": "m1", "h4": "m2", "h2": "m3", "h3": "m3swapped"}
# The optimality witnesses over Z[a]: the 2x2 blocks of each by 0-based
# position; the least n is the number of block rows they fill, and I fills
# the rest of the diagonal.  same_row satisfies kappa less ((2,1),(2,2)),
# diff_row kappa less ((2,1),(3,2)); in both the flattened determinant is
# constant in a while the determinant of the block determinant is not.
_WITNESS_PLACEMENTS = {
    "same_row": (2, {(0, 0): "k", (0, 1): "l", (1, 0): "a", (1, 1): "b"}),
    "diff_row": (3, {(0, 0): "k", (0, 1): "l", (1, 0): "a", (1, 2): "I", (2, 1): "b", (2, 2): "I"}),
}


def _witness_matrix(case: str, n: int) -> BlockMatrix:
    check_row_det_size(n)
    least, placed = _WITNESS_PLACEMENTS[case]
    if n < least:
        raise ValueError(f"{case} witness needs n >= {least}")
    ring = PolynomialRing("a")
    named = {"k": [[1, 0], [0, 0]], "l": [[0, 0], [1, 0]], "a": [[(0, 1), 0], [0, 0]],
             "b": [[0, 1], [0, 0]], "I": [[1, 0], [0, 1]], "0": [[0, 0], [0, 0]]}
    blocks = {name: Matrix(ring, rows) for name, rows in named.items()}
    return BlockMatrix(ring, 2, n, [
        [blocks[placed.get((i, j), "I" if i == j >= least else "0")] for j in range(n)] for i in range(n)
    ])


def builtin_matrix(name: str, n: int | None = None) -> BlockMatrix:
    """Built-in matrices by name: m1, m2, m3, m3swapped, h1..h4,
    same_row (optimality witness, default n=2), diff_row (default n=3)."""
    key = name.lower().replace("-", "_")
    key = _H_TO_MATRIX.get(key, key)
    if key in _WITNESS_PLACEMENTS:
        return _witness_matrix(key, _WITNESS_PLACEMENTS[key][0] if n is None else n)
    if key not in _FIXED_BUILTINS:
        raise ValueError(f"unknown built-in matrix {name!r}")
    if n is not None:
        raise ValueError(f"built-in matrix {name!r} takes no size, got n={n}")
    blocks = [[Matrix(ZZ, _BLOCKS[b]) for b in brow] for brow in _FIXED_BUILTINS[key]]
    return BlockMatrix(ZZ, blocks[0][0].rows, len(blocks), blocks)


BUILTIN_NAMES = (*_FIXED_BUILTINS, *sorted(_H_TO_MATRIX), *_WITNESS_PLACEMENTS)


# --- classification of all size-2 conditions ----------------------------------

_EDGE_ORDER = ("AB", "AC", "AD", "BC", "BD", "CD")


class GraphRecord(NamedTuple):
    labels: tuple[str, ...]
    condition: Condition
    is_scc: bool
    witness: str | None
    falsifier: str | None
    lhs: RingValue | None
    rhs: RingValue | None

    def line(self) -> str:
        edges = "{" + ",".join(self.labels) + "}"
        if self.is_scc:
            return f"edges={edges} SCC witness={self.witness}"
        return (
            f"edges={edges} NOT-SCC falsifier={self.falsifier} "
            f"lhs={self.lhs} rhs={self.rhs}"
        )


def classify_size2() -> tuple[GraphRecord, ...]:
    """Label all 64 graphs on the 2x2 grid, one record each.

    A graph is sufficient exactly when it contains one of g1..g5; every
    other graph is certified insufficient by a deterministic matrix that
    satisfies it yet breaks the identity.  Both facts are asserted here,
    not assumed.
    """
    minimal = [(f"G{k}", cond_named(f"g{k}")) for k in range(1, 6)]
    falsifier_pool = []
    for h_name, mat_name in _H_TO_MATRIX.items():
        mat = builtin_matrix(mat_name)
        result = check_identity(mat)
        if result.equal:
            raise RuntimeError(f"builtin {mat_name} unexpectedly satisfies the identity")
        falsifier_pool.append((cond_named(h_name), mat_name.upper(), mat, result))

    records = []
    for mask in range(64):
        labels = tuple(lbl for b, lbl in enumerate(_EDGE_ORDER) if mask >> b & 1)
        cond = size2_condition(labels)
        witness = next((nm for nm, g in minimal if is_subgraph(g, cond)), None)
        if witness is not None:
            records.append(GraphRecord(labels, cond, True, witness, None, None, None))
            continue
        for h_cond, mat_label, mat, result in falsifier_pool:
            if is_subgraph(cond, h_cond):
                if not matrix_satisfies(mat, cond):
                    raise RuntimeError(f"falsifier {mat_label} does not satisfy {labels}")
                records.append(
                    GraphRecord(labels, cond, False, None, mat_label, result.lhs, result.rhs)
                )
                break
        else:
            raise RuntimeError(f"graph {labels} contains no minimal witness and fits no falsifier")
    return tuple(records)


# --- two-block determinant identities -----------------------------------------

# variant -> (hypothesis edge, (source, target), combination): under the
# hypothesis the target block is a polynomial in the source block, and
# det M = det(combination(A, B, C, D)).
_SILVESTER = {
    "a": ("AC", (0, 2), lambda a, b, c, d: a * d - c * b),
    "b": ("BD", (1, 3), lambda a, b, c, d: d * a - b * c),
    "c": ("AB", (0, 1), lambda a, b, c, d: d * a - c * b),
}


def silvester_check(
    variant: str,
    m: int,
    ring: Ring,
    trials: int,
    seed: int,
    enforce_hypothesis: bool = True,
) -> VerificationReport:
    """Check one of the classical two-block determinant formulas.

    Variant a: if AC=CA then det M = det(AD-CB); b: if BD=DB then
    det M = det(DA-BC); c: if AB=BA then det M = det(DA-CB).  With
    ``enforce_hypothesis=False`` all blocks are independent, which is the
    negative control: failures are expected.
    """
    _check_block_size(m)
    v = variant.lower()
    if v not in _SILVESTER:
        raise ValueError(f"variant must be one of a, b, c, got {variant!r}")
    edge, (source, target), combination = _SILVESTER[v]
    cond = size2_condition((edge,))

    def trial(sub_seed: int):
        mm = m * m
        values = _draws(ring, random.Random(_mix64(sub_seed)), 4 * mm + 3 * enforce_hypothesis)
        blocks = [_dense(ring, m, values[s : s + mm]) for s in range(0, 4 * mm, mm)]
        if enforce_hypothesis:
            x = blocks[source]
            blocks[target] = _poly_in(x, values[4 * mm :], (x.entries, (x * x).entries))
        bm = BlockMatrix(ring, m, 2, [blocks[:2], blocks[2:]])
        if enforce_hypothesis and not matrix_satisfies(bm, cond):
            raise RuntimeError("hypothesis generator broke its own constraint")
        return bm, det_commutative(bm.flatten()), det_commutative(combination(*blocks))

    tag = "" if enforce_hypothesis else ":control"
    return _run_trials(
        trials, seed, trial, condition_id=f"silvester:{v}{tag}", condition=cond,
        generator="silvester" + ("" if enforce_hypothesis else "-control"),
    )


# --- optimality of the row-one-free family ------------------------------------

class EdgeCaseRecord(NamedTuple):
    edge: tuple[tuple[int, int], tuple[int, int]]
    case: str
    mapped_matches_canonical: bool
    witness_satisfies: bool
    degree_dichotomy: bool
    identity_fails: bool

    @property
    def ok(self) -> bool:
        return (
            self.mapped_matches_canonical
            and self.witness_satisfies
            and self.degree_dichotomy
            and self.identity_fails
        )

    def line(self) -> str:
        (i, j), (k, l) = self.edge
        status = "OK" if self.ok else "FAIL"
        return f"edge=({i},{j})-({k},{l}) case={self.case} {status}"


class OptimalityScanReport(NamedTuple):
    edge_cases: tuple[EdgeCaseRecord, ...]
    campaigns: tuple[VerificationReport, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.edge_cases) and all(c.failures == 0 for c in self.campaigns)


CANONICAL_SAME_ROW = ((2, 1), (2, 2))
CANONICAL_DIFF_ROW = ((2, 1), (3, 2))


def _from_mapping(n: int, mapping: dict[int, int]) -> tuple[int, ...]:
    # Images of 1..n: mapping[i] where given; the other labels take the
    # targets that mapping leaves free, in increasing order.
    free = iter(t for t in range(1, n + 1) if t not in mapping.values())
    return tuple(mapping[i] if i in mapping else next(free) for i in range(1, n + 1))


def _edge_maps(n: int, edge):
    """The witness case of an edge of the row-one-free family, its canonical
    edge, and the row and column maps, as tuples of 1-based images, that
    send the edge onto the canonical one.  A diff_row edge joins two rows
    below row 1, so n >= 3 there."""
    (r1, c1), (r2, c2) = edge
    col_map = _from_mapping(n, {c1: 1, c2: 2})
    if r1 == r2:
        return "same_row", CANONICAL_SAME_ROW, _from_mapping(n, {r1: 2}), col_map
    return "diff_row", CANONICAL_DIFF_ROW, _from_mapping(n, {r1: 2, r2: 3}), col_map


def _maps_onto(edge, canonical, row_map, col_map) -> bool:
    """Whether the maps send kappa less edge onto kappa less canonical.

    kappa is the complete graph on the positions outside row 1, so a row
    map that fixes row 1 sends kappa onto itself, and so does every column
    map; kappa less edge then goes onto kappa less canonical exactly when
    edge goes onto canonical.
    """
    image = tuple(sorted((row_map[r - 1], col_map[c - 1]) for r, c in edge))
    return row_map[0] == 1 and image == canonical


def optimality_scan(
    n: int,
    campaign_trials: int = SCAN_TRIALS,
    seed: int = PAPER_SEED,
) -> OptimalityScanReport:
    """Check minimality of the row-one-free family at size n, for
    2 <= n <= ROW_DET_CAP.

    Every edge of the family, once removed from the ambient complete graph
    on rows 2..n, maps by row/column relabeling onto one of two canonical
    withheld edges, and the corresponding built-in witness breaks the
    identity there, by ``check_identity``, once per case.  The maps fix
    kappa, so each edge is checked by its image alone; the tests relabel
    the whole graph as the oracle.  Sampled supergraphs pass campaigns.
    """
    if n < 2:
        raise ValueError(f"the optimality scan needs n >= 2, got n={n}")
    check_row_det_size(n)
    ring = PrimeField(10007)
    kappa = cond_kappa(n)
    fam = cond_f(n)

    # Per case, the witness's three verdicts, in the record's field order:
    # it satisfies kappa less the canonical edge, det(Det M) has degree >= 1
    # in a while det M is constant, and so the identity fails.
    verdicts = {}
    records = []
    for edge in sorted(fam.edges):
        case, canonical, row_map, col_map = _edge_maps(n, edge)
        if case not in verdicts:
            witness = builtin_matrix(case, n)
            result = check_identity(witness)
            verdicts[case] = (
                matrix_satisfies(witness, cond_minus_edge(kappa, canonical)),
                len(result.lhs.payload) > 1 and len(result.rhs.payload) <= 1,
                not result.equal,
            )
        mapped = _maps_onto(edge, canonical, row_map, col_map)
        records.append(EdgeCaseRecord(edge, case, mapped, *verdicts[case]))

    campaigns = [
        run_campaign(fam, 2 * n, ring, campaign_trials, trial_seed(seed, 1), condition_id="f"),
        run_campaign(kappa, 4, ring, campaign_trials, trial_seed(seed, 2), condition_id="kappa"),
    ]
    extra = sorted(kappa.edges - fam.edges)
    rng = random.Random(_mix64(seed))
    for idx in range(2):
        if not extra:
            break
        chosen = rng.sample(extra, k=max(1, len(extra) // 2))
        g = Condition._of(n, fam.edges | frozenset(chosen))
        campaigns.append(
            run_campaign(g, 4, ring, campaign_trials, trial_seed(seed, 3 + idx),
                         condition_id=f"f-super:{idx}")
        )
    return OptimalityScanReport(edge_cases=tuple(records), campaigns=tuple(campaigns))
