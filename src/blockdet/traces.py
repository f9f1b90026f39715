"""Trace-monoid words and the symbolic ordering identities.

Words are sequences of grid positions (row, col); a commutation relation,
the same ``Condition`` graph that matrices satisfy, declares which pairs of
positions may swap when adjacent.  ``word_normal_form`` gives the
lexicographically least word of a trace class by a greedy scan, and
``trace_equal_by_projection`` decides trace equality independently of it.

The column-swap, transpose and row-swap ordering identities are decided
without expanding either side: ``_identity_holds`` applies the identity's
word map to every pair of letters in different rows and columns, O(n^4)
pair tests instead of n! normal forms.  The n! expansion, a dict from
normal form to coefficient (``_reindexed_det`` compared with
``symbolic_row_det``), is the oracle the tests hold it to.
"""

from __future__ import annotations

from itertools import combinations

from .conditions import Condition, cond_kappa, cond_minus_edge, cond_t_col, empty_condition, vertices
from .matrix import permutation_sign, signed_permutations

Letter = tuple[int, int]
Word = tuple[Letter, ...]

SYMBOLIC_DET_CAP = 6
IDENTITY_CHECK_CAP = 24


def _check_word(word: Word, rel: Condition) -> None:
    for r, c in word:
        if not (1 <= r <= rel.n and 1 <= c <= rel.n):
            raise ValueError(f"letter {(r, c)} out of range for size {rel.n}")


def word_normal_form(word: Word, rel: Condition) -> Word:
    """Lexicographically least representative of the word's trace class.

    Greedy: repeatedly emit the least letter that commutes with everything
    before it, the first of equal letters on a tie.  Idempotent and
    length-preserving; a letter never passes an equal one.
    """
    _check_word(word, rel)
    letters = list(word)
    out: list[Letter] = []
    while letters:
        best = 0
        for idx in range(1, len(letters)):
            lt = letters[idx]
            # the order test is cheap, so it goes before the commutation scan
            if lt < letters[best] and all(rel.commutes(lt, prev) for prev in letters[:idx]):
                best = idx
        out.append(letters.pop(best))
    return tuple(out)


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


def _reindexed_det(n: int, rel: Condition, word_map) -> dict[Word, int]:
    """Sum of sign(pi) * word_map(w_pi) over the row-ordered words w_pi, as
    a dict from normal form to its nonzero coefficient.

    Terms that share a normal form are summed and zero sums dropped, so the
    result is right for any word map, injective or not.
    """
    terms: dict[Word, int] = {}
    for perm, sign in signed_permutations(n):
        key = word_normal_form(word_map(tuple((r + 1, perm[r] + 1) for r in range(n))), rel)
        terms[key] = terms.get(key, 0) + sign
    return {w: c for w, c in terms.items() if c}


def symbolic_row_det(n: int, rel: Condition) -> dict[Word, int]:
    """Row-ordered determinant of the generic n x n matrix of positions."""
    if n > SYMBOLIC_DET_CAP:
        raise ValueError(f"symbolic determinant capped at n={SYMBOLIC_DET_CAP}")
    if rel.n != n:
        raise ValueError(f"relation size {rel.n} does not match n={n}")
    return _reindexed_det(n, rel, lambda word: word)


def _identity_holds(n: int, rel: Condition, word_map, sign: int) -> bool:
    """Whether _reindexed_det(n, rel, word_map) == sign * symbolic_row_det(n, rel),
    decided pair by pair instead of by n! normal forms.

    w_pi is the row-ordered word ((1, pi(1)), ..., (n, pi(n))).  word_map
    relabels the letters by a column permutation tau, a row permutation
    sigma or the transpose, the last followed by a reversal of the word, so
    it sends w_pi to a reordering of the word of pi' = tau pi, pi sigma^-1
    or pi^-1.

    - The letter set {(r, pi(r))} determines pi, and word_map is injective
      on letters, so no two words of either side share a letter multiset:
      nothing merges or cancels.  The sides agree iff every mapped w_pi is
      trace-equivalent to w_pi' and carries its coefficient.
    - sign(pi') / sign(pi) is the same for every pi, so the coefficients
      agree for all pi iff they agree for the identity.
    - Two words of distinct letters are trace-equivalent iff every
      non-commuting pair of letters appears in the same relative order.
      This is the projection lemma (Cartier-Foata 1969; Diekert-Rozenberg,
      *The Book of Traces*, 1995); ``trace_equal_by_projection`` implements
      it.  In w_pi' that order is row order.
    - For n >= 2, any two letters p, q with p in a row above q and in a
      different column appear together, p first, in some w_pi.

    So the identity holds iff the sign agrees and every such pair (p, q)
    whose image word_map((p, q)) is out of row order commutes under rel.
    Those pairs form the least relation under which the identity holds.
    """
    image = word_map(tuple((r, r) for r in range(1, n + 1)))
    if permutation_sign([c for _, c in sorted(image)]) != sign:
        return False
    for p, q in combinations(vertices(n), 2):
        if p[0] < q[0] and p[1] != q[1]:
            a, b = word_map((p, q))
            if a[0] > b[0] and not rel.commutes(a, b):
                return False
    return True


def check_colswap_identity(n: int, k: int) -> bool:
    """Swapping adjacent columns k, k+1 negates the row determinant.

    Holds with no commutation at all: the swap relabels columns only, so
    every product stays ordered by row and no pair needs to commute.
    Decided under the empty relation by ``_identity_holds``.
    """
    if not (1 <= k < n <= IDENTITY_CHECK_CAP):
        raise ValueError(f"need 1 <= k < n <= {IDENTITY_CHECK_CAP}, got k={k}, n={n}")
    tau = {k: k + 1, k + 1: k}
    return _identity_holds(
        n, empty_condition(n), lambda word: tuple((r, tau.get(c, c)) for r, c in word), -1
    )


def check_transpose_identity(n: int, c: int) -> bool:
    """Transposing and re-transposing preserves the row determinant.

    The expansion of the double transpose orders each product by descending
    column; it must equal the row-ordered expansion under the column-c
    compatibility relation.  False under weaker relations in general.
    Decided by ``_identity_holds``.
    """
    if not (1 <= c <= n <= IDENTITY_CHECK_CAP):
        raise ValueError(f"need 1 <= c <= n <= {IDENTITY_CHECK_CAP}, got c={c}, n={n}")
    return _identity_holds(
        n, cond_t_col(c, n), lambda word: tuple((col, r) for r, col in reversed(word)), 1
    )


def check_rowswap_identity(
    n: int, i: int, j: int, missing_edge: tuple[Letter, Letter] | None = None
) -> bool:
    """Swapping rows i and j negates the row determinant, under the relation
    where all pairs of positions outside row 1 commute except one withheld
    pair.

    True whenever the withheld pair shares a row or a column (the two
    letters never meet in one monomial), or when the swap preserves the
    relative order of the withheld pair's rows.  Returns the honest truth
    of the identity either way, decided by ``_identity_holds``.
    """
    if not (2 <= i < j <= n <= IDENTITY_CHECK_CAP):
        raise ValueError(f"need 2 <= i < j <= n <= {IDENTITY_CHECK_CAP}, got i={i}, j={j}, n={n}")
    rel = cond_kappa(n)
    if missing_edge is not None:
        a, b = (tuple(lt) for lt in missing_edge)
        if a[0] < 2 or b[0] < 2:
            raise ValueError("withheld pair must lie outside row 1")
        if not rel.commutes(a, b):
            raise ValueError(f"{missing_edge} is not a pair of distinct positions outside row 1")
        rel = cond_minus_edge(rel, (a, b))
    sigma = {i: j, j: i}
    return _identity_holds(n, rel, lambda word: tuple((sigma.get(r, r), c) for r, c in word), -1)
