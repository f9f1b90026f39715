"""Trace-monoid words and the symbolic ordering identities.

Words are sequences of grid positions (row, col); a commutation relation,
the same ``Condition`` graph that matrices satisfy, declares which pairs of
positions may swap when adjacent.  ``word_normal_form`` gives the
lexicographically least word of a trace class by a greedy scan.  The
tests hold it to two trace-equality tests in ``tests/oracles.py``, by
normal forms and, independently, by the projection lemma.

The column-swap, transpose and row-swap ordering identities are decided
without expanding either side or building a ``Condition``: ``_identity_holds``
maps each letter once and tests every pair of letters in different rows and
columns against the relation's pair predicate, O(n^4) pair tests instead of
n! normal forms.  The n! expansion, a dict from normal form to coefficient
(``_reindexed_det`` compared with ``symbolic_row_det``), is the oracle the
tests hold it to.
"""

from __future__ import annotations

from .conditions import Condition, kappa_pair, t_col_pair
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


def _identity_holds(n: int, commutes, letter_map, reverse: bool, sign: int) -> bool:
    """Whether _reindexed_det(n, rel, word_map) == sign * symbolic_row_det(n, rel),
    decided pair by pair instead of by n! normal forms.

    rel is the pair predicate ``commutes(a, b)``, False for a == b as in
    ``Condition.commutes``.  word_map relabels each letter by ``letter_map``
    (a column permutation tau, a row permutation sigma or the transpose),
    then with ``reverse`` reverses the word.  It sends the row-ordered word
    w_pi = ((1, pi(1)), ..., (n, pi(n))) to a reordering of the word of
    pi' = tau pi, pi sigma^-1 or pi^-1.

    - The letter set {(r, pi(r))} determines pi, and letter_map is
      injective, so no two words of either side share a letter multiset:
      nothing merges or cancels.  The sides agree iff every mapped w_pi is
      trace-equivalent to w_pi' and carries its coefficient.
    - sign(pi') / sign(pi) is the same for every pi, so the coefficients
      agree for all pi iff they agree for the identity.
    - Two words of distinct letters are trace-equivalent iff every
      non-commuting pair of letters appears in the same relative order.
      This is the projection lemma (Cartier-Foata 1969; Diekert-Rozenberg,
      *The Book of Traces*, 1995); ``trace_equal_by_projection`` in
      ``tests/oracles.py`` implements it.  In w_pi' that order is row order.
    - For n >= 2, any two letters p, q with p in a row above q and in a
      different column appear together, p first, in some w_pi.

    So the identity holds iff the sign agrees and every such pair (p, q)
    whose image is out of row order commutes.  Those pairs form the least
    relation under which the identity holds.  Two rows of letters can hold
    such a pair only when the highest image row of the one that must come
    first passes the lowest of the other, so the rest are skipped.
    """
    grid = [[letter_map((r, c)) for c in range(1, n + 1)] for r in range(1, n + 1)]
    if permutation_sign([c - 1 for _, c in sorted(grid[r][r] for r in range(n))]) != sign:
        return False
    lo = [min(row)[0] for row in grid]
    hi = [max(row)[0] for row in grid]
    for r, upper in enumerate(grid):
        for s in range(r + 1, n):
            first, second = (s, r) if reverse else (r, s)
            if hi[first] <= lo[second]:
                continue
            lower = grid[s]
            for x, p in enumerate(upper):
                for y, q in enumerate(lower):
                    a, b = (q, p) if reverse else (p, q)
                    if x != y and a[0] > b[0] and not commutes(a, b):
                        return False
    return True


def check_colswap_identity(n: int, k: int) -> bool:
    """Swapping adjacent columns k, k+1 negates the row determinant.

    Holds with no commutation at all: the swap relabels columns only, so
    every product stays ordered by row.  Decided under the empty relation.
    """
    if not (1 <= k < n <= IDENTITY_CHECK_CAP):
        raise ValueError(f"need 1 <= k < n <= {IDENTITY_CHECK_CAP}, got k={k}, n={n}")
    tau = {k: k + 1, k + 1: k}
    return _identity_holds(n, lambda a, b: False, lambda lt: (lt[0], tau.get(lt[1], lt[1])), False, -1)


def check_transpose_identity(n: int, c: int) -> bool:
    """Transposing and re-transposing preserves the row determinant.

    The expansion of the double transpose orders each product by descending
    column; it equals the row-ordered expansion under the column-c relation
    ``t_col_pair(c)``, and in general not under weaker ones.
    """
    if not (1 <= c <= n <= IDENTITY_CHECK_CAP):
        raise ValueError(f"need 1 <= c <= n <= {IDENTITY_CHECK_CAP}, got c={c}, n={n}")
    return _identity_holds(n, t_col_pair(c), lambda lt: (lt[1], lt[0]), True, 1)


def _rowswap_pair(n: int, missing_edge: tuple[Letter, Letter] | None):
    """``kappa_pair`` less the withheld pair, once that pair is range-checked."""
    if missing_edge is None:
        return kappa_pair
    a, b = (tuple(lt) for lt in missing_edge)
    if a[0] < 2 or b[0] < 2:
        raise ValueError("withheld pair must lie outside row 1")
    if a == b or not all(len(lt) == 2 and lt[0] <= n and 1 <= lt[1] <= n for lt in (a, b)):
        raise ValueError(f"{missing_edge} is not a pair of distinct positions outside row 1")
    withheld = {(a, b), (b, a)}
    return lambda u, v: kappa_pair(u, v) and (u, v) not in withheld


def check_rowswap_identity(n: int, i: int, j: int, missing_edge: tuple[Letter, Letter] | None = None) -> bool:
    """Swapping rows i and j negates the row determinant, under the relation
    where all pairs of positions outside row 1 commute except one withheld
    pair (``_rowswap_pair``).

    True whenever the withheld pair shares a row or a column (the two
    letters never meet in one monomial), or when the swap preserves the
    relative order of the withheld pair's rows.  Returns the honest truth
    of the identity either way, decided by ``_identity_holds``.
    """
    if not (2 <= i < j <= n <= IDENTITY_CHECK_CAP):
        raise ValueError(f"need 2 <= i < j <= n <= {IDENTITY_CHECK_CAP}, got i={i}, j={j}, n={n}")
    commutes, sigma = _rowswap_pair(n, missing_edge), {i: j, j: i}
    return _identity_holds(n, commutes, lambda lt: (sigma.get(lt[0], lt[0]), lt[1]), False, -1)
