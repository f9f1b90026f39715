"""Commutativity conditions: graphs on the n x n grid of matrix positions.

A block matrix satisfies a condition when every edge of the condition joins
a pair of commuting blocks (labeled containment on the fixed vertex set,
not isomorphism).  All the named families, the column permutation and
transpose transforms, and edge-union live here.  ``Condition(n, edges)``
checks every edge; the builders and transforms, whose edges are in order
and in range by construction, build through the trusted ``Condition._of``,
which ``ring.Frozen`` gives every value type.

``matrix_satisfies`` proves satisfaction exactly; its docstring states the
centralizer and support certificates that settle some edges without
testing them.  The family builders ``cond_f``, ``cond_kappa``,
``cond_t_col``, ``cond_f_side`` and ``cond_f_down`` are pure functions of
small ints, so each caches the frozen condition it returns.
"""

from __future__ import annotations

import operator
from functools import cache
from itertools import combinations, compress

from .matrix import BlockMatrix, Matrix, _det_gauss_mod_p, shifted, shifted_commute
from .ncdet import check_row_det_size
from .ring import Frozen, PolynomialRing, PrimeField, Ring, parse_int

Vertex = tuple[int, int]
Edge = tuple[Vertex, Vertex]


def _edge(u: Vertex, v: Vertex) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at {u}")
    return (u, v) if u < v else (v, u)


def vertices(n: int) -> list[Vertex]:
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


class Condition(Frozen):
    _fields = ("n", "edges")

    def __init__(self, n: int, edges):
        _check_size(n)
        canon = set()
        for u, v in edges:
            for i, j in (u, v):
                if not (1 <= i <= n and 1 <= j <= n):
                    raise ValueError(f"vertex {(i, j)} out of range for size {n}")
            canon.add(_edge(u, v))
        self.__dict__.update(n=n, edges=frozenset(canon))

    def commutes(self, u: Vertex, v: Vertex) -> bool:
        """Whether u and v are joined; False for u == v: a letter never
        passes itself."""
        return u != v and _edge(u, v) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def edge_vertices(self) -> tuple[Vertex, ...]:
        """The positions on an edge, in order.  Computed once per condition
        and kept on it, as ``matrix.shifted`` keeps a block's rows."""
        return self._kept("_edge_vertices", lambda g: tuple(sorted({w for e in g.edges for w in e})))

    def __repr__(self):
        return f"Condition(n={self.n}, edges={self.sorted_edges()})"


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"condition size must be at least 1, got n={n}")


def empty_condition(n: int) -> Condition:
    _check_size(n)
    return Condition._of(n, frozenset())


def complete_condition(n: int) -> Condition:
    return _from_predicate(n, lambda u, v: True)


def _from_predicate(n: int, pred) -> Condition:
    _check_size(n)
    # combinations of the sorted vertex list yields each pair as (u, v), u < v.
    return Condition._of(n, frozenset((u, v) for u, v in combinations(vertices(n), 2) if pred(u, v)))


@cache
def cond_f(n: int) -> Condition:
    """Edges between positions outside row 1 that sit in different columns."""
    return _from_predicate(n, lambda u, v: u[0] != 1 and v[0] != 1 and u[1] != v[1])


def kappa_pair(u: Vertex, v: Vertex) -> bool:
    """Whether u and v are joined in kappa: distinct, both outside row 1."""
    return u != v and u[0] != 1 and v[0] != 1


@cache
def cond_kappa(n: int) -> Condition:
    """Complete graph on all positions outside row 1."""
    return _from_predicate(n, kappa_pair)


def t_col_pair(c: int):
    """pair(u, v): whether u and v are joined in the column-c transpose
    relation; False for u == v, as in ``Condition.commutes``."""

    def pair(u: Vertex, v: Vertex) -> bool:
        (i, j), (k, l) = u, v
        if i != k and j != l and j != c and l != c:
            return True
        return (j == c or l == c) and (i - k) * (j - l) > 0

    return pair


@cache
def cond_t_col(c: int, n: int) -> Condition:
    """Column-c transpose-compatibility graph.

    Positions off column c in different rows and columns are joined; a
    position in column c is joined to everything strictly above-left or
    strictly below-right of it.
    """
    if not 1 <= c <= n:
        raise ValueError(f"column {c} out of range for size {n}")
    return _from_predicate(n, t_col_pair(c))


def cond_t_row(r: int, n: int) -> Condition:
    """Row-r transpose-compatibility graph: the transpose of cond_t_col."""
    if not 1 <= r <= n:
        raise ValueError(f"row {r} out of range for size {n}")
    return cond_transpose(cond_t_col(r, n))


def _relabel(g: Condition, vertex_map) -> Condition:
    # vertex_map is a bijection of the grid, so only a pair's order can change.
    mapped = ((vertex_map(u), vertex_map(v)) for u, v in g.edges)
    return Condition._of(g.n, frozenset((a, b) if a < b else (b, a) for a, b in mapped))


def cond_col_permute(g: Condition, images: tuple[int, ...]) -> Condition:
    """Relabel columns: column x becomes column images[x-1], where ``images``
    is a permutation of 1..n."""
    if sorted(images) != list(range(1, g.n + 1)):
        raise ValueError(f"{images} is not a permutation of 1..{g.n}")
    return _relabel(g, lambda v: (v[0], images[v[1] - 1]))


def cond_transpose(g: Condition) -> Condition:
    return _relabel(g, lambda v: (v[1], v[0]))


def cond_union(g: Condition, h: Condition) -> Condition:
    if g.n != h.n:
        raise ValueError(f"size mismatch: {g.n} vs {h.n}")
    return Condition._of(g.n, g.edges | h.edges)


def cond_minus_edge(g: Condition, edge: Edge) -> Condition:
    """g with the pair of positions ``edge``, in either order, withheld;
    ``ValueError`` when the pair is not an edge of g."""
    pair = _edge(*edge)
    if pair not in g.edges:
        raise ValueError(f"{pair} is not an edge of the condition")
    return Condition._of(g.n, g.edges - {pair})


@cache
def cond_f_side(j: int, n: int) -> Condition:
    """Column-j variant of the row-one-free family."""
    if not 1 <= j <= n:
        raise ValueError(f"column {j} out of range for size {n}")
    base = cond_union(cond_transpose(cond_f(n)), cond_t_col(1, n))
    swap = tuple(j if c == 1 else 1 if c == j else c for c in range(1, n + 1))
    return cond_col_permute(base, swap)


@cache
def cond_f_down(i: int, n: int) -> Condition:
    """Row-i variant of the row-one-free family."""
    if not 1 <= i <= n:
        raise ValueError(f"row {i} out of range for size {n}")
    return cond_union(cond_transpose(cond_f_side(i, n)), cond_t_row(i, n))


# Size-2 conditions by letter pairs: A=(1,1), B=(1,2), C=(2,1), D=(2,2).
_LETTERS = {"A": (1, 1), "B": (1, 2), "C": (2, 1), "D": (2, 2)}
_NAMED_SIZE2: dict[str, tuple[str, ...]] = {
    "g1": ("CD",),
    "g2": ("AD", "BD"),
    "g3": ("AC", "BC"),
    "g4": ("AB", "AD", "BC"),
    "g5": ("AB", "AC", "BD"),
    "h1": ("AD", "BC"),
    "h2": ("AB", "AC", "AD"),
    "h3": ("AB", "BC", "BD"),
    "h4": ("AC", "BD"),
}


def size2_condition(labels: tuple[str, ...]) -> Condition:
    """The size-2 condition whose edges are the letter pairs ``labels``,
    such as ("AC", "BD")."""
    return Condition(2, frozenset((_LETTERS[a], _LETTERS[b]) for a, b in labels))


def cond_named(name: str) -> Condition:
    """One of the size-2 conditions g1..g5 or h1..h4."""
    if name not in _NAMED_SIZE2:
        raise ValueError(f"unknown size-2 condition {name!r}")
    return size2_condition(_NAMED_SIZE2[name])


# Family ids by name, and those that take a parameter k, as ``name:k``.
_FAMILIES = {"f": cond_f, "kappa": cond_kappa, "complete": complete_condition, "empty": empty_condition}
_PARAMETER_FAMILIES = {"side": cond_f_side, "down": cond_f_down, "tcol": cond_t_col, "trow": cond_t_row}


def family_condition(family_id: str, n: int) -> Condition:
    """Instantiate a named family at size n, for 1 <= n <= ROW_DET_CAP.

    Ids: ``f``, ``kappa``, ``complete``, ``empty``, ``side:j``, ``down:i``,
    ``tcol:c``, ``trow:r`` and the size-2 names ``g1``..``g5``, ``h1``..``h4``.
    """
    if n < 1:
        raise ValueError(f"size must be at least 1, got n={n}")
    check_row_det_size(n)
    fid = family_id.strip().lower()
    if fid in _FAMILIES:
        return _FAMILIES[fid](n)
    if fid in _NAMED_SIZE2:
        if n != 2:
            raise ValueError(f"{family_id!r} is a size-2 condition, got n={n}")
        return cond_named(fid)
    head, colon, tail = fid.partition(":")
    if colon:
        try:
            k = parse_int(tail.strip())
        except ValueError:
            raise ValueError(f"bad family parameter in {family_id!r}") from None
        if head in _PARAMETER_FAMILIES:
            return _PARAMETER_FAMILIES[head](k, n)
    raise ValueError(f"unknown family id {family_id!r}")


def is_subgraph(g: Condition, h: Condition) -> bool:
    """Labeled containment: every edge of g is an edge of h."""
    if g.n != h.n:
        raise ValueError(f"size mismatch: {g.n} vs {h.n}")
    return g.edges <= h.edges


# Over int, cyclicity is proven mod this prime: a Krylov matrix of full
# rank mod q has full rank over Q.
_KRYLOV_PRIME = (1 << 31) - 1


def _is_cyclic(ring: Ring, x: Matrix) -> bool:
    """Whether e1, x e1, ..., x^(m-1) e1 has full rank, by Gaussian
    elimination mod p over mod:p and mod ``_KRYLOV_PRIME`` over int.  True
    proves x cyclic, with e1 a cyclic vector; False only means that this
    test did not show it."""
    q = ring.p if isinstance(ring, PrimeField) else _KRYLOV_PRIME
    rows = x.entries
    v = (1,) + (0,) * (len(rows) - 1)
    krylov = [v]
    for _ in range(len(rows) - 1):
        v = tuple([sum(map(operator.mul, row, v)) % q for row in rows])
        krylov.append(v)
    return _det_gauss_mod_p(q, krylov) != 0


def _support(form: dict[int, tuple], bits: list[int]) -> tuple[int, int]:
    """(R, C) for the shifted rows ``form`` of an m x m block, as bit masks:
    R has bit i for each shifted row i, C bit j for each column j where one
    of them is nonzero; ``bits`` is [1 << j for j in range(m)]."""
    cols = 0
    for row in form.values():
        # compress yields the bit of each nonzero column once, so the sum
        # is their OR.
        cols |= sum(compress(bits, row))
    return sum(map(bits.__getitem__, form)), cols


def matrix_satisfies(bm: BlockMatrix, g: Condition) -> bool:
    """True when every edge of g joins commuting blocks of bm.

    The tests hold it to ``pairwise_satisfies`` in ``tests/oracles.py``,
    which multiplies out both products of every edge; this examines only
    the live edges of g, those between two blocks with shifted rows.  Each
    block on an edge is shifted once (``matrix.shifted``).  An edge at a
    scalar block, which has no shifted rows, holds with no product; when
    the blocks with shifted rows are few, so that fewer pairs of them than
    edges of g exist, the live edges are found among those pairs instead of
    by a scan of every edge.  The live edges are tested by
    ``shifted_commute`` up to the first that fails, except those that one
    of two certificates settles.  Both are read off the sample itself, not
    from the generator that drew it.

    The centralizer certificate: if a block X is cyclic, every block that
    commutes with X is a polynomial in X (Horn and Johnson, Matrix
    Analysis, Thm 3.2.4.2), so once X commutes with each of its neighbours
    in g, every edge of g among those neighbours holds.  X is taken among
    the blocks of highest degree in g, and it is tested (``_is_cyclic``)
    only when some edge lies among its neighbours.  A cyclic X has
    rank(X - cI) >= m - 1 for every c, so a block with fewer than m - 1
    shifted rows cannot be one.

    The support certificate runs when no block on an edge has that many
    shifted rows, as in slot and scalar samples, or over poly:.  Let R be
    the set of shifted rows of X' = X - cI and C the set of columns where
    those rows are nonzero (``_support``).  X'Y' is zero when C(X) misses
    R(Y), since each term X'[i][k] Y'[k] then has a zero factor.  So an
    edge with C(X) disjoint from R(Y) and C(Y) disjoint from R(X) holds
    with no product, X'Y' = 0 = Y'X', as between slot blocks in disjoint
    slots; the other edges are tested pair by pair.
    """
    if bm.n != g.n:
        raise ValueError(f"size mismatch: matrix n={bm.n}, condition n={g.n}")
    ring, m, blocks, edges = bm.ring, bm.m, bm.blocks, g.edges
    # The blocks on an edge that have shifted rows, in vertex order.
    forms = {v: form for v in g.edge_vertices() if (form := shifted(blocks[v[0] - 1][v[1] - 1]))}
    if len(forms) * (len(forms) - 1) // 2 < len(edges):
        live = [e for e in combinations(forms, 2) if e in edges]
    else:
        live = [(u, v) for u, v in edges if u in forms and v in forms]
    if isinstance(ring, PolynomialRing) or all(len(s) < m - 1 for s in forms.values()):
        bits = [1 << j for j in range(m)]
        support = {v: _support(s, bits) for v, s in forms.items()}
        return all(
            shifted_commute(ring, forms[u], forms[v])
            for u, v in live
            if support[u][1] & support[v][0] or support[v][1] & support[u][0]
        )
    neighbours = {}
    for u, v in live:
        neighbours.setdefault(u, set()).add(v)
        neighbours.setdefault(v, set()).add(u)
    hub = min(
        (v for v in neighbours if len(forms[v]) >= m - 1),
        key=lambda v: (-len(neighbours[v]), v),
        default=None,
    )
    if hub is not None:
        around = neighbours[hub]
        rest = [(u, v) for u, v in live if hub != u and hub != v and not (u in around and v in around)]
        if len(rest) + len(around) < len(live) and _is_cyclic(ring, blocks[hub[0] - 1][hub[1] - 1]):
            x = forms[hub]
            if not all(shifted_commute(ring, x, forms[v]) for v in around):
                return False
            live = rest
    return all(shifted_commute(ring, forms[u], forms[v]) for u, v in live)


def format_condition(g: Condition) -> str:
    lines = [str(g.n)]
    for (i, j), (k, l) in g.sorted_edges():
        lines.append(f"{i} {j} {k} {l}")
    return "\n".join(lines) + "\n"

