"""Derived combinatorial structure on simple graphs.

Join decompositions, maximal join subgraphs, collapsible subgraphs,
link-star domination (transvections), the untransvectable subgraph, the
quotient graph on domination classes, separating stars, and graph surgery
(collapse / substitute).

Collapsible sets are exactly the modules of the graph (every outside vertex
sees all of the set or none of it), and maximal join subgraphs are the
inclusion-maximal unions ``A | perp(A)`` over the closed sets
``A = perp(perp(A))``.  Both families are closure systems, so one NextClosure
enumerator (Ganter 1984) lists each of them in time polynomial per set found;
"strongly reduced" and "clique-reduced" are decided from module closures of
vertex pairs and from true twins.  The exhaustive ``2**n`` subset walks that
define these notions live in :mod:`graphprod.verify` as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (SimpleGraph, bits, induced, induced_or_empty, is_clique,
                     is_connected, link, mask_of, perp, star)


@dataclass(frozen=True)
class JoinDecomposition:
    """Clique factor plus the irreducible parts of the canonical join split.

    ``clique_factor`` is the set of vertices adjacent to every other vertex;
    the remaining vertices split into ``parts``, the vertex sets of the
    connected components of the complement restricted to them.  Each part has
    at least two vertices and induces an irreducible graph; parts are sorted
    by (size, smallest vertex).
    """

    clique_factor: int
    parts: tuple[int, ...]


@dataclass(frozen=True)
class QuotientGraph:
    """Quotient of a graph by the domination equivalence ``v ~ v'``.

    ``classes[i]`` is the vertex mask of class ``i``; ``graph`` is the simple
    graph on classes (two classes adjacent iff their members are adjacent,
    which is representative-independent).
    """

    classes: tuple[int, ...]
    graph: SimpleGraph


def maximal_clique_factor(g: SimpleGraph) -> int:
    """Vertices whose star is the whole graph; they induce a clique."""
    full = g.full_mask
    return mask_of(v for v in range(g.n) if star(g, v) == full)


def _complement_component(g: SimpleGraph, within: int, seed: int) -> int:
    """Component of the one-vertex mask ``seed`` in the complement of ``g[within]``."""
    comp = seed
    frontier = seed
    while frontier:
        grow = 0
        for v in bits(frontier):
            grow |= within & ~g.adj[v] & ~(1 << v)
        frontier = grow & ~comp
        comp |= frontier
    return comp


def is_join(g: SimpleGraph, s: int) -> bool:
    """True iff ``s`` (with >= 2 vertices) splits as a join of two nonempty parts.

    Equivalent test: the complement of the induced subgraph on ``s`` is
    disconnected.
    """
    if s.bit_count() < 2:
        return False
    return _complement_component(g, s, s & -s) != s


def join_decomposition(g: SimpleGraph) -> JoinDecomposition:
    """Canonical split: clique factor joined with irreducible parts."""
    if g.n == 0:
        raise ValueError("empty graph has no join decomposition")
    clique = maximal_clique_factor(g)
    rest = g.full_mask & ~clique
    parts = []
    left = rest
    while left:
        comp = _complement_component(g, rest, left & -left)
        parts.append(comp)
        left &= ~comp
    for p in parts:
        assert p.bit_count() >= 2, "non-clique-factor part of size 1"
    parts.sort(key=lambda p: (p.bit_count(), p & -p))
    return JoinDecomposition(clique, tuple(parts))


def _next_closure(n: int, close):
    """Yield every closed set of the closure operator ``close`` on ``range(n)``.

    Ganter's NextClosure over bitmasks: closed sets come in lectic order, and
    the successor of ``a`` is ``close((a & (bit - 1)) | bit)`` for the
    largest ``bit`` not in ``a`` whose closure adds no vertex below ``bit``.
    Each closed set costs at most ``n`` calls to ``close``, and no other set
    is visited.
    """
    full = (1 << n) - 1
    a = close(0)
    while True:
        yield a
        if a == full:
            return
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            if a & bit:
                a ^= bit
                continue
            b = close(a | bit)
            if b & (bit - 1) == a:
                a = b
                break


def _perp_closure(g: SimpleGraph):
    """``s -> perp(perp(s))``, the closure of the adjacency Galois connection.

    Inlines :func:`perp` without its argument check: this is the inner loop
    of the maximal-join enumeration.
    """
    adj = g.adj
    full = g.full_mask

    def perp_of(s: int) -> int:
        out = full
        while s:
            low = s & -s
            out &= adj[low.bit_length() - 1]
            s ^= low
        return out

    return lambda s: perp_of(perp_of(s))


def maximal_join_subgraphs(g: SimpleGraph) -> list[int]:
    """All maximal (under inclusion) full subgraphs that split as a join.

    Any join ``A | B`` lies in ``A' | perp(A')`` for the closed set
    ``A' = perp(perp(A))``, so every maximal join is ``A | perp(A)`` for a
    closed ``A`` with both parts nonempty.  A join ``s`` that is not maximal
    already grows by one vertex: some ``x`` outside ``s`` is adjacent to all
    of a complement component of ``g[s]``.  So ``s`` is maximal iff every
    complement component keeps its common neighbours inside ``s``, a test
    linear in ``n`` per candidate.  Output-sensitive: polynomial per closed
    set.  Results ordered by (size, mask).
    """
    joins = set()
    for a in _next_closure(g.n, _perp_closure(g)):
        b = perp(g, a)
        if a and b:
            joins.add(a | b)
    out = []
    for s in joins:
        left = s
        while left:
            comp = _complement_component(g, s, left & -left)
            if perp(g, comp) & ~s:
                break
            left &= ~comp
        else:
            out.append(s)
    out.sort(key=lambda s: (s.bit_count(), s))
    return out


def is_collapsible(g: SimpleGraph, s: int) -> bool:
    """True iff ``st(v)`` meets the outside of ``s`` exactly in ``perp(s)`` for all v in s."""
    if s == 0:
        return False
    outside = g.full_mask & ~s
    p = perp(g, s)
    for v in bits(s):
        if star(g, v) & outside != p:
            return False
    return True


def module_closure(g: SimpleGraph, s: int) -> int:
    """Smallest collapsible set (module) containing ``s``; the empty set stays empty.

    An outside vertex that sees some but not all of ``s`` must join any
    module containing ``s``.  Those are the vertices adjacent to some vertex
    of ``s`` (``seen``) but not to all of them (``common``); adding them to a
    fixpoint gives the least module, in time linear in its size.
    """
    adj = g.adj
    seen, common = 0, g.full_mask
    out, new = 0, s
    while new:
        out |= new
        while new:
            low = new & -new
            row = adj[low.bit_length() - 1]
            seen |= row
            common &= row
            new ^= low
        new = seen & ~common & ~out
    return out


def collapsible_subgraphs(g: SimpleGraph, min_size: int) -> list[int]:
    """All collapsible vertex sets with at least ``min_size`` vertices.

    Modules together with the empty set are closed under intersection, so
    they are the closed sets of :func:`module_closure` and NextClosure lists
    them in time polynomial per module.  The output itself can be
    exponential: every subset of an edgeless part is a module.  The full
    vertex set always qualifies.  Ordered by (size, mask).
    """
    if min_size < 1:
        raise ValueError("min_size must be at least 1")
    out = [s for s in _next_closure(g.n, lambda s: module_closure(g, s))
           if s.bit_count() >= min_size]
    out.sort(key=lambda s: (s.bit_count(), s))
    return out


def is_strongly_reduced(g: SimpleGraph) -> bool:
    """No proper collapsible full subgraph on >= 2 vertices.

    Such a set exists iff the module closure of one of its vertex pairs is
    proper, so testing every pair decides it.
    """
    full = g.full_mask
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if module_closure(g, 1 << u | 1 << v) != full:
                return False
    return True


def is_clique_reduced(g: SimpleGraph) -> bool:
    """No proper collapsible complete full subgraph on >= 2 vertices.

    Two vertices of a collapsible clique have equal stars, and true twins
    (``st(u) == st(v)``) form a collapsible edge, so it suffices to look for
    twins other than the whole graph (only K2 is its own twin pair).
    """
    if g.n == 2:
        return True  # K2's only twin pair is the whole graph
    return len({star(g, v) for v in range(g.n)}) == g.n


# -- transvections ----------------------------------------------------------

def dominates(g: SimpleGraph, v: int, w: int) -> bool:
    """True iff ``lk(v)`` is contained in ``st(w)`` (written v <= w), v != w."""
    return v != w and not link(g, v) & ~star(g, w)


def _domination_rows(g: SimpleGraph) -> list[int]:
    """``rows[v]``: the vertices ``w`` with ``v <= w`` (see :func:`dominates`).

    ``lk(v)`` lies in ``st(w)`` iff ``w`` lies in ``st(u)`` for every ``u`` in
    ``lk(v)``, so the row is the intersection of those stars, minus ``v``.
    """
    rows = []
    for v, lk in enumerate(g.adj):
        row = g.full_mask
        for u in bits(lk):
            row &= g.adj[u] | 1 << u
        rows.append(row & ~(1 << v))
    return rows


def _pairs_from_rows(rows: list[int]) -> list[tuple[int, int]]:
    return [(v, w) for v, row in enumerate(rows) for w in bits(row)]


def _untransvectable_from_rows(rows: list[int]) -> int:
    return mask_of(v for v, row in enumerate(rows) if not row)


def domination_pairs(g: SimpleGraph) -> list[tuple[int, int]]:
    """All ordered pairs (v, w), v != w, with lk(v) a subset of st(w)."""
    return _pairs_from_rows(_domination_rows(g))


def untransvectable_vertices(g: SimpleGraph) -> int:
    """Vertices v with no w != v satisfying lk(v) within st(w)."""
    return _untransvectable_from_rows(_domination_rows(g))


def is_transvection_free(g: SimpleGraph) -> bool:
    return untransvectable_vertices(g) == g.full_mask


def _quotient_from_rows(g: SimpleGraph, rows: list[int]) -> QuotientGraph:
    classes: list[int] = []
    cls_of = [-1] * g.n
    for v in range(g.n):
        if cls_of[v] < 0:
            # mutual domination is an equivalence relation
            m = 1 << v | mask_of(w for w in bits(rows[v]) if rows[w] >> v & 1)
            for w in bits(m):
                cls_of[w] = len(classes)
            classes.append(m)
    rows_q = []
    for m in classes:
        outside = g.adj[(m & -m).bit_length() - 1] & ~m
        # classes are modules: adjacency between classes never depends on
        # the representatives
        assert all(g.adj[v] & ~m == outside for v in bits(m))
        rows_q.append(mask_of(cls_of[w] for w in bits(outside)))
    return QuotientGraph(tuple(classes), SimpleGraph(len(classes), tuple(rows_q)))


def domination_classes(g: SimpleGraph) -> QuotientGraph:
    """Quotient by ``v ~ v'`` (mutual domination, reflexively closed)."""
    return _quotient_from_rows(g, _domination_rows(g))


def transvection_structure(g: SimpleGraph):
    """(untransvectable mask, ordered domination pairs, quotient graph).

    The domination relation is decided once and all three are read off it.
    """
    rows = _domination_rows(g)
    return (_untransvectable_from_rows(rows), _pairs_from_rows(rows),
            _quotient_from_rows(g, rows))


def untransvectable_subgraph(g: SimpleGraph) -> SimpleGraph:
    """Induced subgraph on the untransvectable vertices (may be empty)."""
    sub, _ = induced_or_empty(g, untransvectable_vertices(g))
    return sub


def internal_vertices(g: SimpleGraph) -> int:
    """Vertices whose link is not a clique."""
    return mask_of(v for v in range(g.n) if not is_clique(g, link(g, v)))


def has_separating_star(g: SimpleGraph) -> int | None:
    """Some vertex whose closed neighbourhood disconnects the rest, else None.

    An empty remainder counts as connected.  Deterministic: the smallest such
    vertex index is returned.
    """
    for v in range(g.n):
        rest = g.full_mask & ~star(g, v)
        if rest and not is_connected(g, rest):
            return v
    return None


# -- graph surgery -----------------------------------------------------------

def collapse(g: SimpleGraph, s: int) -> SimpleGraph:
    """Replace the collapsible set ``s`` by one vertex adjacent to ``perp(s)``.

    The new vertex takes the smallest index of ``s``; remaining vertices keep
    their relative order.
    """
    if not is_collapsible(g, s):
        raise ValueError("set is not collapsible")
    keep = (g.full_mask & ~s) | (s & -s)
    new_v = (s & -s).bit_length() - 1
    p = perp(g, s)
    sub, old = induced(g, keep)
    pos = {v: i for i, v in enumerate(old)}
    rows = list(sub.adj)
    i = pos[new_v]
    rows[i] = mask_of(pos[w] for w in bits(p))
    for j in range(sub.n):
        if rows[i] >> j & 1:
            rows[j] |= 1 << i
        else:
            rows[j] &= ~(1 << i)
    return SimpleGraph(sub.n, tuple(rows))


def substitute(g: SimpleGraph, v: int, h: SimpleGraph) -> SimpleGraph:
    """Replace vertex ``v`` by a copy of ``h``.

    Every vertex of the copy is adjacent to ``lk(v)`` and to its neighbours
    inside the copy.  The copy occupies indices ``v .. v+h.n-1``; later
    vertices shift up, so collapsing the copy again recovers ``g`` exactly.
    """
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range")
    if h.n < 1:
        raise ValueError("substituted graph must be nonempty")
    n = g.n - 1 + h.n

    def newpos(w: int) -> int:
        return w if w < v else w + h.n - 1

    rows = [0] * n
    for a, b in g.edges():
        if v in (a, b):
            continue
        na, nb = newpos(a), newpos(b)
        rows[na] |= 1 << nb
        rows[nb] |= 1 << na
    lk_new = mask_of(newpos(w) for w in bits(link(g, v)))
    for i in range(h.n):
        vi = v + i
        rows[vi] |= lk_new
        for w in bits(lk_new):
            rows[w] |= 1 << vi
        for j in bits(h.adj[i]):
            rows[vi] |= 1 << (v + j)
            rows[v + j] |= 1 << vi
    return SimpleGraph(n, tuple(rows))
