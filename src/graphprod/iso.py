"""Graph isomorphism, automorphism groups, and colour-respecting variants.

Backtracking with partition refinement: vertices are first coloured by an
iterated neighbourhood-signature refinement (colour ids assigned by sorting
the signatures, so ids are isomorphism-invariant), then a backtracking search
maps vertices in numeric order, pruning by colour and adjacency.  Candidates
are explored in numeric vertex order, so witnesses are deterministic and the
identity is found first on equal inputs.  Started from fixed prefixes, the
same search yields a strong generating set of an automorphism group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import CapExceeded
from .graphs import SimpleGraph, bits, girth, mask_of


def _refine(adjs: list[tuple[int, ...]], colors: list[list[int]]) -> list[list[int]] | None:
    """Jointly refine colourings of several graphs until stable.

    Returns None early if the colour histograms ever diverge (no isomorphism
    can exist then).  Signatures are ordered globally so equal structures get
    equal ids across graphs.
    """
    while True:
        sigs = []
        for adj, cols in zip(adjs, colors):
            sigs.append([(cols[v], tuple(sorted(cols[w] for w in bits(adj[v]))))
                         for v in range(len(adj))])
        table = {s: i for i, s in enumerate(sorted(set().union(*map(set, sigs))))}
        new = [[table[s] for s in graph_sigs] for graph_sigs in sigs]
        if len(adjs) == 2 and sorted(new[0]) != sorted(new[1]):
            return None
        if new == colors:
            return colors
        colors = new


def _search(g: SimpleGraph, h: SimpleGraph, gcol: Sequence[int],
            hcol: Sequence[int],
            prefix: Sequence[int] = ()) -> Iterator[tuple[int, ...]]:
    """Yield all colour-preserving isomorphisms g -> h in deterministic order,
    extending ``prefix``, a colour- and adjacency-preserving map of the first
    vertices."""
    n = g.n
    by_color: dict[int, list[int]] = {}
    for w in range(n):
        by_color.setdefault(hcol[w], []).append(w)
    mapping = list(prefix) + [-1] * (n - len(prefix))

    def rec(v: int, used: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            yield tuple(mapping)
            return
        row = g.adj[v]
        for w in by_color.get(gcol[v], ()):
            if used >> w & 1:
                continue
            ok = True
            for u in range(v):
                if (row >> u & 1) != (h.adj[w] >> mapping[u] & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                yield from rec(v + 1, used | 1 << w)
        mapping[v] = -1

    yield from rec(len(prefix), mask_of(prefix))


def invariant_screen(g: SimpleGraph, h: SimpleGraph) -> bool:
    """Cheap isomorphism-invariant filter; True means "possibly isomorphic"."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    # girth is 3 iff the graph has a triangle, so this decides that too
    return girth(g) == girth(h)


def _prepare_colors(g, h, g_colors, h_colors):
    init_g = list(g_colors) if g_colors is not None else [0] * g.n
    init_h = list(h_colors) if h_colors is not None else [0] * h.n
    return _refine([g.adj, h.adj], [init_g, init_h])


def isomorphism(g: SimpleGraph, h: SimpleGraph,
                g_colors: Sequence[int] | None = None,
                h_colors: Sequence[int] | None = None) -> tuple[int, ...] | None:
    """A witness permutation (g-vertex -> h-vertex), or None.

    Optional colour arrays restrict to colour-preserving maps; colour values
    must mean the same thing on both sides.
    """
    if g.n != h.n:
        return None
    if g.n == 0:
        return ()
    if g_colors is None and h_colors is None and not invariant_screen(g, h):
        return None
    refined = _prepare_colors(g, h, g_colors, h_colors)
    if refined is None:
        return None
    gcol, hcol = refined
    return next(_search(g, h, gcol, hcol), None)


def verify_isomorphism(g: SimpleGraph, h: SimpleGraph,
                       perm: Sequence[int]) -> bool:
    """Check bijectivity and two-way adjacency preservation."""
    if g.n != h.n or sorted(perm) != list(range(g.n)):
        return False
    for v in range(g.n):
        if mask_of(perm[w] for w in bits(g.adj[v])) != h.adj[perm[v]]:
            return False
    return True


@dataclass(frozen=True)
class AutGroup:
    """An automorphism group given by generators, with its exact order.

    ``generators`` are the lex-least strong generating set for the base
    (0, ..., n-1), so ``order`` is the product of the basic orbit lengths;
    ``orbits`` are the vertex orbit masks, ordered by smallest vertex.
    """

    generators: tuple[tuple[int, ...], ...]
    order: int
    orbits: tuple[int, ...]


def _orbit(gens: Sequence[tuple[int, ...]], v: int) -> int:
    """Mask of the orbit of ``v`` under the group the generators generate."""
    orb = 1 << v
    frontier = [v]
    while frontier:
        w = frontier.pop()
        for gen in gens:
            x = gen[w]
            if not orb >> x & 1:
                orb |= 1 << x
                frontier.append(x)
    return orb


def automorphism_group(g: SimpleGraph,
                       colors: Sequence[int] | None = None) -> AutGroup:
    """Exact automorphism group (optionally colour-preserving).

    Sims's strong generating set for the base (0, ..., n-1), read off the
    backtracking search without listing the group: for each level j from
    n-1 down to 0, and each w in increasing order outside the current orbit
    of j, the lex-least automorphism fixing 0..j-1 and sending j to w is a
    generator.  The order is the product of the basic orbit lengths.
    Raises :class:`CapExceeded` for n > 16.
    """
    if g.n == 0:
        return AutGroup((), 1, ())
    if g.n > 16:
        raise CapExceeded("exact automorphism order is limited to n <= 16")
    refined = _prepare_colors(g, g, colors, colors)
    assert refined is not None
    gcol, hcol = refined
    gens: list[tuple[int, ...]] = []
    order = 1
    for j in range(g.n - 1, -1, -1):
        orbit = 1 << j
        for w in range(j + 1, g.n):
            # an automorphism fixing 0..j-1 sends j only to a vertex of j's
            # colour with j's adjacency to 0..j-1
            if orbit >> w & 1 or gcol[w] != gcol[j] \
                    or (g.adj[w] ^ g.adj[j]) & ((1 << j) - 1):
                continue
            perm = next(_search(g, g, gcol, hcol, (*range(j), w)), None)
            if perm is not None:
                gens.append(perm)
                orbit = _orbit(gens, j)
        order *= orbit.bit_count()
    seen = 0
    orbits = []
    for v in range(g.n):
        if not seen >> v & 1:
            orbits.append(_orbit(gens, v))
            seen |= orbits[-1]
    return AutGroup(tuple(gens), order, tuple(orbits))
