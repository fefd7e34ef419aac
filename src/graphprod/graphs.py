"""Finite simple graphs on at most 64 vertices, with bitmask vertex sets.

A vertex set is a plain ``int`` used as a bitmask (bit ``v`` set means vertex
``v`` is in the set), so every set operation is one machine-word instruction.
Adjacency is stored as one mask per vertex.  Graphs are immutable and hashable;
vertex order is part of graph identity (isomorphism-invariant comparisons live
in :mod:`graphprod.iso`).

Supported external formats: graph6 strings (n <= 64; n = 63 and 64 use the
long size header, byte 126 followed by three 6-bit bytes) and the edge-list
JSON object ``{"n": int, "edges": [[i, j], ...]}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

MAX_VERTICES = 64


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph: no loops, no multi-edges, vertices ``0..n-1``.

    ``adj[v]`` is the bitmask of neighbours of ``v``.  ``n == 0`` is allowed
    and serves as the empty-graph sentinel (e.g. an empty untransvectable
    subgraph); parsers only ever produce ``n >= 1``.
    """

    n: int
    adj: tuple[int, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match vertex count")
        full = self.full_mask
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency row {v} has bits >= n")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v in range(self.n):
            for w in bits(self.adj[v]):
                if not self.adj[w] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at ({v}, {w})")
        if self.names is not None and len(self.names) != self.n:
            raise ValueError("name count does not match vertex count")

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]],
                   names: Iterable[str] | None = None) -> "SimpleGraph":
        rows = [0] * n
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            if i == j:
                raise ValueError(f"loop edge ({i}, {j})")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return SimpleGraph(n, tuple(rows),
                           tuple(names) if names is not None else None)

    # -- elementary queries ------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for w in bits(self.adj[v] >> (v + 1) << (v + 1)):
                yield (v, w)

    @cached_property
    def nonadj(self) -> tuple[int, ...]:
        """``nonadj[v]``: the vertices not adjacent to ``v``, ``v`` included.

        Computed once per graph object (the word engine reads it on every
        operation).
        """
        full = self.full_mask
        return tuple(full & ~row for row in self.adj)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, v: int, w: int) -> bool:
        return bool(self.adj[v] >> w & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(row.bit_count() for row in self.adj))

    def name(self, v: int) -> str:
        return self.names[v] if self.names is not None else str(v)


def link(g: SimpleGraph, v: int) -> int:
    """Neighbours of ``v``: the vertices adjacent to v (v itself excluded).

    >>> list(bits(link(cycle_graph(5), 0)))
    [1, 4]
    """
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range")
    return g.adj[v]


def star(g: SimpleGraph, v: int) -> int:
    """``link(g, v)`` together with ``v`` itself."""
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range")
    return g.adj[v] | 1 << v


def perp(g: SimpleGraph, s: int) -> int:
    """Vertices adjacent to every vertex of ``s``.

    The empty set maps to the full vertex set.  Since no vertex is adjacent
    to itself, the result is always disjoint from a nonempty ``s``.
    """
    if s & ~g.full_mask:
        raise ValueError("vertex set has bits outside the graph")
    out = g.full_mask
    for v in bits(s):
        out &= g.adj[v]
    return out


def min_degree(g: SimpleGraph) -> int:
    if g.n == 0:
        return 0
    return min(row.bit_count() for row in g.adj)


def components(g: SimpleGraph, within: int | None = None) -> list[int]:
    """Connected components as vertex masks, ordered by smallest vertex.

    With ``within`` set, components of the induced subgraph on that mask.
    """
    left = g.full_mask if within is None else within
    out = []
    while left:
        seed = left & -left
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= g.adj[v] & left
            frontier = grow & ~comp
            comp |= frontier
        out.append(comp)
        left &= ~comp
    return out


def components_induced(g: SimpleGraph) -> list[SimpleGraph]:
    """Induced subgraphs of the connected components, ordered by smallest vertex."""
    return [induced(g, comp)[0] for comp in components(g)]


def is_connected(g: SimpleGraph, within: int | None = None) -> bool:
    """True for the empty set and any set inducing a connected subgraph."""
    comps = components(g, within)
    return len(comps) <= 1


def complement(g: SimpleGraph) -> SimpleGraph:
    full = g.full_mask
    rows = tuple(full & ~row & ~(1 << v) for v, row in enumerate(g.adj))
    return SimpleGraph(g.n, rows, g.names)


def induced(g: SimpleGraph, s: int) -> tuple[SimpleGraph, list[int]]:
    """Induced subgraph on ``s`` plus the remap table (new index -> old).

    >>> h, remap = induced(cycle_graph(5), 0b10011)
    >>> remap
    [0, 1, 4]
    """
    if s == 0:
        raise ValueError("cannot induce on the empty vertex set")
    if s & ~g.full_mask:
        raise ValueError("vertex set has bits outside the graph")
    old = list(bits(s))
    pos = {v: i for i, v in enumerate(old)}
    rows = []
    for v in old:
        rows.append(mask_of(pos[w] for w in bits(g.adj[v] & s)))
    names = tuple(g.name(v) for v in old) if g.names is not None else None
    return SimpleGraph(len(old), tuple(rows), names), old


def induced_or_empty(g: SimpleGraph, s: int) -> tuple[SimpleGraph, list[int]]:
    """Like :func:`induced` but maps the empty set to the empty graph."""
    if s == 0:
        return SimpleGraph(0, ()), []
    return induced(g, s)


def is_clique(g: SimpleGraph, s: int) -> bool:
    """True iff ``s`` induces a complete graph (the empty set counts)."""
    for v in bits(s):
        if s & ~(g.adj[v] | 1 << v):
            return False
    return True


def is_edgeless(g: SimpleGraph, s: int) -> bool:
    for v in bits(s):
        if g.adj[v] & s:
            return False
    return True


def contains_triangle(g: SimpleGraph) -> bool:
    for v, w in g.edges():
        if g.adj[v] & g.adj[w]:
            return True
    return False


def contains_square(g: SimpleGraph) -> bool:
    """True iff some 4-cycle v1 v2 v3 v4 has v1 !~ v3 and v2 !~ v4."""
    for v in range(g.n):
        for w in bits(~(g.adj[v] | 1 << v) & g.full_mask):
            if w <= v:
                continue
            common = g.adj[v] & g.adj[w]
            for a in bits(common):
                if common & ~(g.adj[a] | 1 << a) & ~((1 << (a + 1)) - 1):
                    return True
    return False


def girth(g: SimpleGraph) -> float:
    """Length of a shortest cycle; ``math.inf`` for forests.

    One BFS per start vertex; the first non-tree edge seen from vertex ``r``
    bounds the shortest cycle through ``r``, and the minimum over all roots
    is exact.  A triangle is the shortest possible cycle, so finding one
    ends the search.
    """
    best = math.inf
    for root in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                if 2 * dist[v] >= best:
                    break
                for w in bits(g.adj[v]):
                    if dist[w] < 0:
                        dist[w] = dist[v] + 1
                        parent[w] = v
                        nxt.append(w)
                    elif w != parent[v]:
                        best = min(best, dist[v] + dist[w] + 1)
                        if best == 3:
                            return best
            frontier = nxt
    return best


# -- named constructions ---------------------------------------------------

def edgeless_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, (0,) * n)


def complete_graph(n: int) -> SimpleGraph:
    full = (1 << n) - 1
    return SimpleGraph(n, tuple(full & ~(1 << v) for v in range(n)))


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(m: int, mp: int) -> SimpleGraph:
    return SimpleGraph.from_edges(
        m + mp, [(i, m + j) for i in range(m) for j in range(mp)])


def star_graph(leaves: int) -> SimpleGraph:
    """K_{1,leaves} with the centre at vertex 0."""
    return SimpleGraph.from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


def petersen_graph() -> SimpleGraph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return SimpleGraph.from_edges(10, edges)


def disjoint_union(a: SimpleGraph, b: SimpleGraph) -> SimpleGraph:
    rows = list(a.adj) + [row << a.n for row in b.adj]
    names = None
    if a.names is not None or b.names is not None:
        names = tuple(a.name(v) for v in range(a.n)) + \
            tuple(b.name(v) for v in range(b.n))
    return SimpleGraph(a.n + b.n, tuple(rows), names)


# -- graph6 ----------------------------------------------------------------

def from_graph6(text: str) -> SimpleGraph:
    """Parse a graph6 string (n <= 64), with or without the ``>>graph6<<`` header."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string (byte offset 0)")
    data = s.encode("ascii", errors="replace")
    for k, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise ValueError(f"invalid graph6 byte {byte!r} at offset {k}")
    # the size is byte n + 63 for n <= 62, else byte 126 and then n in three
    # 6-bit bytes (McKay's formats.txt)
    head = 4 if data[0] == 126 else 1
    if len(data) < head:
        raise ValueError(f"graph6 size header cut short (byte offset {len(data)})")
    n = 0
    for byte in data[1:4] if head == 4 else data[:1]:
        n = n << 6 | byte - 63
    if n == 0:
        raise ValueError("graph6 with zero vertices is not supported (byte offset 0)")
    if n > MAX_VERTICES:
        raise ValueError(f"graph6 vertex counts above {MAX_VERTICES} are not supported")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - head != need:
        raise ValueError(
            f"graph6 body has {len(data) - head} bytes, expected {need} "
            f"(byte offset {min(len(data), need + head)})")
    stream = 0
    for byte in data[head:]:
        stream = stream << 6 | (byte - 63)
    pad = 6 * need - nbits
    if stream & ((1 << pad) - 1):
        raise ValueError(f"nonzero graph6 padding bits (byte offset {len(data) - 1})")
    stream >>= pad
    rows = [0] * n
    # bit order: (0,1), (0,2), (1,2), (0,3), ... column-major upper triangle
    bit = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if stream >> bit & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bit -= 1
    return SimpleGraph(n, tuple(rows))


def to_graph6(g: SimpleGraph) -> str:
    """graph6 string of ``g``; n = 63 and 64 get the long size header."""
    if not 1 <= g.n <= MAX_VERTICES:
        raise ValueError(f"graph6 output requires 1 <= n <= {MAX_VERTICES}")
    stream = 0
    nbits = g.n * (g.n - 1) // 2
    for j in range(1, g.n):
        for i in range(j):
            stream = stream << 1 | (g.adj[i] >> j & 1)
    pad = (6 - nbits % 6) % 6
    stream <<= pad
    # 63 + 63 is byte 126, the long-form marker
    size = [g.n] if g.n <= 62 else [63, g.n >> 12, g.n >> 6 & 63, g.n & 63]
    out = [chr(x + 63) for x in size]
    for k in range(((nbits + 5) // 6) - 1, -1, -1):
        out.append(chr((stream >> 6 * k & 63) + 63))
    return "".join(out)


# -- edge-list JSON ----------------------------------------------------------

def from_json_obj(obj) -> SimpleGraph:
    """Build a graph from ``{"n": int, "edges": [[i, j], ...]}``."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError('graph JSON must be an object with "n" and "edges"')
    n = obj["n"]
    if not isinstance(n, int) or not 1 <= n <= MAX_VERTICES:
        raise ValueError(f'"n" must be an integer in 1..{MAX_VERTICES}')
    edges = []
    for e in obj["edges"]:
        if not (isinstance(e, (list, tuple)) and len(e) == 2
                and all(isinstance(x, int) for x in e)):
            raise ValueError(f"bad edge entry {e!r}")
        edges.append((e[0], e[1]))
    names = obj.get("names")
    return SimpleGraph.from_edges(n, edges, names)


def to_json_obj(g: SimpleGraph) -> dict:
    obj = {"n": g.n, "edges": [[v, w] for v, w in g.edges()]}
    if g.names is not None:
        obj["names"] = list(g.names)
    return obj
