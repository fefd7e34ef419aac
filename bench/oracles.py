"""Independent checks: code that trusts neither graphprod nor the pins.

Graphs are plain adjacency-mask lists here.  Each routine uses a different
method from the one graphprod uses for the same answer, so agreement is
evidence that both are right:

* ShortLex normal forms come from heaps of pieces (Viennot), not from
  graphprod's scan-back reduction.
* Ball sizes come from the clique-polynomial growth series
  ``1/W(t) = sum over cliques s of (-t/(1+t))^|s|``, not from enumeration.
* Generalized Petersen graphs are compared with the Steimle-Staton rule
  (GP(n,k) ~ GP(n,l) iff k = +-l or kl = +-1 mod n) and their automorphism
  orders come from Frucht, Graver and Watkins (1971).
"""

from __future__ import annotations

import math


def graph6(n: int, adj: list[int]) -> str:
    """Header-less graph6 string of a graph with 1 <= n <= 62 vertices."""
    bitlist = [adj[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bitlist += [0] * (-len(bitlist) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bitlist), 6):
        val = 0
        for b in bitlist[k:k + 6]:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def edges(n: int, adj: list[int]) -> list[list[int]]:
    return [[v, w] for v in range(n) for w in range(v + 1, n) if adj[v] >> w & 1]


def girth(n: int, adj: list[int]) -> int | None:
    """Shortest cycle length by BFS from every vertex; None for forests."""
    best = None
    for root in range(n):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        for v in queue:
            for w in range(n):
                if not adj[v] >> w & 1:
                    continue
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif parent[v] != w:
                    cyc = dist[v] + dist[w] + 1
                    if best is None or cyc < best:
                        best = cyc
    return best


def components(n: int, adj: list[int]) -> list[list[int]]:
    """Connected components as sorted vertex lists, by smallest vertex."""
    label = list(range(n))

    def find(v):
        while label[v] != v:
            label[v] = label[label[v]]
            v = label[v]
        return v

    for v in range(n):
        for w in range(v + 1, n):
            if adj[v] >> w & 1:
                label[find(w)] = find(v)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def clique_counts(n: int, adj: list[int]) -> list[int]:
    """counts[k] = number of k-vertex cliques (counts[0] = 1 for the empty one)."""
    counts = [1]

    def grow(size: int, candidates: int):
        while candidates:
            low = candidates & -candidates
            v = low.bit_length() - 1
            candidates ^= low
            if len(counts) <= size + 1:
                counts.append(0)
            counts[size + 1] += 1
            grow(size + 1, candidates & adj[v])

    grow(0, (1 << n) - 1)
    return counts


def growth_series(n: int, adj: list[int], radius: int) -> list[int]:
    """Elements of each length 0..radius in the right-angled Coxeter group.

    f(t) = sum_k c_k (-t)^k (1+t)^-k, with c_k the k-clique count, is the
    reciprocal of the growth series; invert it as an integer power series.
    """
    f = [0] * (radius + 1)
    for k, ck in enumerate(clique_counts(n, adj)):
        for j in range(radius + 1 - k):
            # (-t)^k (1+t)^-k contributes (-1)^(k+j) C(k+j-1, j) t^(k+j)
            coeff = 1 if k == 0 and j == 0 else (
                0 if k == 0 else math.comb(k + j - 1, j))
            f[k + j] += ck * (-1) ** (k + j) * coeff
    w = [1] + [0] * radius
    for m in range(1, radius + 1):
        w[m] = -sum(f[i] * w[m - i] for i in range(1, m + 1))
    return w


def _by_size(masks) -> list[list[int]]:
    """Vertex masks as sorted vertex lists, ordered by (size, mask)."""
    return [_verts(m) for m in sorted(masks, key=lambda m: (m.bit_count(), m))]


def _verts(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _complement_components(adj: list[int], within: int) -> list[int]:
    """Components of the complement graph restricted to ``within``, as masks."""
    out = []
    left = within
    while left:
        comp = frontier = left & -left
        while frontier:
            grow = 0
            for v in _verts(frontier):
                grow |= within & ~adj[v] & ~(1 << v)
            frontier = grow & ~comp
            comp |= frontier
        out.append(comp)
        left &= ~comp
    return out


def maximal_joins(n: int, adj: list[int]) -> list[list[int]]:
    """Maximal vertex sets that induce a join, by the perp closure.

    Every join A * B lies inside A + perp(A), and A + perp(A) is itself a
    join when perp(A) is not empty, so the maximal joins are the maximal sets
    of that form.  A grows one vertex at a time; once perp(A) is empty it
    stays empty for every larger A, so that branch stops.
    """
    candidates = set()

    def grow(a: int, p: int, start: int) -> None:
        for v in range(start, n):
            q = p & adj[v]
            if q:
                candidates.add(a | 1 << v | q)
                grow(a | 1 << v, q, v + 1)

    grow(0, (1 << n) - 1, 0)
    kept: list[int] = []
    for s in sorted(candidates, key=lambda m: -m.bit_count()):
        if not any(s & t == s for t in kept):
            kept.append(s)
    return _by_size(kept)


def is_module(adj: list[int], s: int) -> bool:
    """Every vertex of ``s`` has the same neighbours outside ``s``."""
    outside = None
    for v in _verts(s):
        if outside is None:
            outside = adj[v] & ~s
        elif adj[v] & ~s != outside:
            return False
    return True


def module_closure(n: int, adj: list[int], s: int) -> int:
    """Smallest module containing ``s``: add every vertex that splits it."""
    while True:
        grow = 0
        for w in range(n):
            if not s >> w & 1 and adj[w] & s not in (0, s):
                grow |= 1 << w
        if not grow:
            return s
        s |= grow


def modules(n: int, adj: list[int]) -> list[list[int]]:
    """Every module with at least two vertices, by trying every subset."""
    return _by_size(s for s in range(1, 1 << n)
                    if s.bit_count() >= 2 and is_module(adj, s))


def _prime(n: int, adj: list[int]) -> bool:
    """No module other than the whole graph has two or more vertices."""
    full = (1 << n) - 1
    return all(module_closure(n, adj, 1 << u | 1 << v) == full
               for u in range(n) for v in range(u + 1, n))


def analyze_fields(n: int, adj: list[int]) -> dict:
    """The fields of an unlabeled ``analyze`` report that follow from the graph.

    ``collapsible_min2`` is not among them (see :func:`modules`); the
    collapsible sets are exactly the modules, because no vertex is in its own
    neighbourhood.
    """
    full = (1 << n) - 1
    closed = [adj[v] | 1 << v for v in range(n)]
    comps = components(n, adj)
    clique = sum(1 << v for v in range(n) if closed[v] == full)
    parts = sorted(_complement_components(adj, full & ~clique),
                   key=lambda m: (m.bit_count(), m & -m))
    dom = [[v != w and not adj[v] & ~closed[w] for w in range(n)]
           for v in range(n)]
    untrans = sum(1 << v for v in range(n) if not any(dom[v]))
    classes = []
    seen = 0
    for v in range(n):
        if not seen >> v & 1:
            cls = 1 << v | sum(1 << w for w in range(n) if dom[v][w] and dom[w][v])
            classes.append(cls)
            seen |= cls
    low = [(c & -c).bit_length() - 1 for c in classes]
    sep = None
    for v in range(n):
        rest = full & ~closed[v]
        if rest and len(components(*induced(adj, rest))) > 1:
            sep = v
            break
    square = any(common & ~closed[a]
                 for v in range(n) for w in range(v + 1, n) if not adj[v] >> w & 1
                 for common in (adj[v] & adj[w],) for a in _verts(common))
    twins = any(adj[u] & ~(1 << v) == adj[v] & ~(1 << u)
                for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1)
    g = girth(n, adj)
    min_deg = min((row.bit_count() for row in adj), default=0)
    strongly = _prime(n, adj)
    clique_reduced = n <= 2 or not twins
    fields = {
        "n": n, "edges": edges(n, adj), "graph6": graph6(n, adj), "girth": g,
        "min_degree": min_deg, "connected": len(comps) == 1, "components": comps,
        "contains_square": square, "maximal_clique_factor": _verts(clique),
        "join_parts": [_verts(p) for p in parts],
        "maximal_join_subgraphs": maximal_joins(n, adj),
        "strongly_reduced": strongly, "clique_reduced": clique_reduced,
        "transvection_free": untrans == full,
        "untransvectable_vertices": _verts(untrans),
        "domination_pairs": [[v, w] for v in range(n) for w in range(n) if dom[v][w]],
        "domination_classes": [_verts(c) for c in classes],
        "class_graph_edges": [[i, j] for i in range(len(classes))
                              for j in range(i + 1, len(classes))
                              if adj[low[i]] >> low[j] & 1],
        "internal_vertices": [v for v in range(n) if any(
            not adj[a] >> b & 1 for a in _verts(adj[v]) for b in _verts(adj[v])
            if a < b)],
        "separating_star": sep,
    }
    fields["graph_conditions"] = {
        "transvection-free": untrans == full,
        "square-free": not square,
        "girth-at-least-5": g is None or g >= 5,
        "min-degree-at-least-2": min_deg >= 2,
        "no-separating-star": sep is None,
        "components-strongly-reduced": all(
            _prime(*induced(adj, sum(1 << v for v in c))) for c in comps),
        "clique-reduced": clique_reduced,
        "empty-clique-factor": clique == 0,
    }
    return fields


def induced(adj: list[int], mask: int) -> tuple[int, list[int]]:
    verts = [v for v in range(len(adj)) if mask >> v & 1]
    pos = {v: i for i, v in enumerate(verts)}
    rows = []
    for v in verts:
        row = 0
        for w in verts:
            if adj[v] >> w & 1:
                row |= 1 << pos[w]
        rows.append(row)
    return len(verts), rows


def shortlex(adj: list[int], letters) -> tuple[int, ...]:
    """ShortLex normal form of a word in the right-angled Coxeter group.

    Letters are stacked as a heap of pieces: a piece sits one level above the
    highest piece it does not commute with.  A new letter cancels the top
    piece of its own column when no non-commuting piece covers it.  The
    ShortLex form is read off by repeatedly taking the smallest letter whose
    lowest piece has no non-commuting piece below it.
    """
    n = len(adj)
    blocks = [~adj[a] & ((1 << n) - 1) for a in range(n)]  # includes a itself
    stacks: list[list[int]] = [[] for _ in range(n)]
    for a in letters:
        top = -1
        owner = -1
        m = blocks[a]
        while m:
            low = m & -m
            b = low.bit_length() - 1
            m ^= low
            if stacks[b] and stacks[b][-1] > top:
                top, owner = stacks[b][-1], b
        if owner == a:
            stacks[a].pop()
        else:
            stacks[a].append(top + 1)
    for s in stacks:
        s.reverse()  # lowest piece last, so pop() takes it
    out = []
    while True:
        pick = -1
        for a in range(n):
            if not stacks[a]:
                continue
            low = stacks[a][-1]
            if all(not stacks[b] or stacks[b][-1] > low
                   for b in range(n) if b != a and blocks[a] >> b & 1):
                pick = a
                break
        if pick < 0:
            return tuple(out)
        out.append(pick)
        stacks[pick].pop()


def word_boundary(adj: list[int], letters) -> tuple[int, int, int, int]:
    """(support, first letters, last letters, common link) of a reduced word."""
    n = len(adj)
    full = (1 << n) - 1
    sup = 0
    for a in letters:
        sup |= 1 << a
    first = 0
    last = 0
    for a in range(n):
        if sup >> a & 1:
            if len(shortlex(adj, (a,) + tuple(letters))) < len(letters):
                first |= 1 << a
            if len(shortlex(adj, tuple(letters) + (a,))) < len(letters):
                last |= 1 << a
    link = full
    for a in range(n):
        if sup >> a & 1:
            link &= adj[a]
    return sup, first, last, link


def gp_isomorphic(m: int, k: int, l: int) -> bool:
    """Steimle-Staton: GP(m,k) ~ GP(m,l) iff k = +-l or kl = +-1 (mod m)."""
    return (k - l) % m == 0 or (k + l) % m == 0 \
        or (k * l - 1) % m == 0 or (k * l + 1) % m == 0


_GP_SPECIAL_ORDERS = {(4, 1): 48, (5, 2): 120, (8, 3): 96, (10, 2): 120,
                      (10, 3): 240, (12, 5): 192, (24, 5): 288}


def gp_automorphism_order(m: int, k: int) -> int:
    """Frucht-Graver-Watkins: 4m if k^2 = +-1 (mod m), else 2m, bar 7 cases."""
    if (m, k) in _GP_SPECIAL_ORDERS:
        return _GP_SPECIAL_ORDERS[(m, k)]
    return 4 * m if (k * k - 1) % m == 0 or (k * k + 1) % m == 0 else 2 * m
