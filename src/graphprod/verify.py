"""Brute-force oracles: graph catalogs, lemma sweeps, sampling, word oracle.

Everything here is deliberately independent of the fast paths it validates.
The word oracle reduces words by repeatedly deleting letter pairs that can be
brought together through commuting letters, then takes the Cartier-Foata
block normal form of the result as the element key; the engine in
:mod:`graphprod.words` uses a ShortLex scheme instead, so agreement between
the two is meaningful.  Balls of elements are checked twice: against the
Cayley-graph BFS that deduplicates by normal form (it shares the engine's
letter-by-letter reduction, not its automaton walk) and against the
closed-form growth series computed from clique counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

from .errors import CapExceeded
from .graphs import (SimpleGraph, bits, components, components_induced,
                     contains_square, girth, induced, is_clique, is_edgeless,
                     mask_of, min_degree, star)
from . import structure
from .iso import automorphism_group
from .words import _reduced_append, _shortlex

# unlabeled simple graph counts (OEIS A000088), index = vertex count
KNOWN_GRAPH_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)


# -- canonical forms and the catalog ----------------------------------------

def _stable_colors(g: SimpleGraph) -> list[int]:
    colors = [0] * g.n
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in bits(g.adj[v]))))
                for v in range(g.n)]
        table = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [table[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def canonical_key(g: SimpleGraph) -> tuple:
    """Minimum adjacency encoding over all colour-consistent permutations.

    The row encoding (adjacency of position p to positions < p) is minimized
    lexicographically over permutations that respect the stable refinement
    colouring.  Colour classes are isomorphism-invariant, so this is a true
    canonical form while searching far fewer than n! permutations.
    """
    n = g.n
    if n == 0:
        return (0,)
    colors = _stable_colors(g)
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    slot_color = sorted(colors)
    best: list[int] | None = None
    placed = [0] * n  # placed[p] = vertex at position p
    rows = [0] * n

    def rec(p: int, used: int):
        nonlocal best
        if p == n:
            if best is None or rows < best:
                best = rows.copy()
            return
        for v in cells[slot_color[p]]:
            if used >> v & 1:
                continue
            row = 0
            for q in range(p):
                row = row << 1 | (g.adj[v] >> placed[q] & 1)
            if best is not None:
                prefix = rows[:p] + [row]
                if prefix > best[:p + 1]:
                    continue
            placed[p] = v
            rows[p] = row
            rec(p + 1, used | 1 << v)

    rec(0, 0)
    assert best is not None
    return (n, *best)


@dataclass(frozen=True)
class GraphCatalog:
    """One representative per isomorphism class of graphs on ``n`` vertices."""

    n: int
    graphs: tuple[SimpleGraph, ...]


@lru_cache(maxsize=None)
def enumerate_graphs(n: int) -> GraphCatalog:
    """All isomorphism classes with ``n`` vertices, built incrementally.

    Every graph on n vertices is some (n-1)-vertex graph plus one vertex with
    an arbitrary neighbour set, so extending the previous catalog and
    deduplicating by canonical key is exhaustive.
    """
    if not 1 <= n <= 8:
        raise ValueError("catalog enumeration is limited to 1 <= n <= 8")
    if n == 1:
        return GraphCatalog(1, (SimpleGraph(1, (0,)),))
    prev = enumerate_graphs(n - 1)
    found: dict[tuple, SimpleGraph] = {}
    for g in prev.graphs:
        for extra in range(1 << (n - 1)):
            rows = [row | ((extra >> v & 1) << (n - 1))
                    for v, row in enumerate(g.adj)]
            rows.append(extra)
            h = SimpleGraph(n, tuple(rows))
            key = canonical_key(h)
            if key not in found:
                found[key] = h
    graphs = tuple(found[k] for k in sorted(found))
    return GraphCatalog(n, graphs)


# -- exhaustive structure oracles ----------------------------------------------
#
# The definitions of the subgraph families in graphprod.structure, read
# literally: walk all 2**n vertex subsets.  The fast paths there never call
# these; the tests compare the two on catalogs and random graphs.

def collapsible_subgraphs_exhaustive(g: SimpleGraph, min_size: int) -> list[int]:
    """Every collapsible set with at least ``min_size`` vertices, by (size, mask)."""
    if min_size < 1:
        raise ValueError("min_size must be at least 1")
    out = [s for s in range(1, 1 << g.n)
           if s.bit_count() >= min_size and structure.is_collapsible(g, s)]
    out.sort(key=lambda s: (s.bit_count(), s))
    return out


def is_strongly_reduced_exhaustive(g: SimpleGraph) -> bool:
    """No proper collapsible set on >= 2 vertices."""
    full = g.full_mask
    return not any(s != full and s.bit_count() >= 2
                   and structure.is_collapsible(g, s)
                   for s in range(1, 1 << g.n))


def is_clique_reduced_exhaustive(g: SimpleGraph) -> bool:
    """No proper collapsible clique on >= 2 vertices."""
    full = g.full_mask
    return not any(s != full and s.bit_count() >= 2 and is_clique(g, s)
                   and structure.is_collapsible(g, s)
                   for s in range(1, 1 << g.n))


def maximal_join_subgraphs_exhaustive(g: SimpleGraph) -> list[int]:
    """Every inclusion-maximal vertex set that splits as a join, by (size, mask)."""
    joins = [s for s in range(1, 1 << g.n) if structure.is_join(g, s)]
    out = [s for s in joins
           if not any(t != s and t & s == s for t in joins)]
    out.sort(key=lambda s: (s.bit_count(), s))
    return out


# -- lemma sweeps -------------------------------------------------------------

def _hyp_girth_mindeg(g: SimpleGraph) -> bool:
    return girth(g) >= 5 and min_degree(g) >= 2


def _con_transvection_free(g: SimpleGraph) -> bool:
    return structure.is_transvection_free(g)


def _hyp_tf_square_free(g: SimpleGraph) -> bool:
    return structure.is_transvection_free(g) and not contains_square(g)


def _con_components_strongly_reduced(g: SimpleGraph) -> bool:
    return all(structure.is_strongly_reduced(c) for c in components_induced(g))


def _con_collapsible_union(g: SimpleGraph) -> bool:
    comps = components(g)
    for s in structure.collapsible_subgraphs(g, 2):
        union = 0
        for c in comps:
            if c & s:
                union |= c
        if union != s:
            return False
    return True


def _con_class_shapes(g: SimpleGraph) -> bool:
    q = structure.domination_classes(g)
    for m in q.classes:
        if not structure.is_collapsible(g, m):
            return False
        if not (is_clique(g, m) or is_edgeless(g, m)):
            return False
    return True


def _hyp_stars(g: SimpleGraph) -> bool:
    return g.n >= 2 and _hyp_tf_square_free(g)


def _con_stars(g: SimpleGraph) -> bool:
    joins = structure.maximal_join_subgraphs(g)
    if set(joins) != {star(g, v) for v in range(g.n)}:
        return False
    for v in range(g.n):
        st_graph, st_verts = induced(g, star(g, v))
        if structure.maximal_clique_factor(st_graph) != 1 << st_verts.index(v):
            return False
        if g.adj[v]:
            lk_graph, _ = induced(g, g.adj[v])
            if structure.is_join(lk_graph, lk_graph.full_mask):
                return False
    return True


def _hyp_clique_reduced(g: SimpleGraph) -> bool:
    return structure.is_clique_reduced(g)


def _con_automorphism_class_iso(g: SimpleGraph) -> bool:
    """Every automorphism, read as a map onto vertex singletons, must carry
    domination classes to domination classes and induce mutually inverse
    isomorphisms of the class quotient graph."""
    q = structure.domination_classes(g)
    class_index = {m: i for i, m in enumerate(q.classes)}
    aut = automorphism_group(g)
    qg = q.graph
    for perm in _all_elements(aut, g.n):
        inv = [0] * g.n
        for v in range(g.n):
            inv[perm[v]] = v
        # premises: adjacency carries over in both directions
        for v, w in g.edges():
            if not (g.has_edge(perm[v], perm[w]) and g.has_edge(inv[v], inv[w])):
                return False
        fwd, bwd = [], []
        for m in q.classes:
            img = mask_of(perm[v] for v in bits(m))
            pre = mask_of(inv[v] for v in bits(m))
            if img not in class_index or pre not in class_index:
                return False
            fwd.append(class_index[img])
            bwd.append(class_index[pre])
        if any(bwd[fwd[i]] != i for i in range(len(fwd))):
            return False
        for i in range(qg.n):
            if mask_of(fwd[j] for j in bits(qg.adj[i])) != qg.adj[fwd[i]]:
                return False
    return True


def _all_elements(aut, n: int) -> list[tuple[int, ...]]:
    elems = {tuple(range(n))}
    frontier = list(elems)
    while frontier:
        nxt = []
        for x in frontier:
            for gen in aut.generators:
                y = tuple(gen[x[v]] for v in range(n))
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(elems)


def _always(g: SimpleGraph) -> bool:
    return True


LEMMAS = {
    "girth-implies-transvection-free":
        (_hyp_girth_mindeg, _con_transvection_free),
    "square-free-implies-strongly-reduced":
        (_hyp_tf_square_free, _con_components_strongly_reduced),
    "collapsible-is-component-union":
        (_con_components_strongly_reduced, _con_collapsible_union),
    "equivalence-classes-collapsible":
        (_always, _con_class_shapes),
    "maximal-joins-are-stars":
        (_hyp_stars, _con_stars),
    "automorphism-induces-class-isomorphism":
        (_hyp_clique_reduced, _con_automorphism_class_iso),
}


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    checked: int
    counterexamples: tuple[SimpleGraph, ...]


def check_lemma(catalog: GraphCatalog, lemma: str,
                drop_hypothesis: bool = False) -> LemmaReport:
    """Run one lemma over a catalog; returns every violating graph.

    ``drop_hypothesis`` is a negative-control switch: it applies the
    conclusion check to all graphs, which must produce counterexamples for a
    true conditional lemma.
    """
    if lemma not in LEMMAS:
        raise ValueError(f"unknown lemma token {lemma!r}")
    hyp, con = LEMMAS[lemma]
    if drop_hypothesis:
        hyp = _always
    bad = []
    checked = 0
    for g in catalog.graphs:
        if not hyp(g):
            continue
        checked += 1
        if not con(g):
            bad.append(g)
    return LemmaReport(lemma, checked, tuple(bad))


# -- Erdos-Renyi sampling ------------------------------------------------------

_M64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


SAMPLE_PREDICATES = {
    "transvection_free": structure.is_transvection_free,
    "girth_ge_5": lambda g: girth(g) >= 5,
    "square_free": lambda g: not contains_square(g),
    "min_degree_ge_2": lambda g: min_degree(g) >= 2,
    "connected": lambda g: len(components(g)) == 1,
}


@dataclass(frozen=True)
class SampleReport:
    n: int
    p: float
    trials: int
    seed: int
    counts: tuple[tuple[str, int], ...]

    def fraction(self, name: str) -> float:
        return dict(self.counts)[name] / self.trials

    def to_json_obj(self) -> dict:
        return {
            "n": self.n, "p": self.p, "trials": self.trials, "seed": self.seed,
            "counts": {k: v for k, v in self.counts},
            "fractions": {k: v / self.trials for k, v in self.counts},
        }


def random_graph(n: int, p: float, seed: int, trial: int = 0) -> SimpleGraph:
    """One G(n, p) draw from the counter-based generator."""
    if not 0 < p < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    threshold = round(p * 2.0 ** 64)
    # counter-based: edge e is present iff hash(key ^ e) < threshold, with
    # key a hash of (seed, trial), so any sharding of trials or edges
    # reproduces the same graphs
    key = _splitmix64(_splitmix64(seed & _M64) ^ trial)
    rows = [0] * n
    e = 0
    for i in range(n):
        for j in range(i + 1, n):
            if _splitmix64(key ^ e) < threshold:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            e += 1
    return SimpleGraph(n, tuple(rows))


def sample_er(n: int, p: float, trials: int, seed: int) -> SampleReport:
    """Sample G(n, p) and count predicate hits; bit-reproducible per seed."""
    if not 0 < p < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    counts = {name: 0 for name in SAMPLE_PREDICATES}
    for t in range(trials):
        g = random_graph(n, p, seed, t)
        for name, fn in SAMPLE_PREDICATES.items():
            if fn(g):
                counts[name] += 1
    return SampleReport(n, p, trials, seed,
                        tuple(sorted(counts.items())))


# -- word balls: the Cayley-graph BFS and the growth series ------------------

def enumerate_words_bfs(graph: SimpleGraph, max_len: int,
                        letters: int | None = None) -> tuple[tuple, tuple[int, ...]]:
    """``(words, strata)`` of the ball, by BFS over the Cayley graph.

    Every element of a layer is multiplied by every letter of ``letters``
    (default: all vertices), reduced to ShortLex normal form and deduplicated
    against the elements seen so far; each layer is sorted.  This is the
    enumerator the automaton walk in :mod:`graphprod.words` replaced, kept to
    check that walk's output and order.
    """
    nonadj = graph.nonadj
    adj = graph.adj
    gens = list(bits(graph.full_mask if letters is None else letters))
    seen = {()}
    strata = [1]
    frontier = [()]
    words = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for a in gens:
                lst = list(w)
                _reduced_append(adj, lst, a)
                if len(lst) <= len(w):
                    continue
                nf = _shortlex(nonadj, lst)
                if nf not in seen:
                    seen.add(nf)
                    nxt.append(nf)
        nxt.sort()
        strata.append(len(nxt))
        words.extend(nxt)
        frontier = nxt
    return tuple(words), tuple(strata)


def _clique_counts(g: SimpleGraph) -> list[int]:
    """``counts[k]``: the number of cliques on ``k`` vertices (``counts[0] == 1``)."""
    counts = [1]

    def grow(size: int, candidates: int):
        for v in bits(candidates):
            if len(counts) <= size + 1:
                counts.append(0)
            counts[size + 1] += 1
            grow(size + 1, candidates & g.adj[v] & ~((2 << v) - 1))

    grow(0, g.full_mask)
    return counts


def growth_series(g: SimpleGraph, max_len: int) -> tuple[int, ...]:
    """Number of elements of each length 0..max_len, in closed form.

    The growth series W(t) of a right-angled Coxeter group satisfies
    1/W(t) = sum over cliques s of (-t/(1+t))**|s|.  With d the clique
    number, multiplying through by (1+t)**d gives W = (1+t)**d / P with
    P(t) = sum_k c_k (-t)**k (1+t)**(d-k) and P(0) = 1, so the coefficients
    follow from integer power-series division.
    """
    counts = _clique_counts(g)
    d = len(counts) - 1
    poly = [0] * (d + 1)
    for k, c in enumerate(counts):
        for j in range(d - k + 1):  # (-t)**k * binom(d-k, j) t**j
            poly[k + j] += c * (-1) ** k * math.comb(d - k, j)
    out: list[int] = []
    for m in range(max_len + 1):
        out.append(math.comb(d, m) - sum(poly[j] * out[m - j]
                                         for j in range(1, min(m, d) + 1)))
    return tuple(out)


# -- the word oracle -----------------------------------------------------------

class WordOracle:
    """Exhaustive word arithmetic, independent of the ShortLex engine.

    Reduction repeatedly deletes a pair of equal letters separated only by
    letters commuting with them (i.e. a pair that adjacent transpositions can
    bring together), to a fixpoint.  The canonical key is the Cartier-Foata
    normal form of the reduced word: repeatedly extract the sorted block of
    letters with no earlier non-commuting letter.  The flattened block
    sequence is itself a reduced word and identifies the group element.

    Balls are walked by heaps of pieces (Viennot 1986), stored as tuples of
    Cartier-Foata blocks (letter masks): :meth:`_append` adds a letter by one
    block update and never calls :meth:`canon`, so the two check each other.
    Product membership is exact at any radius >= |w| (deletion condition).
    """

    def __init__(self, graph: SimpleGraph, max_len: int,
                 cap: int = 10_000_000):
        self.graph = graph
        self.max_len = max_len
        self.cap = cap
        self._nonadj = tuple(graph.full_mask & ~row for row in graph.adj)
        self._adj = graph.adj

    # - reduction -

    def reduced_word(self, letters) -> tuple[int, ...]:
        word = list(letters)
        adj = self._adj
        changed = True
        while changed:
            changed = False
            for i in range(len(word)):
                a = word[i]
                for j in range(i + 1, len(word)):
                    if word[j] == a:
                        del word[j], word[i]
                        changed = True
                        break
                    if not adj[word[j]] >> a & 1:
                        break
                if changed:
                    break
        return tuple(word)

    def canon(self, letters) -> bytes:
        """Canonical key: Cartier-Foata flattening of the reduced word."""
        rem = list(self.reduced_word(letters))
        nonadj = self._nonadj
        out = []
        while rem:
            acc = 0
            block = []
            idxs = []
            for i, c in enumerate(rem):
                if not acc >> c & 1:
                    block.append(c)
                    idxs.append(i)
                acc |= nonadj[c]
            block.sort()
            out.extend(block)
            for i in reversed(idxs):
                del rem[i]
        return bytes(out)

    def equal(self, u, v) -> bool:
        return self.canon(u) == self.canon(v)

    # - heaps of pieces -

    def _append(self, heap: tuple, a: int) -> tuple:
        """The heap times the letter ``a``.  ``a`` lands one block above the
        highest block meeting ``nonadj[a]`` (``a`` included); if that block
        holds ``a`` the two cancel.  No other piece moves, and a block can
        empty only if it is the top one."""
        conflict = self._nonadj[a]
        j = len(heap) - 1
        while j >= 0 and not heap[j] & conflict:
            j -= 1
        if j >= 0 and heap[j] >> a & 1:
            block = heap[j] ^ 1 << a
            return heap[:j] + (block,) + heap[j + 1:] if block else heap[:j]
        if j + 1 == len(heap):
            return heap + (1 << a,)
        return heap[:j + 1] + (heap[j + 1] | 1 << a,) + heap[j + 2:]

    @staticmethod
    def _key(heap: tuple) -> bytes:
        """The :meth:`canon` key of a heap: its blocks, flattened."""
        return bytes(c for block in heap for c in bits(block))

    def _ball(self, s: int) -> tuple[list[tuple], list[list[int]]]:
        """Heaps of the elements of W_s within the radius, in BFS order (so by
        length), and ``trans[i][a]``: the index of heap ``i`` times ``a``, or
        -1 past the radius or for ``a`` outside ``s``."""
        letters = list(bits(s))
        heaps = [()]
        index = {(): 0}
        trans = []
        for heap in heaps:  # grows while it is walked
            row = [-1] * self.graph.n
            room = sum(map(int.bit_count, heap)) < self.max_len
            for a in letters:
                nxt = self._append(heap, a)
                j = index.get(nxt)
                if j is None and room:  # a new element is one letter longer
                    if len(heaps) >= self.cap:
                        raise CapExceeded("word oracle ball exceeded cap")
                    j = index[nxt] = len(heaps)
                    heaps.append(nxt)
                if j is not None:
                    row[a] = j
            trans.append(row)
        return heaps, trans

    # - the ball table, built on first read -

    @cached_property
    def _table(self) -> tuple[list[bytes], list[list[int]], list[int]]:
        heaps, trans = self._ball(self.graph.full_mask)
        words = [self._key(h) for h in heaps]
        strata = [0] * (self.max_len + 1)
        for w in words:
            strata[len(w)] += 1
        return words, trans, strata

    words = property(lambda self: self._table[0])
    trans = property(lambda self: self._table[1])
    strata = property(lambda self: self._table[2])

    # - subgroup and product-set enumeration -

    def subgroup_keys(self, s: int) -> frozenset:
        """Keys of all parabolic-subgroup elements within the radius."""
        return frozenset(self._key(h) for h in self._ball(s)[0])

    def _product_keys(self, factor_masks) -> set[tuple]:
        """Heaps of the product of the parabolics, truncated at the radius."""
        acc: set[tuple] = {()}
        for s in factor_masks:
            ball = [self._key(h) for h in self._ball(s)[0]]
            new: set[tuple] = set()
            for x in acc:
                for y in ball:
                    heap = reduce(self._append, y, x)
                    if sum(map(int.bit_count, heap)) <= self.max_len:
                        new.add(heap)
                if len(new) > self.cap:
                    raise CapExceeded("oracle product set exceeded cap")
            acc = new
        return acc

    def product_membership(self, letters, factor_masks) -> bool:
        """Exhaustive membership in a product of parabolic subgroups.

        Factors and intermediate products are truncated at the oracle radius,
        which loses nothing once the radius is at least the length of the
        element; the check is split meet-in-the-middle so medium factor
        counts stay tractable.
        """
        if not factor_masks:
            raise ValueError("factor list must be nonempty")
        target = self.reduced_word(letters)
        if len(target) > self.max_len:
            raise CapExceeded(
                "oracle radius insufficient for the target word length")
        k = len(factor_masks)
        left = self._product_keys(factor_masks[:(k + 1) // 2])
        right = self._product_keys(factor_masks[(k + 1) // 2:])
        return any(reduce(self._append, self._key(x)[::-1] + bytes(target), ())
                   in right for x in left)
