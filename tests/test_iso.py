import itertools
import json
import math
import time
from pathlib import Path

import pytest

from graphprod.errors import CapExceeded
from graphprod.graphs import (SimpleGraph, bits, complete_bipartite,
                              cycle_graph, edgeless_graph, from_graph6, mask_of,
                              path_graph, star_graph)
from graphprod.iso import (automorphism_group, invariant_screen, isomorphism,
                           verify_isomorphism)


def relabel(g, perm):
    return SimpleGraph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def brute_aut_count(g):
    """Full-permutation filter oracle (n <= 8)."""
    count = 0
    for p in itertools.permutations(range(g.n)):
        if all(mask_of(p[w] for w in bits(g.adj[v])) == g.adj[p[v]]
               for v in range(g.n)):
            count += 1
    return count


PRISM = SimpleGraph.from_edges(
    6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])


class TestIsomorphism:
    def test_relabelled_cycle(self, c5):
        h = relabel(c5, (2, 4, 1, 3, 0))
        w = isomorphism(c5, h)
        assert w is not None and verify_isomorphism(c5, h, w)

    def test_different_sizes(self, c5, c6):
        assert isomorphism(c5, c6) is None

    def test_same_degree_sequence_not_isomorphic(self):
        # prism vs K_{3,3}: both 3-regular on 6 vertices, girth 3 vs 4
        k33 = complete_bipartite(3, 3)
        assert PRISM.degree_sequence() == k33.degree_sequence()
        assert isomorphism(PRISM, k33) is None

    def test_cycle6_vs_k33_distinguished_by_girth(self, c6):
        from graphprod.graphs import girth
        k33 = complete_bipartite(3, 3)
        assert girth(c6) == 6 and girth(k33) == 4
        assert isomorphism(c6, k33) is None

    def test_identity_first_on_equal_inputs(self, petersen):
        assert isomorphism(petersen, petersen) == tuple(range(10))

    def test_symmetric_with_composable_witnesses(self, c6):
        h = relabel(c6, (5, 3, 1, 0, 2, 4))
        w1 = isomorphism(c6, h)
        w2 = isomorphism(h, c6)
        assert w1 is not None and w2 is not None
        composed = tuple(w2[w1[v]] for v in range(6))
        assert verify_isomorphism(c6, c6, composed)

    def test_exhaustive_pairs_vs_screen(self):
        from graphprod.verify import enumerate_graphs
        graphs = enumerate_graphs(5).graphs
        for g, h in itertools.combinations(graphs, 2):
            w = isomorphism(g, h)
            assert w is None  # catalog graphs are pairwise non-isomorphic
        for g in graphs:
            h = relabel(g, (4, 2, 0, 3, 1))
            w = isomorphism(g, h)
            assert w is not None and verify_isomorphism(g, h, w)
            assert invariant_screen(g, h)  # screen never rejects an accepted pair


class TestLabeledIsomorphism:
    def test_uniform_labels(self, c5):
        h = relabel(c5, (1, 2, 3, 4, 0))
        w = isomorphism(c5, h, [0] * 5, [0] * 5)
        assert w is not None

    def test_alternating_vs_scrambled(self, c6):
        # (A,B,A,B,A,B) against (A,A,B,B,A,B): no colour-preserving map
        assert isomorphism(c6, c6, [0, 1, 0, 1, 0, 1], [0, 0, 1, 1, 0, 1]) is None

    def test_alternating_vs_shifted(self, c6):
        w = isomorphism(c6, c6, [0, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0])
        assert w is not None and w[0] % 2 == 1

    def test_erased_labels_still_isomorphism(self, c6):
        w = isomorphism(c6, c6, [0, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0])
        assert verify_isomorphism(c6, c6, w)


class TestAutomorphismGroup:
    def test_orders(self, c5, petersen):
        assert automorphism_group(c5).order == 10
        assert automorphism_group(petersen).order == 120

    @pytest.mark.parametrize("g,order", [
        (cycle_graph(6), 12),
        (complete_bipartite(3, 3), 72),
        (complete_bipartite(2, 5), 240),
        (star_graph(4), 24),
        (path_graph(5), 2),
        (edgeless_graph(5), 120),
        (PRISM, 12),
    ])
    def test_known_orders(self, g, order):
        assert automorphism_group(g).order == order

    def test_against_full_permutation_filter(self):
        from graphprod.verify import enumerate_graphs
        for g in enumerate_graphs(5).graphs:
            assert automorphism_group(g).order == brute_aut_count(g)
        for g in (cycle_graph(6), complete_bipartite(3, 3), path_graph(7)):
            assert automorphism_group(g).order == brute_aut_count(g)

    def test_generators_close_to_order(self, petersen):
        aut = automorphism_group(petersen)
        elems = {tuple(range(10))}
        frontier = list(elems)
        while frontier:
            nxt = []
            for x in frontier:
                for gen in aut.generators:
                    y = tuple(gen[x[v]] for v in range(10))
                    if y not in elems:
                        elems.add(y)
                        nxt.append(y)
            frontier = nxt
        assert len(elems) == aut.order

    def test_orbits(self, petersen):
        assert automorphism_group(petersen).orbits == (petersen.full_mask,)
        assert automorphism_group(star_graph(3)).orbits == (1, 0b1110)

    def test_labeled_subgroup(self, c6):
        aut = automorphism_group(c6, colors=[0, 1, 0, 1, 0, 1])
        assert aut.order == 6

    def test_cap(self):
        with pytest.raises(CapExceeded):
            automorphism_group(edgeless_graph(17))

    def test_golden(self):
        """Generators, order and orbits as the full listing with greedy
        closure reported them: every graph with n <= 6, uncoloured and under
        a seeded 2-colouring, plus Petersen, C12, K3,3 and GP(8,3)."""
        path = Path(__file__).parent / "data" / "automorphism_golden.json"
        cases = json.loads(path.read_text())["cases"]
        assert len(cases) == 424
        for case in cases:
            aut = automorphism_group(from_graph6(case["graph6"]), case["colors"])
            assert [list(p) for p in aut.generators] == case["generators"], case
            assert aut.order == case["order"], case
            assert list(aut.orbits) == case["orbits"], case

    def test_order_is_group_size(self):
        from graphprod.verify import _all_elements, enumerate_graphs
        for n in range(1, 8):
            for g in enumerate_graphs(n).graphs:
                aut = automorphism_group(g)
                assert aut.order == len(_all_elements(aut, n))

    @pytest.mark.parametrize("g,order", [
        (edgeless_graph(16), math.factorial(16)),
        (complete_bipartite(8, 8), 2 * math.factorial(8) ** 2),
    ])
    def test_large_groups_without_listing(self, g, order):
        start = time.perf_counter()
        assert automorphism_group(g).order == order
        assert time.perf_counter() - start < 1.0
