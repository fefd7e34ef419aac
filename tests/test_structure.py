import itertools

import pytest

from graphprod.graphs import (SimpleGraph, bits, complete_graph,
                              edgeless_graph, induced, is_clique, is_edgeless,
                              mask_of, path_graph, star, star_graph)
from graphprod.iso import isomorphism
from graphprod.structure import (collapse, collapsible_subgraphs, dominates,
                                 domination_classes, domination_pairs,
                                 has_separating_star,
                                 internal_vertices, is_clique_reduced,
                                 is_collapsible, is_join, is_strongly_reduced,
                                 is_transvection_free, join_decomposition,
                                 maximal_clique_factor, maximal_join_subgraphs,
                                 module_closure, substitute,
                                 transvection_structure,
                                 untransvectable_subgraph,
                                 untransvectable_vertices)
from graphprod.verify import (collapsible_subgraphs_exhaustive,
                              enumerate_graphs, is_clique_reduced_exhaustive,
                              is_strongly_reduced_exhaustive,
                              maximal_join_subgraphs_exhaustive, random_graph)


def brute_collapsible(g, s):
    """Definition recheck, written directly from set comprehension."""
    if s == 0:
        return False
    outside = [v for v in range(g.n) if not s >> v & 1]
    p = {w for w in outside if all(g.has_edge(w, v) for v in bits(s))}
    for v in bits(s):
        st_out = {w for w in outside if g.has_edge(v, w)}
        if st_out != p:
            return False
    return True


class TestCliqueFactorAndJoins:
    def test_maximal_clique_factor(self, c5, k4):
        assert maximal_clique_factor(star_graph(4)) == 1
        assert maximal_clique_factor(k4) == k4.full_mask
        assert maximal_clique_factor(c5) == 0

    def test_join_decomposition_square(self, c4):
        jd = join_decomposition(c4)
        assert jd.clique_factor == 0
        assert set(jd.parts) == {mask_of([0, 2]), mask_of([1, 3])}

    def test_join_decomposition_bipartite(self, k23):
        jd = join_decomposition(k23)
        assert jd.clique_factor == 0
        assert set(jd.parts) == {mask_of([0, 1]), mask_of([2, 3, 4])}

    def test_join_decomposition_irreducible(self, c5):
        jd = join_decomposition(c5)
        assert jd.clique_factor == 0 and jd.parts == (c5.full_mask,)

    def test_reconstruction_and_cross_adjacency(self):
        from graphprod.verify import enumerate_graphs
        for g in enumerate_graphs(6).graphs:
            jd = join_decomposition(g)
            pieces = [jd.clique_factor] + list(jd.parts)
            covered = 0
            for p in pieces:
                assert covered & p == 0
                covered |= p
            assert covered == g.full_mask
            # any two vertices in different pieces are adjacent
            for p, q in itertools.combinations(pieces, 2):
                for v in bits(p):
                    assert q & ~g.adj[v] == 0
            # each part induces an irreducible graph
            for p in jd.parts:
                h, _ = induced(g, p)
                assert not is_join(h, h.full_mask)

    def test_maximal_join_subgraphs(self, c5, k4):
        assert set(maximal_join_subgraphs(c5)) == {star(c5, v) for v in range(5)}
        assert maximal_join_subgraphs(k4) == [k4.full_mask]
        assert maximal_join_subgraphs(edgeless_graph(3)) == []


class TestCollapsible:
    def test_path_example(self):
        p3 = path_graph(3)
        assert collapsible_subgraphs(p3, 2) == [mask_of([0, 2]), p3.full_mask]

    def test_c5_only_whole(self, c5):
        assert collapsible_subgraphs(c5, 2) == [c5.full_mask]

    def test_singletons_always(self, petersen, k23):
        for g in (petersen, k23):
            singles = [s for s in collapsible_subgraphs(g, 1) if s.bit_count() == 1]
            assert len(singles) == g.n

    def test_min_size_validation(self, c5):
        with pytest.raises(ValueError):
            collapsible_subgraphs(c5, 0)

    def test_against_definition_recheck(self):
        from graphprod.verify import enumerate_graphs
        for g in enumerate_graphs(5).graphs:
            for s in range(1, 1 << g.n):
                assert is_collapsible(g, s) == brute_collapsible(g, s)

    def test_reduced_flags(self, c4, c5):
        assert (is_strongly_reduced(c5), is_clique_reduced(c5)) == (True, True)
        assert (is_strongly_reduced(c4), is_clique_reduced(c4)) == (False, True)
        k3 = complete_graph(3)
        assert (is_strongly_reduced(k3), is_clique_reduced(k3)) == (False, False)


def assert_matches_oracles(g):
    for k in (1, 2):
        assert collapsible_subgraphs(g, k) == collapsible_subgraphs_exhaustive(g, k)
    assert maximal_join_subgraphs(g) == maximal_join_subgraphs_exhaustive(g)
    assert is_strongly_reduced(g) == is_strongly_reduced_exhaustive(g)
    assert is_clique_reduced(g) == is_clique_reduced_exhaustive(g)


class TestAgainstExhaustiveOracles:
    """The NextClosure, module-closure and twin paths against the 2^n walks."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_catalog(self, n):
        for g in enumerate_graphs(n).graphs:
            assert_matches_oracles(g)

    @pytest.mark.parametrize("n", range(8, 13))
    def test_random_graphs(self, n):
        for trial, p in enumerate((0.1, 0.3, 0.5, 0.7, 0.9)):
            assert_matches_oracles(random_graph(n, p, seed=n, trial=trial))

    def test_empty_graph(self):
        g = SimpleGraph(0, ())
        assert collapsible_subgraphs(g, 1) == []
        assert maximal_join_subgraphs(g) == []
        assert is_strongly_reduced(g) and is_clique_reduced(g)

    def test_k2_is_its_own_twin_pair(self, edge):
        assert is_clique_reduced(edge) and is_clique_reduced_exhaustive(edge)
        assert not is_clique_reduced(complete_graph(3))

    def test_module_closure_is_least_collapsible_superset(self):
        for g in enumerate_graphs(5).graphs:
            modules = collapsible_subgraphs_exhaustive(g, 1)
            for s in range(1, 1 << g.n):
                least = min((m for m in modules if m & s == s),
                            key=lambda m: m.bit_count())
                assert module_closure(g, s) == least
            assert module_closure(g, 0) == 0

    @pytest.mark.parametrize("k", range(13))
    def test_edgeless_every_subset(self, k):
        assert len(collapsible_subgraphs(edgeless_graph(k), 2)) == 2 ** k - k - 1

    def test_n64_smoke(self):
        import time
        g = random_graph(64, 0.1, seed=1)
        for fn in (is_strongly_reduced, lambda h: collapsible_subgraphs(h, 2)):
            t0 = time.perf_counter()
            fn(g)
            assert time.perf_counter() - t0 < 1.0


class TestTransvections:
    def test_c5_all_untransvectable(self, c5):
        untrans, pairs, classes = transvection_structure(c5)
        assert untrans == c5.full_mask and pairs == []
        assert isomorphism(classes.graph, c5) is not None

    def test_path5(self, path5):
        assert untransvectable_vertices(path5) == mask_of([1, 2, 3])
        sub = untransvectable_subgraph(path5)
        assert isomorphism(sub, path_graph(3)) is not None

    def test_k23_classes(self, k23):
        q = domination_classes(k23)
        assert set(q.classes) == {mask_of([0, 1]), mask_of([2, 3, 4])}
        assert q.graph.n == 2 and q.graph.edge_count() == 1
        assert untransvectable_vertices(k23) == 0

    def test_c6_untouched(self, c6):
        assert untransvectable_subgraph(c6).adj == c6.adj

    def test_k3_empty_sentinel(self):
        sub = untransvectable_subgraph(complete_graph(3))
        assert sub.n == 0 and sub.adj == ()

    def test_matches_pairwise_domination(self):
        # the relation is decided once per graph; compare every derived
        # field with the pairwise definition
        graphs = [g for n in range(1, 7) for g in enumerate_graphs(n).graphs]
        graphs += [random_graph(12, p, seed=3, trial=t)
                   for p in (0.3, 0.7) for t in range(5)]
        for g in graphs:
            dom = [[dominates(g, v, w) for w in range(g.n)] for v in range(g.n)]
            pairs = [(v, w) for v in range(g.n) for w in range(g.n) if dom[v][w]]
            untrans = mask_of(v for v in range(g.n) if not any(dom[v]))
            cls_of = list(range(g.n))
            for v in range(g.n):
                for w in range(v):
                    if dom[v][w] and dom[w][v]:
                        cls_of[v] = cls_of[w]
                        break
            classes = {}
            for v in range(g.n):
                classes[cls_of[v]] = classes.get(cls_of[v], 0) | 1 << v
            got_untrans, got_pairs, q = transvection_structure(g)
            assert (got_untrans, got_pairs) == (untrans, pairs)
            assert q.classes == tuple(classes.values())
            assert domination_pairs(g) == pairs
            assert untransvectable_vertices(g) == untrans
            assert domination_classes(g).classes == q.classes

    def test_transvection_free_fixed_points(self):
        # transvection-free graphs are their own untransvectable subgraph and
        # their own domination quotient
        from graphprod.verify import enumerate_graphs
        for g in enumerate_graphs(6).graphs:
            if not is_transvection_free(g):
                continue
            assert untransvectable_subgraph(g).adj == g.adj
            q = domination_classes(g)
            assert all(m.bit_count() == 1 for m in q.classes)
            assert isomorphism(q.graph, g) is not None


class TestMiscQueries:
    def test_internal_vertices(self, c5, k4):
        assert internal_vertices(c5) == c5.full_mask
        assert internal_vertices(k4) == 0
        assert internal_vertices(star_graph(3)) == 1

    def test_separating_star(self, c5, path5, petersen):
        assert has_separating_star(c5) is None
        assert has_separating_star(path5) == 2
        assert has_separating_star(petersen) is None


class TestSurgery:
    def test_collapse_square_to_path(self, c4):
        out = collapse(c4, mask_of([0, 2]))
        assert isomorphism(out, path_graph(3)) is not None

    def test_collapse_rejects_non_collapsible(self, c5):
        with pytest.raises(ValueError):
            collapse(c5, mask_of([0, 1]))

    def test_substitute_edge_endpoint(self):
        edge = SimpleGraph.from_edges(2, [(0, 1)])
        out = substitute(edge, 0, edgeless_graph(2))
        assert isomorphism(out, star_graph(2)) is not None

    def test_substitute_collapse_round_trip(self, c5):
        for v in range(5):
            for h in (edgeless_graph(2), path_graph(3), complete_graph(2)):
                grown = substitute(c5, v, h)
                image = mask_of(range(v, v + h.n))
                assert is_collapsible(grown, image)
                assert collapse(grown, image).adj == c5.adj

    def test_new_vertex_adjacency(self, c4):
        out = collapse(c4, mask_of([1, 3]))
        # collapsed vertex keeps smallest index of the set, adjacency = perp
        assert sorted(bits(out.adj[1])) == [0, 2]


class TestLemmaLevelInvariants:
    """Exhaustive small-graph sweeps used as module-level properties; the
    acceptance suite reruns them through graphprod.verify at n <= 7."""

    def test_girth_mindeg_implies_transvection_free(self):
        from graphprod.verify import enumerate_graphs
        from graphprod.graphs import girth, min_degree
        for n in range(1, 7):
            for g in enumerate_graphs(n).graphs:
                if girth(g) >= 5 and min_degree(g) >= 2:
                    assert is_transvection_free(g)

    def test_class_shape(self):
        from graphprod.verify import enumerate_graphs
        for g in enumerate_graphs(5).graphs:
            for m in domination_classes(g).classes:
                assert is_collapsible(g, m)
                assert is_clique(g, m) or is_edgeless(g, m)

    def test_stars_lemma_small(self):
        from graphprod.verify import enumerate_graphs
        from graphprod.graphs import contains_square
        for g in enumerate_graphs(6).graphs:
            if g.n < 2 or not is_transvection_free(g) or contains_square(g):
                continue
            assert set(maximal_join_subgraphs(g)) == {star(g, v) for v in range(g.n)}
