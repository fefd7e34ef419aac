import ast
import hashlib
import math
import random
from pathlib import Path

import pytest

from graphprod.errors import CapExceeded
from graphprod.graphs import (complete_bipartite, complete_graph, cycle_graph,
                              edgeless_graph, link, mask_of, path_graph,
                              to_graph6)
from graphprod.iso import isomorphism
from graphprod.verify import (KNOWN_GRAPH_COUNTS, LEMMAS, WordOracle,
                              _canonical_search, canonical_key, check_lemma,
                              enumerate_graphs, random_graph, sample_er)
from graphprod.words import enumerate_words


class TestCatalog:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts_match_known_sequence(self, n):
        assert len(enumerate_graphs(n).graphs) == KNOWN_GRAPH_COUNTS[n]

    def test_pairwise_non_isomorphic_n5(self):
        graphs = enumerate_graphs(5).graphs
        keys = {canonical_key(g) for g in graphs}
        assert len(keys) == len(graphs)

    def test_canonical_key_isomorphism_invariant(self):
        from graphprod.graphs import SimpleGraph
        import random
        rng = random.Random(5)
        for g in enumerate_graphs(5).graphs:
            perm = list(range(5))
            rng.shuffle(perm)
            h = SimpleGraph.from_edges(5, [(perm[a], perm[b]) for a, b in g.edges()])
            assert canonical_key(g) == canonical_key(h)

    def test_against_networkx_atlas_count(self):
        nx = pytest.importorskip("networkx")
        # independent route: count isomorphism classes via networkx
        seen = []
        for g in enumerate_graphs(4).graphs:
            gg = nx.Graph()
            gg.add_nodes_from(range(4))
            gg.add_edges_from(g.edges())
            assert not any(nx.is_isomorphic(gg, h) for h in seen)
            seen.append(gg)
        assert len(seen) == 11

    def test_cap(self):
        with pytest.raises(ValueError):
            enumerate_graphs(9)

    def test_n8_count(self):
        assert len(enumerate_graphs(8).graphs) == KNOWN_GRAPH_COUNTS[8]

    def test_catalog_digest(self):
        """sha256 of ``to_graph6(g) + "\\n"`` over the catalogs n = 1..8 in
        catalog order, as built before orbit pruning: same graphs, same
        vertex order, same catalog order."""
        h = hashlib.sha256()
        for n in range(1, 9):
            for g in enumerate_graphs(n).graphs:
                h.update((to_graph6(g) + "\n").encode())
        assert h.hexdigest() == ("928f09103ba22850f75c4ccccd5ef95e"
                                 "b142af82e35e9cd616172117b1113c53")


class TestLeafGroup:
    """The leaves of minimum encoding in the canonical search, read as
    automorphisms, against closed-form group orders."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_form_orders(self, n):
        cases = [(edgeless_graph(n), math.factorial(n)),
                 (complete_graph(n), math.factorial(n))]
        if n >= 2:
            cases.append((path_graph(n), 2))
        if n >= 3:
            cases.append((cycle_graph(n), 2 * n))
        for m in range(1, n // 2 + 1):
            cases.append((complete_bipartite(m, n - m),
                          math.factorial(m) * math.factorial(n - m)
                          * (2 if 2 * m == n else 1)))
        for g, order in cases:
            autos = _canonical_search(g)[1]
            assert len(autos) == len(set(autos)) == order, g.adj
            assert autos[0] == bytes(range(n))

    def test_verify_imports_nothing_from_iso(self):
        """The oracle layer must not lean on the layer it checks."""
        path = Path(__file__).parents[1] / "src" / "graphprod" / "verify.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                names = {a.name for a in node.names}
                assert module not in (".iso", "graphprod.iso"), module
                assert not (module in (".", "graphprod") and "iso" in names)
            elif isinstance(node, ast.Import):
                assert all(a.name != "graphprod.iso" for a in node.names)


class TestLemmas:
    @pytest.mark.parametrize("lemma", sorted(LEMMAS))
    def test_no_counterexamples_up_to_6(self, lemma):
        for n in range(1, 7):
            rep = check_lemma(enumerate_graphs(n), lemma)
            assert rep.counterexamples == (), (
                lemma, n, [to_graph6(g) for g in rep.counterexamples])

    @pytest.mark.parametrize("lemma", sorted(LEMMAS))
    def test_no_counterexamples_n8(self, lemma):
        rep = check_lemma(enumerate_graphs(8), lemma)
        assert rep.counterexamples == ()

    def test_negative_control_square(self):
        rep = check_lemma(enumerate_graphs(4), "collapsible-is-component-union",
                          drop_hypothesis=True)
        assert rep.counterexamples
        assert any(isomorphism(g, cycle_graph(4)) is not None
                   for g in rep.counterexamples)

    def test_unknown_token(self):
        with pytest.raises(ValueError):
            check_lemma(enumerate_graphs(3), "no-such-lemma")

    def test_checked_counts_hypothesis_filter(self):
        rep = check_lemma(enumerate_graphs(4), "girth-implies-transvection-free")
        # only graphs with girth >= 5 and min degree >= 2 enter; none on 4 vertices
        assert rep.checked == 0
        rep = check_lemma(enumerate_graphs(5), "girth-implies-transvection-free")
        assert rep.checked == 1  # the 5-cycle


class TestSampler:
    def test_reproducible(self):
        a = sample_er(20, 0.5, 30, seed=42)
        b = sample_er(20, 0.5, 30, seed=42)
        assert a == b and a.to_json_obj() == b.to_json_obj()

    def test_seed_changes_graphs(self):
        g0 = random_graph(10, 0.5, seed=1, trial=0)
        g1 = random_graph(10, 0.5, seed=2, trial=0)
        assert g0.adj != g1.adj

    def test_edges_follow_the_counter_hash(self):
        # edge e of trial t is present iff splitmix(splitmix(splitmix(seed)
        # ^ t) ^ e) < p * 2**64, edges numbered row by row
        from graphprod.verify import _splitmix64 as mix
        for seed, trial, p in ((1, 0, 0.5), (9, 5, 0.3), (2 ** 64 + 3, 17, 0.1)):
            g = random_graph(12, p, seed=seed, trial=trial)
            pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
            key = mix(mix(seed % 2 ** 64) ^ trial)
            assert [g.has_edge(i, j) for i, j in pairs] == \
                [mix(key ^ e) < round(p * 2.0 ** 64) for e in range(len(pairs))]

    def test_trial_single_graph_reproducible(self):
        assert random_graph(12, 0.3, seed=9, trial=5).adj \
            == random_graph(12, 0.3, seed=9, trial=5).adj

    def test_triangle_n3_never_transvection_free(self):
        rep = sample_er(3, 0.99, 300, seed=1)
        assert rep.fraction("transvection_free") == 0.0

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            sample_er(5, 0.0, 10, seed=0)
        with pytest.raises(ValueError):
            sample_er(5, 1.0, 10, seed=0)


class TestWordOracle:
    def test_identity(self, c5):
        o = WordOracle(c5, 4)
        assert o.equal([], [0, 0])
        assert o.equal([0, 1], [1, 0])
        assert not o.equal([0, 2], [2, 0])

    def test_dihedral_strata(self, free2):
        o = WordOracle(free2, 5)
        assert o.strata == [1, 2, 2, 2, 2, 2]

    def test_c5_strata_match_engine(self, c5):
        o = WordOracle(c5, 5)
        e = enumerate_words(c5, 5)
        assert tuple(o.strata) == e.strata
        assert len(o.words) == len(e.words)

    def test_subgroup_keys(self, c5):
        o = WordOracle(c5, 6)
        keys = o.subgroup_keys(mask_of([1, 3]))
        assert o.canon([1, 3]) in keys
        assert o.canon([3, 1]) in keys
        assert o.canon([0]) not in keys
        assert len(keys) == 13  # infinite dihedral ball of radius 6

    def test_product_membership(self, c5, free2):
        o5 = WordOracle(c5, 6)
        o2 = WordOracle(free2, 6)
        assert o5.product_membership([0], [link(c5, 1)])
        assert not o2.product_membership([0, 1], [1, 1])
        assert o2.product_membership([0, 1], [1, 2])

    def test_product_radius_past_length(self, c5, k23):
        """Exact at radius |w|: two more letters of radius change no answer
        (the deletion condition bounds every factor by |w|)."""
        rng = random.Random(23)
        answers = []
        for g in (c5, k23, path_graph(4)):
            oracles = [WordOracle(g, r) for r in range(6)]
            for w in enumerate_words(g, 3).words * 3:
                factors = [rng.randrange(1, g.full_mask + 1)
                           for _ in range(rng.randrange(2, 4))]
                answer = oracles[len(w)].product_membership(w, factors)
                assert oracles[len(w) + 2].product_membership(w, factors) \
                    == answer, (g.adj, w, factors)
                answers.append(answer)
        assert 0 < sum(answers) < len(answers)

    def test_product_radius_guard(self, free2):
        o = WordOracle(free2, 2)
        with pytest.raises(CapExceeded):
            o.product_membership([0, 1, 0, 1], [3])

    def test_cap(self):
        with pytest.raises(CapExceeded):
            WordOracle(edgeless_graph(4), 10, cap=50).words

    def test_canon_foata_blocks_sorted(self, c5):
        # a commuting pair appears as one sorted block
        assert tuple(WordOracle(c5, 2).canon([1, 0])) == (0, 1)
