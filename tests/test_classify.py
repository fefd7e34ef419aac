import collections
import importlib
import json
import warnings
from pathlib import Path

import pytest

from graphprod.classify import (THEOREMS, GraphFacts, LabeledGraph,
                                check_hypotheses, classify, factor_label,
                                graph_conditions, hyperfinite_label, icc_label,
                                labeled_graph_from_json, labeled_graph_to_json,
                                labeled_isomorphism, make_label,
                                prime_factorization_structure, raag_label,
                                rigidity_obstructions, symmetry,
                                uniform_labeled)
from graphprod.graphs import (SimpleGraph, complete_bipartite, complete_graph,
                              components_induced, contains_square, cycle_graph,
                              disjoint_union, from_graph6, girth, min_degree,
                              path_graph, petersen_graph, star_graph,
                              to_graph6)

from graphprod.iso import automorphism_group, verify_isomorphism
from graphprod.structure import (has_separating_star, is_clique_reduced,
                                 is_strongly_reduced, is_transvection_free,
                                 maximal_clique_factor)
from graphprod.verify import enumerate_graphs


def relabel(g, perm):
    return SimpleGraph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


class TestLabels:
    def test_factor_must_be_diffuse(self):
        with pytest.raises(ValueError):
            make_label("X", diffuse=False, amenable=False, ii1_factor=True)

    def test_unknown_capability(self):
        with pytest.raises(ValueError):
            make_label("X", diffuse=True, amenable=False, ii1_factor=False,
                       capabilities={"nonsense"})

    def test_connes_normalization_warns(self):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            lab = make_label("SomeAmenableFactor", diffuse=True, amenable=True,
                             ii1_factor=True)
        assert lab.class_id == "R" and len(rec) == 1

    def test_label_count_must_match(self, c5):
        with pytest.raises(ValueError):
            LabeledGraph(c5, (raag_label(),) * 4)

    def test_json_round_trip(self, c5):
        labs = (raag_label(),) * 3 + (factor_label("M"), icc_label("G"))
        lg = LabeledGraph(c5, labs)
        obj = json.loads(json.dumps(labeled_graph_to_json(lg)))
        back = labeled_graph_from_json(obj)
        assert back.graph.adj == c5.adj and back.labels == labs


class TestHypotheses:
    def test_raag_cycle_passes_A(self, c5):
        ok, unmet = check_hypotheses(uniform_labeled(c5, raag_label()), "A")
        assert ok and not unmet

    def test_square_fails_A(self, c4):
        ok, unmet = check_hypotheses(uniform_labeled(c4, raag_label()), "A")
        assert not ok and "square-free" in unmet

    def test_petersen_passes_D_moreover(self, petersen):
        ok, unmet = check_hypotheses(
            uniform_labeled(petersen, factor_label("M")), "D-moreover")
        assert ok, unmet

    def test_non_factor_fails_D(self, c5):
        ok, unmet = check_hypotheses(uniform_labeled(c5, raag_label()), "D")
        assert not ok and "all-ii1-factors" in unmet

    def test_unknown_token(self, c5):
        with pytest.raises(ValueError):
            check_hypotheses(uniform_labeled(c5, raag_label()), "Z")

    def test_E(self, c5, k4):
        assert check_hypotheses(uniform_labeled(c5, raag_label()), "E")[0]
        ok, unmet = check_hypotheses(uniform_labeled(k4, raag_label()), "E")
        assert not ok and "empty-clique-factor" in unmet


class TestClassify:
    def test_c5_vs_c6_raag(self, c5, c6):
        v = classify(uniform_labeled(c5, raag_label()),
                     uniform_labeled(c6, raag_label()))
        assert v.kind == "DistinctCertified"
        assert v.theorem_tag == "Cor-RAAG"

    def test_rotated_c5(self, c5):
        rot = relabel(c5, (1, 2, 3, 4, 0))
        v = classify(uniform_labeled(c5, raag_label()),
                     uniform_labeled(rot, raag_label()))
        assert v.kind == "IsomorphicCertified"
        assert verify_isomorphism(c5, rot, v.witness)

    def test_radulescu(self):
        v = classify(uniform_labeled(complete_bipartite(3, 3), raag_label()),
                     uniform_labeled(complete_bipartite(2, 5), raag_label()))
        assert v.kind == "EquivalentKnown" and v.theorem_tag == "Radulescu"

    def test_matching_graphs_never_equivalent_known(self):
        k33 = uniform_labeled(complete_bipartite(3, 3), raag_label())
        assert classify(k33, k33).kind == "Undecided"

    def test_paths_distinct_iff_sizes_differ(self):
        for m in range(3, 9):
            for n in range(3, 9):
                v = classify(uniform_labeled(path_graph(m + 1), raag_label()),
                             uniform_labeled(path_graph(n + 1), raag_label()))
                expected = "IsomorphicCertified" if m == n else "DistinctCertified"
                assert v.kind == expected, (m, n, v.kind)
                assert v.witness_level == "equivalence-classes"

    def test_square_undecided(self, c4):
        v = classify(uniform_labeled(c4, raag_label()),
                     uniform_labeled(c4, raag_label()))
        assert v.kind == "Undecided" and v.unmet

    def test_hyperfinite_cycles(self, c5, c6):
        v = classify(uniform_labeled(c5, hyperfinite_label()),
                     uniform_labeled(c6, hyperfinite_label()))
        assert v.kind == "DistinctCertified"

    def test_self_gives_identity(self, petersen):
        lg = uniform_labeled(petersen, factor_label("M"))
        v = classify(lg, lg)
        assert v.kind == "IsomorphicCertified"
        assert v.witness == tuple(range(10))
        assert v.theorem_tag == "Thm-D-moreover"
        assert v.conclusion_strength == "single-unitary"
        assert v.amplification_note == "t=1 forced"

    def test_stable_class_comparison_for_C(self):
        # path components fail C; use two disjoint C5s with factor labels
        from graphprod.graphs import disjoint_union
        g = disjoint_union(cycle_graph(5), cycle_graph(5))
        a = uniform_labeled(g, factor_label("M"))
        lab2 = make_label("M-amplified", diffuse=True, amenable=False,
                          ii1_factor=True, stable_class_id="M")
        b = LabeledGraph(g, (lab2,) * 10)
        v = classify(a, b)
        # girth-5 but disconnected: D needs min degree >= 2 (holds) and girth
        # (holds), so D certifies; strict classes differ
        assert v.kind == "DistinctCertified"
        # with D knocked out by a degree-1 pendant the stable class would rule;
        # instead check C directly on the same graph
        ok, _ = check_hypotheses(a, "C")
        assert ok

    def test_symmetry_of_arguments(self, c5, c6):
        a = uniform_labeled(c5, raag_label())
        b = uniform_labeled(c6, raag_label())
        assert classify(a, b).kind == classify(b, a).kind

    def test_corrupted_label_flips_to_distinct(self, c5):
        labs = [raag_label()] * 5
        labs[2] = factor_label("L(F2)")
        v = classify(uniform_labeled(c5, raag_label()),
                     LabeledGraph(c5, tuple(labs)))
        assert v.kind == "DistinctCertified"

    def test_icc_wstar_comparison(self, petersen):
        a = uniform_labeled(petersen, icc_label("G1", wstar_class_id="W"))
        b = uniform_labeled(petersen, icc_label("G2", wstar_class_id="W"))
        v = classify(a, b)
        assert v.kind == "IsomorphicCertified"  # same W*-class

    def test_hyperfinite_untransvectable_level(self):
        # transvectable graphs with hyperfinite labels are compared through
        # their untransvectable subgraphs (paths lose their two leaves)
        p5 = uniform_labeled(path_graph(5), hyperfinite_label())
        p5b = uniform_labeled(path_graph(5), hyperfinite_label())
        v = classify(p5, p5b)
        assert v.kind == "IsomorphicCertified"
        assert v.witness_level == "untransvectable"
        p6 = uniform_labeled(path_graph(6), hyperfinite_label())
        v = classify(p5, p6)
        assert v.kind == "DistinctCertified"
        assert v.witness_level == "untransvectable"

    def test_undecided_unmet_nonempty(self, k4):
        v = classify(uniform_labeled(k4, raag_label()),
                     uniform_labeled(k4, raag_label()))
        assert v.kind == "Undecided" and len(v.unmet) > 0


class TestSymmetry:
    def test_uniform_c5(self, c5):
        d = symmetry(uniform_labeled(c5, factor_label("M")))
        assert d.fundamental_group_trivial and d.certified
        assert d.acting_group.order == 10
        assert d.wreath_form is not None
        assert d.amplification_note == "t=1 forced"

    def test_marked_vertex_stabilizer(self, c5):
        labs = (factor_label("M"),) * 4 + (factor_label("N"),)
        d = symmetry(LabeledGraph(c5, labs))
        assert d.acting_group.order == 2
        assert d.wreath_form is None

    def test_square_not_certified(self, c4):
        d = symmetry(uniform_labeled(c4, factor_label("M")))
        assert not d.certified and not d.fundamental_group_trivial
        assert d.acting_group is None

    def test_petersen(self, petersen):
        d = symmetry(uniform_labeled(petersen, factor_label("M")))
        assert d.fundamental_group_trivial
        assert d.acting_group.order == 120
        assert d.amplification_note == "t=1 forced"

    def test_acting_group_divides_full_aut(self, c6):
        labs = (factor_label("M"), factor_label("N")) * 3
        d = symmetry(uniform_labeled(c6, factor_label("M")))
        full = automorphism_group(c6).order
        if d.acting_group is not None:
            assert full % d.acting_group.order == 0


class TestPrimeFactorization:
    def test_bipartite(self):
        parts, certified = prime_factorization_structure(
            uniform_labeled(complete_bipartite(3, 3), factor_label("M")))
        assert len(parts.parts) == 2 and certified

    def test_cycle_prime(self, c5):
        parts, certified = prime_factorization_structure(
            uniform_labeled(c5, factor_label("M")))
        assert len(parts.parts) == 1 and certified

    def test_star_not_certified(self):
        parts, certified = prime_factorization_structure(
            uniform_labeled(star_graph(3), factor_label("M")))
        assert parts.clique_factor == 1 and not certified


class TestObstructions:
    def test_path_all_raag(self):
        lg = uniform_labeled(path_graph(3), raag_label())
        conds = {(o.v, o.v_prime): o.condition for o in rigidity_obstructions(lg)}
        assert conds[(0, 2)] == "artin-transvection"
        assert conds[(0, 1)] == "abelian-pair"

    def test_transvection_free_empty(self, c5):
        assert rigidity_obstructions(uniform_labeled(c5, raag_label())) == []

    def test_adjacent_abelian_pair(self, edge):
        lg = uniform_labeled(edge, raag_label())
        out = {(o.v, o.v_prime, o.condition) for o in rigidity_obstructions(lg)}
        assert out == {(0, 1, "abelian-pair"), (1, 0, "abelian-pair")}

    def test_capability_conditions(self, edge):
        crossed = make_label("B-x-G", diffuse=True, amenable=False,
                             ii1_factor=False,
                             capabilities={"crossed_product_infinite_abelian_quotient"})
        center = make_label("Zdiff", diffuse=True, amenable=True,
                            ii1_factor=False, capabilities={"diffuse_center"})
        lg = LabeledGraph(edge, (crossed, center))
        out = rigidity_obstructions(lg)
        assert any(o.condition == "central-quotient" and o.v == 0 for o in out)

        free2 = SimpleGraph(2, (0, 0))
        split = make_label("P*Q", diffuse=True, amenable=False,
                           ii1_factor=False, capabilities={"free_product_split"})
        tz = make_label("U0", diffuse=True, amenable=False, ii1_factor=False,
                        capabilities={"trace_zero_unitary"})
        lg = LabeledGraph(free2, (split, tz))
        out = rigidity_obstructions(lg)
        assert any(o.condition == "free-product-nonadjacent" and o.v == 0
                   for o in out)

    def test_obstruction_implies_A_fails(self):
        from graphprod.verify import enumerate_graphs
        for n in range(2, 7):
            for g in enumerate_graphs(n).graphs:
                lg = uniform_labeled(g, raag_label())
                if rigidity_obstructions(lg):
                    assert not is_transvection_free(g)
                    assert not check_hypotheses(lg, "A")[0]


class TestLabeledIsomorphism:
    def test_shared_token_table(self, c5):
        a = uniform_labeled(c5, raag_label())
        b = uniform_labeled(c5, factor_label("M"))
        assert labeled_isomorphism(a, a) is not None
        assert labeled_isomorphism(a, b) is None

    def test_stable_mode(self, c5):
        amplified = factor_label("M-with-t", stable_class_id="M")
        a = uniform_labeled(c5, factor_label("M"))
        b = uniform_labeled(c5, amplified)
        assert labeled_isomorphism(a, b, "strict-class") is None
        assert labeled_isomorphism(a, b, "stable-class") is not None

    def test_unknown_mode(self, c5):
        a = uniform_labeled(c5, raag_label())
        with pytest.raises(ValueError):
            labeled_isomorphism(a, a, "bogus")

    def test_witness_is_plain_isomorphism(self, c6):
        labs = (raag_label(), factor_label("M")) * 3
        a = LabeledGraph(c6, labs)
        b = LabeledGraph(c6, labs[1:] + labs[:1])
        w = labeled_isomorphism(a, b)
        assert w is not None and verify_isomorphism(c6, c6, w)
        assert all(a.labels[v].class_id == b.labels[w[v]].class_id
                   for v in range(6))


GOLDEN_GRAPHS = {
    "C4": cycle_graph(4), "C5": cycle_graph(5), "P4": path_graph(4),
    "K4": complete_graph(4), "Petersen": petersen_graph(),
    "K1": SimpleGraph(1, (0,)),
    "C5+P3": disjoint_union(cycle_graph(5), path_graph(3)),  # disconnected
    "K2,3": complete_bipartite(2, 3),  # no untransvectable vertex
    # the untransvectable vertices 0, 4, 5 span a triangle: not clique-reduced
    "ECqg": from_graph6("ECqg"),
}
GOLDEN_LABELS = {"raag": raag_label(), "factor": factor_label("M"),
                 "hyperfinite": hyperfinite_label(), "icc": icc_label("G")}


class TestHypothesisTable:
    def test_golden(self):
        """Every theorem's (ok, unmet), tokens in order, as the if/elif
        ladder that the table replaced reported them."""
        golden = json.loads(
            (Path(__file__).parent / "data" / "hypotheses_golden.json").read_text())
        assert len(golden) == len(GOLDEN_GRAPHS) * len(GOLDEN_LABELS)
        for gname, g in GOLDEN_GRAPHS.items():
            for lname, label in GOLDEN_LABELS.items():
                expected = golden[f"{gname} {lname}"]
                assert tuple(expected) == THEOREMS
                lg = uniform_labeled(g, label)
                for theorem, unmet in expected.items():
                    assert check_hypotheses(lg, theorem) == (not unmet, unmet), \
                        (gname, lname, theorem)

    def test_graph_conditions_against_definitions(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n).graphs:
                assert graph_conditions(GraphFacts(g)) == {
                    "transvection-free": is_transvection_free(g),
                    "square-free": not contains_square(g),
                    "girth-at-least-5": girth(g) >= 5,
                    "min-degree-at-least-2": min_degree(g) >= 2,
                    "no-separating-star": has_separating_star(g) is None,
                    "components-strongly-reduced": all(
                        is_strongly_reduced(c) for c in components_induced(g)),
                    "clique-reduced": is_clique_reduced(g),
                    "empty-clique-factor": maximal_clique_factor(g) == 0,
                }, g.adj

    def test_facts_memo(self, c5, c4):
        facts = GraphFacts(c5)
        assert facts(girth) == 5 and facts(girth) is facts(girth)
        assert facts.components == [facts]
        assert facts.untransvectable is facts
        split = GraphFacts(disjoint_union(c5, c4))
        assert [c.graph.adj for c in split.components] == [c5.adj, c4.adj]


# invariants the hypothesis tests and the analyze report read, by module
_INVARIANTS = {
    "graphs": ("girth", "contains_square", "min_degree", "components"),
    "structure": ("untransvectable_vertices", "transvection_structure",
                  "is_transvection_free", "untransvectable_subgraph",
                  "is_strongly_reduced", "is_clique_reduced",
                  "has_separating_star", "maximal_clique_factor",
                  "join_decomposition", "maximal_join_subgraphs",
                  "collapsible_subgraphs", "internal_vertices",
                  "domination_classes", "_domination_rows"),
}
# counted also when another counted invariant calls it: the domination rows
# behind every transvection invariant are built once per graph
_EVERY_DEPTH = ("_domination_rows",)


@pytest.fixture
def invariant_calls(monkeypatch):
    """Counts calls of each invariant per distinct argument list.

    A call made inside another counted invariant (``join_decomposition``
    computing the clique factor, say) belongs to that invariant and is not
    counted, except for the names in ``_EVERY_DEPTH``; what is counted is
    every request from the report, the theorem checks and the classification
    loop.
    """
    mods = {name: importlib.import_module(f"graphprod.{name}")
            for name in ("graphs", "structure", "classify", "cli")}
    calls = collections.Counter()
    depth = [0]
    wrappers = {}
    for modname, names in _INVARIANTS.items():
        for name in names:
            fn = getattr(mods[modname], name)

            def counted(g, *args, _name=name, _fn=fn):
                if depth[0] == 0 or _name in _EVERY_DEPTH:
                    calls[(_name, g.n, g.adj) + args] += 1
                depth[0] += 1
                try:
                    return _fn(g, *args)
                finally:
                    depth[0] -= 1
            wrappers[id(fn)] = counted
    for mod in mods.values():
        for attr, val in list(vars(mod).items()):
            if id(val) in wrappers:
                monkeypatch.setattr(mod, attr, wrappers[id(val)])
    return calls


class TestInvariantsOnce:
    GRAPHS = (cycle_graph(5), petersen_graph(), path_graph(5),
              complete_bipartite(2, 3), disjoint_union(cycle_graph(5), path_graph(3)))

    @staticmethod
    def assert_once(calls):
        assert calls, "nothing was counted"
        repeated = {k[:2]: v for k, v in calls.items() if v > 1}
        assert not repeated, repeated

    def test_analyze(self, invariant_calls, capsys):
        from graphprod.cli import main
        for g in self.GRAPHS:
            assert main(["analyze", "--graph6", to_graph6(g)]) == 0
            capsys.readouterr()
            self.assert_once(invariant_calls)
            assert invariant_calls[("_domination_rows", g.n, g.adj)] == 1
            invariant_calls.clear()

    def test_analyze_labels(self, invariant_calls, tmp_path, capsys):
        from graphprod.cli import main
        for g in self.GRAPHS:
            for label in GOLDEN_LABELS.values():
                path = tmp_path / "lg.json"
                path.write_text(json.dumps(
                    labeled_graph_to_json(uniform_labeled(g, label))))
                assert main(["analyze", "--labels", str(path)]) == 0
                capsys.readouterr()
                self.assert_once(invariant_calls)
                invariant_calls.clear()

    def test_classify(self, invariant_calls):
        # equal graphs on both sides share one memo; otherwise each side has
        # its own, across the whole precedence loop
        for g in self.GRAPHS:
            for label in GOLDEN_LABELS.values():
                for other in (g, SimpleGraph(g.n, g.adj), cycle_graph(6)):
                    classify(uniform_labeled(g, label),
                             uniform_labeled(other, label))
                    self.assert_once(invariant_calls)
                    invariant_calls.clear()

    def test_symmetry(self, invariant_calls):
        for g in self.GRAPHS:
            for label in GOLDEN_LABELS.values():
                symmetry(uniform_labeled(g, label))
                self.assert_once(invariant_calls)
                invariant_calls.clear()
