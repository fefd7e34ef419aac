"""Acceptance suite: one test per criterion, each printing a PASS line.

The per-criterion lines are emitted outside pytest's capture, so a plain
``pytest -v`` run shows them as the criteria complete.
"""

import itertools
import json
import time

import pytest

from graphprod.classify import (LabeledGraph, classify, factor_label,
                                hyperfinite_label, raag_label, symmetry,
                                uniform_labeled)
from graphprod.graphs import (SimpleGraph, complete_bipartite, cycle_graph,
                              edgeless_graph, link, mask_of, path_graph,
                              petersen_graph)
from graphprod.iso import verify_isomorphism
from graphprod.verify import (KNOWN_GRAPH_COUNTS, LEMMAS, WordOracle,
                              check_lemma, enumerate_graphs, sample_er)
from graphprod.words import (enumerate_words, parabolic_ball,
                             product_set_membership, reduce_word)
from graphprod.words import _reduced_append, _shortlex


@pytest.fixture
def announce(capfd):
    def _ok(num, name):
        with capfd.disabled():
            print(f"ACCEPTANCE {num} ({name}): PASS", flush=True)
    return _ok


def test_criterion_1_lemma_suite_exhaustive(announce):
    """Zero counterexamples to all six combinatorial lemmas over every
    isomorphism class with at most 7 vertices, under 120 seconds."""
    start = time.time()
    total_graphs = 1  # the empty graph satisfies every lemma vacuously
    empty = SimpleGraph(0, ())
    from graphprod import structure
    assert structure.is_transvection_free(empty)
    for n in range(1, 8):
        catalog = enumerate_graphs(n)
        assert len(catalog.graphs) == KNOWN_GRAPH_COUNTS[n]
        total_graphs += len(catalog.graphs)
        for lemma in sorted(LEMMAS):
            report = check_lemma(catalog, lemma)
            assert report.counterexamples == (), (n, lemma)
    assert total_graphs == 1 + 1 + 2 + 4 + 11 + 34 + 156 + 1044
    elapsed = time.time() - start
    assert elapsed < 120, f"lemma suite took {elapsed:.1f}s"
    announce(1, f"lemma suite, {total_graphs} graphs in {elapsed:.1f}s")


def _engine_oracle_agreement(g, max_len):
    """Exact agreement of engine and oracle equality on all raw words of
    length <= max_len.

    The engine's reduce is a fold of single-letter appends, so it suffices to
    check, for every oracle element e in the radius and every letter a, that
    the engine append applied to e's engine normal form lands on the engine
    normal form assigned to the oracle successor of e (induction over raw
    words), and that the element -> normal form map is injective.  The same
    induction checks the oracle's heap walk against its own ``canon``.
    """
    oracle = WordOracle(g, max_len)
    nonadj = g.nonadj
    eng = [None] * len(oracle.words)
    eng[0] = ()
    for i in range(len(oracle.words)):
        for a in range(g.n):
            j = oracle.trans[i][a]
            if j < 0:
                continue
            assert oracle.canon(oracle.words[i] + bytes([a])) == oracle.words[j]
            word = list(eng[i])
            _reduced_append(g.adj, word, a)
            nf = _shortlex(nonadj, word)
            if eng[j] is None:
                eng[j] = nf
            else:
                assert eng[j] == nf, (i, a)
    assert all(nf is not None for nf in eng)
    assert len(set(eng)) == len(oracle.words)  # injective
    assert all(len(eng[i]) == len(oracle.words[i]) for i in range(len(eng)))
    # engine-side enumeration agrees element-for-element
    enum = enumerate_words(g, max_len)
    assert len(enum.words) == len(oracle.words)
    assert tuple(oracle.strata) == enum.strata
    return len(oracle.words)


def test_criterion_2_oracle_equivalence(announce):
    """ShortLex engine equality == BFS oracle equality on all raw words of
    length <= 8 over the four named graphs, plus the pinned strata counts."""
    sizes = {}
    for name, g in [("C5", cycle_graph(5)), ("C6", cycle_graph(6)),
                    ("path5", path_graph(5)),
                    ("K23", complete_bipartite(2, 3))]:
        sizes[name] = _engine_oracle_agreement(g, 8)
    # direct brute confirmation on every raw word of length <= 4 over C5
    c5 = cycle_graph(5)
    oracle = WordOracle(c5, 4)
    by_oracle = {}
    for length in range(5):
        for raw in itertools.product(range(5), repeat=length):
            key = oracle.canon(raw)
            nf = reduce_word(c5, raw).letters
            assert by_oracle.setdefault(key, nf) == nf
    assert len({v for v in by_oracle.values()}) == len(by_oracle)
    # pinned strata: infinite dihedral and the 21 short elements of the 5-cycle
    assert WordOracle(edgeless_graph(2), 6).strata == [1, 2, 2, 2, 2, 2, 2]
    assert len(enumerate_words(cycle_graph(5), 2).words) == 21
    announce(2, f"oracle equivalence, ball sizes {sizes}")


def test_criterion_3_parabolic_intersections(announce):
    """W_s meet W_t equals W_(s&t) on every subgraph pair of every graph with
    n <= 5, on all elements of length <= 8, by engine and oracle."""
    checked = 0
    for n in range(1, 6):
        for g in enumerate_graphs(n).graphs:
            oracle = WordOracle(g, 8)
            keys = {s: oracle.subgroup_keys(s) for s in range(1 << n)}
            balls = {s: set(parabolic_ball(g, s, 8)) for s in range(1 << n)}
            for s in range(1 << n):
                for t in range(s, 1 << n):
                    small, big = ((keys[s], keys[t])
                                  if len(keys[s]) <= len(keys[t])
                                  else (keys[t], keys[s]))
                    assert small & big == keys[s & t], (to_g6(g), s, t)
                    e_small, e_big = ((balls[s], balls[t])
                                      if len(balls[s]) <= len(balls[t])
                                      else (balls[t], balls[s]))
                    assert e_small & e_big == balls[s & t]
                    checked += 1
    announce(3, f"parabolic intersections, {checked} subgroup pairs")


def _cycle_inclusion_instance(n):
    """For the n-cycle: elements of length <= 8 lying in the link-product of
    the cycle's other vertices must lie in W_{v1} W_{v_(n-1)}."""
    g = cycle_graph(n)
    factors = [link(g, i) for i in range(1, n)]
    small_set = {(), (1,), (n - 1,), tuple(sorted((1, n - 1)))}
    oracle = WordOracle(g, 8)
    members = 0
    for letters in parabolic_ball(g, link(g, 0), 8):
        w = reduce_word(g, letters)
        inside = product_set_membership(w, factors, oracle=oracle)
        if inside:
            members += 1
            assert w.letters in small_set, letters
    return members


def test_criterion_4_cycle_word_inclusion(announce):
    counts = {n: _cycle_inclusion_instance(n) for n in (5, 6, 7)}
    assert all(c == 4 for c in counts.values()), counts
    announce(4, f"cycle word inclusion, members per cycle {counts}")


def test_criterion_5_classification_fixtures(announce):
    c5, c6 = cycle_graph(5), cycle_graph(6)
    raag5 = uniform_labeled(c5, raag_label())
    raag6 = uniform_labeled(c6, raag_label())

    v = classify(raag5, raag6)
    assert v.kind == "DistinctCertified" and v.theorem_tag == "Cor-RAAG"

    perm = (2, 3, 4, 0, 1)
    rot = SimpleGraph.from_edges(5, [(perm[a], perm[b]) for a, b in c5.edges()])
    v = classify(raag5, uniform_labeled(rot, raag_label()))
    assert v.kind == "IsomorphicCertified"
    assert verify_isomorphism(c5, rot, v.witness)

    v = classify(uniform_labeled(complete_bipartite(3, 3), raag_label()),
                 uniform_labeled(complete_bipartite(2, 5), raag_label()))
    assert v.kind == "EquivalentKnown" and v.theorem_tag == "Radulescu"

    for m in range(3, 9):
        for n in range(3, 9):
            v = classify(uniform_labeled(path_graph(m + 1), raag_label()),
                         uniform_labeled(path_graph(n + 1), raag_label()))
            expected = "DistinctCertified" if m != n else "IsomorphicCertified"
            assert v.kind == expected, (m, n, v.kind)

    v = classify(uniform_labeled(cycle_graph(4), raag_label()),
                 uniform_labeled(cycle_graph(4), raag_label()))
    assert v.kind == "Undecided" and v.unmet

    v = classify(uniform_labeled(c5, hyperfinite_label()),
                 uniform_labeled(c6, hyperfinite_label()))
    assert v.kind == "DistinctCertified"

    d = symmetry(uniform_labeled(petersen_graph(), factor_label("M")))
    assert d.fundamental_group_trivial
    assert d.acting_group is not None and d.acting_group.order == 120
    assert d.amplification_note == "t=1 forced"
    announce(5, "classification fixtures")


def test_criterion_6_geodesic_factorization_guardrail(announce):
    """product_set_membership cross-checked against the exhaustive oracle on
    every acceptance product instance (disagreement raises)."""
    instances = 0
    for n in (5, 6, 7):
        g = cycle_graph(n)
        factors = [link(g, i) for i in range(1, n)]
        oracle = WordOracle(g, 8)
        for letters in parabolic_ball(g, link(g, 0), 8):
            product_set_membership(reduce_word(g, letters), factors,
                                   oracle=oracle)
            instances += 1
    # the worked example: short elements of one link against the link product
    c5 = cycle_graph(5)
    oracle = WordOracle(c5, 6)
    factors = [link(c5, i) for i in range(1, 5)]
    for letters in parabolic_ball(c5, link(c5, 0), 6):
        w = reduce_word(c5, letters)
        if product_set_membership(w, factors, oracle=oracle):
            assert product_set_membership(
                w, [mask_of([1]), mask_of([4])], oracle=oracle)
        instances += 1
    announce(6, f"geodesic guardrail, {instances} oracle-checked instances")


def test_criterion_7_sampler(announce):
    report = sample_er(50, 0.5, 1000, seed=7)
    frac = report.fraction("transvection_free")
    assert frac >= 0.99, frac
    again = sample_er(50, 0.5, 1000, seed=7)
    assert report == again
    assert json.dumps(report.to_json_obj(), sort_keys=True) \
        == json.dumps(again.to_json_obj(), sort_keys=True)
    announce(7, f"sampler, transvection-free fraction {frac:.3f}")


def test_criterion_8_negative_controls(announce):
    report = check_lemma(enumerate_graphs(4), "collapsible-is-component-union",
                         drop_hypothesis=True)
    assert report.counterexamples
    from graphprod.iso import isomorphism
    assert any(isomorphism(g, cycle_graph(4)) is not None
               for g in report.counterexamples)

    c5 = cycle_graph(5)
    perm = (2, 3, 4, 0, 1)
    rot = SimpleGraph.from_edges(5, [(perm[a], perm[b]) for a, b in c5.edges()])
    good = classify(uniform_labeled(c5, raag_label()),
                    uniform_labeled(rot, raag_label()))
    assert good.kind == "IsomorphicCertified"
    corrupted = [raag_label()] * 5
    corrupted[3] = factor_label("L(F2)")
    flipped = classify(uniform_labeled(c5, raag_label()),
                       LabeledGraph(rot, tuple(corrupted)))
    assert flipped.kind == "DistinctCertified"
    announce(8, "negative controls")


def to_g6(g):
    from graphprod.graphs import to_graph6
    return to_graph6(g)
