import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphprod.errors import CapExceeded, OracleDisagreement
from graphprod.graphs import (SimpleGraph, complete_bipartite, complete_graph,
                              cycle_graph, edgeless_graph, link, mask_of,
                              path_graph, petersen_graph)
from graphprod.verify import enumerate_graphs, enumerate_words_bfs, growth_series
from graphprod.words import (enumerate_words, ends_with, invert,
                             link_of_word, multiply, parabolic_ball,
                             parabolic_intersection_check,
                             parabolic_membership, product_set_membership,
                             reduce_word, split_lcr, starts_with, support,
                             support_and_boundary)


def legal_shuffle(g, letters, rng, moves=40):
    """Random walk through the word's equivalence class: swap adjacent
    commuting letters, cancel adjacent equal pairs, insert squares."""
    word = list(letters)
    for _ in range(moves):
        kind = rng.randrange(3)
        if kind == 0 and len(word) >= 2:
            i = rng.randrange(len(word) - 1)
            a, b = word[i], word[i + 1]
            if a != b and g.adj[a] >> b & 1:
                word[i], word[i + 1] = b, a
        elif kind == 1 and len(word) >= 2:
            i = rng.randrange(len(word) - 1)
            if word[i] == word[i + 1]:
                del word[i:i + 2]
        elif kind == 2 and len(word) < 20 and g.n:
            i = rng.randrange(len(word) + 1)
            a = rng.randrange(g.n)
            word[i:i] = [a, a]
    return word


graphs_strategy = st.builds(
    lambda n, seed: _random_graph(n, seed),
    st.integers(2, 6), st.integers(0, 10 ** 6))


def _random_graph(n, seed):
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    return SimpleGraph.from_edges(n, edges)


class TestReduce:
    def test_commuting_pair_cancels(self, edge):
        assert reduce_word(edge, [0, 1, 0]).letters == (1,)

    def test_free_pair_does_not(self, free2):
        assert reduce_word(free2, [0, 1, 0]).letters == (0, 1, 0)

    def test_adjacent_swap_normalizes(self, c5):
        assert reduce_word(c5, [1, 0]).letters == (0, 1)
        assert reduce_word(c5, [0, 1]).letters == (0, 1)

    def test_non_commuting_stays(self, c5):
        assert reduce_word(c5, [2, 0]).letters == (2, 0)

    def test_letter_out_of_range(self, c5):
        with pytest.raises(ValueError):
            reduce_word(c5, [5])

    def test_idempotent(self, c5):
        rng = random.Random(0)
        for _ in range(200):
            raw = [rng.randrange(5) for _ in range(rng.randrange(13))]
            w = reduce_word(c5, raw)
            assert reduce_word(c5, w.letters) == w

    def test_shortlex_least_of_class(self, c5, k23):
        # the stored word is minimal among all words of the element with the
        # same length, checked by brute class expansion
        for g in (c5, k23):
            rng = random.Random(1)
            for _ in range(60):
                raw = [rng.randrange(g.n) for _ in range(6)]
                w = reduce_word(g, raw)
                cls = {w.letters}
                frontier = [w.letters]
                while frontier:
                    nxt = []
                    for word in frontier:
                        for i in range(len(word) - 1):
                            a, b = word[i], word[i + 1]
                            if a != b and g.adj[a] >> b & 1:
                                other = word[:i] + (b, a) + word[i + 2:]
                                if other not in cls:
                                    cls.add(other)
                                    nxt.append(other)
                    frontier = nxt
                assert w.letters == min(cls)


@settings(max_examples=80, deadline=None)
@given(graphs_strategy, st.lists(st.integers(0, 5), max_size=12),
       st.integers(0, 10 ** 6))
def test_reduce_constant_on_shuffles(g, raw, seed):
    raw = [a % g.n for a in raw]
    rng = random.Random(seed)
    shuffled = legal_shuffle(g, raw, rng)
    assert reduce_word(g, raw) == reduce_word(g, shuffled)


@settings(max_examples=80, deadline=None)
@given(graphs_strategy, st.lists(st.integers(0, 5), max_size=10),
       st.lists(st.integers(0, 5), max_size=10))
def test_multiply_length_parity(g, raw_a, raw_b):
    a = reduce_word(g, [x % g.n for x in raw_a])
    b = reduce_word(g, [x % g.n for x in raw_b])
    ab = multiply(a, b)
    assert len(ab) <= len(a) + len(b)
    assert (len(ab) - len(a) - len(b)) % 2 == 0


@settings(max_examples=60, deadline=None)
@given(graphs_strategy, st.lists(st.integers(0, 5), max_size=12))
def test_invert_involution(g, raw):
    a = reduce_word(g, [x % g.n for x in raw])
    assert invert(invert(a)) == a
    assert len(invert(a)) == len(a)
    assert multiply(a, invert(a)).is_identity


@settings(max_examples=60, deadline=None)
@given(graphs_strategy, st.lists(st.integers(0, 5), max_size=12),
       st.integers(0, 10 ** 6))
def test_support_shuffle_invariant(g, raw, seed):
    raw = [a % g.n for a in raw]
    shuffled = legal_shuffle(g, raw, random.Random(seed))
    assert support(reduce_word(g, raw)) == support(reduce_word(g, shuffled))


class TestGroupOps:
    def test_self_inverse_product(self, free2):
        a = reduce_word(free2, [0, 1, 0, 1])
        assert multiply(a, invert(a)).is_identity

    def test_free_cancellation(self, free2):
        assert multiply(reduce_word(free2, [0, 1]),
                        reduce_word(free2, [1, 0])).is_identity

    def test_commuting_product(self, edge):
        prod = multiply(reduce_word(edge, [0]), reduce_word(edge, [1]))
        assert prod.letters == (0, 1)
        assert multiply(prod, prod).is_identity  # order 2 in Z/2 x Z/2

    def test_graph_mismatch(self, edge, free2):
        with pytest.raises(ValueError):
            multiply(reduce_word(edge, [0]), reduce_word(free2, [0]))


class TestBoundary:
    def test_link_example(self, c5):
        w = reduce_word(c5, [1, 3])
        assert link_of_word(w) == mask_of([2])

    def test_singleton(self, c5):
        assert starts_with(reduce_word(c5, [0])) == 1

    def test_free_palindrome(self, free2):
        w = reduce_word(free2, [0, 1, 0])
        assert starts_with(w) == 1 and ends_with(w) == 1

    def test_empty_word(self, c5):
        w = reduce_word(c5, [])
        sup, st_, en, lk = support_and_boundary(w)
        assert sup == 0 and st_ == 0 and en == 0 and lk == c5.full_mask

    def test_starts_with_matches_length_drop(self, c5):
        rng = random.Random(7)
        for _ in range(100):
            w = reduce_word(c5, [rng.randrange(5) for _ in range(8)])
            for a in range(5):
                drops = len(multiply(reduce_word(c5, [a]), w)) < len(w)
                assert drops == bool(starts_with(w) >> a & 1)


class TestParabolic:
    def test_examples(self, c5):
        assert parabolic_membership(reduce_word(c5, [1, 3]), mask_of([1, 3]))
        assert not parabolic_membership(reduce_word(c5, [1, 3]), mask_of([1]))
        assert parabolic_membership(reduce_word(c5, []), 0)

    def test_ball_sizes(self, c5):
        assert len(parabolic_ball(c5, mask_of([0, 2]), 3)) == 7  # dihedral strata
        assert len(parabolic_ball(c5, mask_of([0, 1]), 3)) == 4  # Z/2 x Z/2

    def test_intersection_examples(self, c5):
        assert parabolic_intersection_check(c5, mask_of([0, 1]), mask_of([1, 2]), 6)
        assert parabolic_intersection_check(c5, mask_of([0]), mask_of([0, 1, 2]), 6)
        assert parabolic_intersection_check(c5, mask_of([0]), mask_of([2, 3]), 6)

    def test_intersection_cap_covers_both_sides(self):
        # on the edgeless 5-vertex graph the ball over all letters has
        # 1 + 5 * (4**7 - 1) / 3 = 27,306 elements of length <= 7, and the
        # ball over {0} has 2: the cap must catch the large ball on either side
        g = edgeless_graph(5)
        small, full = mask_of([0]), g.full_mask
        for s, t in ((small, full), (full, small)):
            with pytest.raises(CapExceeded):
                parabolic_intersection_check(g, s, t, 7, cap=1000)
            with pytest.raises(CapExceeded):
                parabolic_intersection_check(g, s, t, 7, cap=27_305)
            assert parabolic_intersection_check(g, s, t, 7, cap=27_306)


class TestEnumerate:
    def test_dihedral_strata(self, free2):
        assert enumerate_words(free2, 3).strata == (1, 2, 2, 2)

    def test_klein_four(self, edge):
        e = enumerate_words(edge, 2)
        assert len(e.words) == 4 and e.strata == (1, 2, 1)

    def test_c5_count(self, c5):
        assert len(enumerate_words(c5, 2).words) == 21

    def test_cap(self, free2):
        with pytest.raises(CapExceeded):
            enumerate_words(edgeless_graph(4), 12, cap=100)

    def test_deterministic_order(self, c5):
        a = enumerate_words(c5, 4)
        b = enumerate_words(c5, 4)
        assert a.words == b.words


NAMED_BALLS = [  # (graph, radius): the BFS oracle stays well under a second
    (cycle_graph(5), 6), (cycle_graph(6), 6), (path_graph(5), 6),
    (complete_bipartite(2, 3), 6), (petersen_graph(), 4), (edgeless_graph(3), 6),
]


def _ball_graphs():
    for n in range(1, 6):
        for g in enumerate_graphs(n).graphs:
            yield g, 6
    yield from NAMED_BALLS


class TestShortLexWalk:
    """The automaton walk against the Cayley-graph BFS it replaced and
    against the closed-form growth series."""

    def test_matches_bfs(self):
        for g, radius in _ball_graphs():
            e = enumerate_words(g, radius)
            assert (e.words, e.strata) == enumerate_words_bfs(g, radius), g.adj

    def test_parabolic_matches_restricted_bfs(self):
        for g, radius in _ball_graphs():
            radius = min(radius, 4 if g.n <= 6 else 3)  # all 2**n masks
            for s in range(1 << g.n):
                assert parabolic_ball(g, s, radius) == \
                    enumerate_words_bfs(g, radius, letters=s)[0], (g.adj, s)

    def test_strata_match_growth_series(self):
        for g, radius in _ball_graphs():
            assert enumerate_words(g, radius).strata == growth_series(g, radius)

    def test_growth_series_examples(self):
        assert growth_series(edgeless_graph(2), 4) == (1, 2, 2, 2, 2)
        assert growth_series(complete_graph(3), 4) == (1, 3, 3, 1, 0)
        assert growth_series(cycle_graph(5), 2) == (1, 5, 15)

    def test_cap_is_exact(self):
        for g, radius in NAMED_BALLS:
            total = len(enumerate_words(g, radius).words)
            with pytest.raises(CapExceeded):
                enumerate_words(g, radius, cap=total - 1)
            assert len(enumerate_words(g, radius, cap=total).words) == total


class TestProductSets:
    def test_single_factor_matches_parabolic(self, c5):
        rng = random.Random(3)
        for _ in range(40):
            w = reduce_word(c5, [rng.randrange(5) for _ in range(6)])
            for s in (mask_of([0, 2]), mask_of([1]), c5.full_mask, mask_of([0, 1, 2])):
                assert product_set_membership(w, [s]) == parabolic_membership(w, s)

    def test_examples(self, c5, free2):
        assert product_set_membership(reduce_word(c5, [0]), [link(c5, 1)])
        assert not product_set_membership(reduce_word(free2, [0, 1]),
                                          [mask_of([0]), mask_of([0])])
        assert product_set_membership(reduce_word(free2, [0, 1]),
                                      [mask_of([0]), mask_of([1])])

    def test_empty_factor_list(self, c5):
        with pytest.raises(ValueError):
            product_set_membership(reduce_word(c5, []), [])

    def test_oracle_mismatch_raises(self, c5):
        class Contrary:  # an oracle that always answers "not a member"
            def product_membership(self, letters, factors):
                return False
        with pytest.raises(OracleDisagreement):
            product_set_membership(reduce_word(c5, [0]), [link(c5, 1)],
                                   oracle=Contrary())

    def test_oracle_cross_check(self, c5):
        from graphprod.verify import WordOracle
        oracle = WordOracle(c5, 6)
        factors = [link(c5, v) for v in range(1, 5)]
        for w in parabolic_ball(c5, link(c5, 0), 6):
            word = reduce_word(c5, w)
            assert product_set_membership(word, factors, oracle=oracle) \
                == oracle.product_membership(w, factors)


class TestSplit:
    def test_example(self, c5):
        d = split_lcr(reduce_word(c5, [1, 0, 3]), mask_of([1]), mask_of([3]))
        assert d.left.letters == (1,)
        assert d.core.letters == (0,)
        assert d.right.letters == (3,)

    def test_core_word_untouched(self, c5):
        w = reduce_word(c5, [0, 2])
        d = split_lcr(w, 0, 0)
        assert d.left.is_identity and d.right.is_identity and d.core == w

    def test_full_strip(self, c5):
        w = reduce_word(c5, [0, 2, 0])
        d = split_lcr(w, mask_of([0, 2]), mask_of([0, 2]))
        assert d.core.is_identity

    def test_reassembly_and_lengths(self, c5, k23):
        rng = random.Random(11)
        for g in (c5, k23):
            for _ in range(80):
                w = reduce_word(g, [rng.randrange(g.n) for _ in range(9)])
                left_s = rng.randrange(1 << g.n)
                right_s = rng.randrange(1 << g.n)
                d = split_lcr(w, left_s, right_s)
                assert multiply(multiply(d.left, d.core), d.right) == w
                assert len(d.left) + len(d.core) + len(d.right) == len(w)
                assert support(d.left) & ~left_s == 0
                assert support(d.right) & ~right_s == 0
                assert starts_with(d.core) & left_s == 0
                assert ends_with(d.core) & right_s == 0


class TestGeodesicAssumptionFuzz:
    """Randomized audit of the product-set DP, which searches length-additive
    factorizations only (enough, by the deletion condition): on small random
    graphs the DP must agree with the exhaustive oracle for every short
    element and random factor lists."""

    def test_dp_matches_oracle_on_random_graphs(self):
        from graphprod.verify import WordOracle
        from graphprod.words import enumerate_words
        rng = random.Random(20240810)
        for case in range(30):
            n = rng.randrange(3, 5)
            g = _random_graph(n, rng.randrange(10 ** 6))
            full = g.full_mask
            factors = [rng.randrange(1, full + 1)
                       for _ in range(rng.randrange(2, 4))]
            oracle = WordOracle(g, 4)
            for letters in enumerate_words(g, 4).words:
                w = reduce_word(g, letters)
                assert product_set_membership(w, factors) \
                    == oracle.product_membership(letters, factors), \
                    (g.adj, factors, letters)


class TestWordInclusionBeyondCycles:
    def test_petersen_minimal_cycle_inclusion(self):
        """The minimal-cycle word-inclusion law on a graph that is not itself
        a cycle: around the outer 5-cycle of the Petersen graph, the first
        link meets the product of the other links only in the four elements
        generated by the two cycle-neighbours."""
        from graphprod.graphs import petersen_graph
        from graphprod.verify import WordOracle
        g = petersen_graph()
        factors = [link(g, i) for i in range(1, 5)]
        oracle = WordOracle(g, 4)
        allowed = {(), (1,), (4,), (1, 4)}
        members = set()
        for letters in parabolic_ball(g, link(g, 0), 4):
            w = reduce_word(g, letters)
            if product_set_membership(w, factors, oracle=oracle):
                members.add(w.letters)
                assert w.letters in allowed, letters
        assert members == allowed
