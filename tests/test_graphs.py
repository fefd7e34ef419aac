import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphprod.graphs import (SimpleGraph, bits, complement, complete_graph,
                              components, contains_square, cycle_graph,
                              disjoint_union, edgeless_graph, from_graph6,
                              from_json_obj, girth, induced, link, mask_of,
                              min_degree, path_graph, perp, petersen_graph,
                              star, to_graph6, to_json_obj)


def brute_girth(g):
    """Independent oracle: shortest cycle = smallest subset inducing a cycle
    (a shortest cycle is always induced)."""
    for k in range(3, g.n + 1):
        for sub in itertools.combinations(range(g.n), k):
            m = mask_of(sub)
            h, _ = induced(g, m)
            if all(h.degree(v) == 2 for v in range(k)) and len(components(h)) == 1:
                return k
    return math.inf


def random_mask_graph(n, seed):
    import random
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return SimpleGraph.from_edges(n, edges)


class TestLinkStarPerp:
    def test_link_examples(self, c5, k4):
        assert sorted(bits(link(c5, 0))) == [1, 4]
        assert sorted(bits(link(k4, 0))) == [1, 2, 3]
        assert link(edgeless_graph(3), 0) == 0

    def test_star_examples(self, c5, k4):
        assert sorted(bits(star(c5, 0))) == [0, 1, 4]
        assert star(k4, 0) == 0b1111
        assert star(edgeless_graph(3), 0) == 1

    def test_out_of_range(self, c5):
        with pytest.raises(IndexError):
            link(c5, 5)
        with pytest.raises(IndexError):
            star(c5, -1)

    def test_perp_examples(self, c5):
        assert perp(c5, mask_of([0, 2])) == mask_of([1])
        assert perp(c5, 0) == c5.full_mask
        assert perp(c5, mask_of([0, 1])) == 0

    def test_perp_of_singleton_is_link(self, c5, k4, k23, path5):
        for g in (c5, k4, k23, path5):
            for v in range(g.n):
                assert perp(g, 1 << v) == link(g, v)

    def test_perp_disjoint_from_nonempty_set(self, petersen):
        for s in range(1, 1 << 10, 37):
            assert perp(petersen, s) & s == 0

    def test_perp_antitone(self):
        g = random_mask_graph(7, seed=3)
        for s in range(1 << 7):
            for extra in range(7):
                t = s | 1 << extra
                assert perp(g, t) & ~perp(g, s) == 0

    def test_link_within_star(self, petersen):
        for v in range(petersen.n):
            assert link(petersen, v) & ~star(petersen, v) == 0
            assert star(petersen, v) >> v & 1


class TestGirthAndSquares:
    def test_girth_examples(self, c5):
        assert girth(c5) == 5
        assert girth(path_graph(4)) is math.inf
        assert girth(petersen_graph()) == 5  # frozen from brute oracle below

    def test_girth_brute_oracle(self, petersen):
        assert brute_girth(petersen) == 5
        for seed in range(12):
            g = random_mask_graph(7, seed)
            assert girth(g) == brute_girth(g)

    def test_girth_triangle_on_last_vertices(self):
        # a pentagon on 0..4, a path 4-5, and the only triangle on 5, 6, 7:
        # the roots before 5 all settle on 5, and only the last roots see the
        # triangle, so stopping at the first 3 must not stop any earlier
        g = SimpleGraph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                       (4, 5), (5, 6), (6, 7), (7, 5)])
        assert girth(g) == brute_girth(g) == 3

    def test_girth_stops_at_first_triangle(self, monkeypatch):
        # a triangle through root 0 ends the search inside the first BFS
        import graphprod.graphs as graphs_mod
        g = SimpleGraph.from_edges(
            12, [(0, 1), (1, 2), (2, 0)] + [(v, v + 1) for v in range(2, 11)])
        calls = []
        real_bits = graphs_mod.bits

        def counting_bits(mask):
            calls.append(mask)
            return real_bits(mask)

        monkeypatch.setattr(graphs_mod, "bits", counting_bits)
        assert girth(g) == 3
        assert len(calls) < g.n

    def test_contains_square(self, c4, c5, k4):
        assert contains_square(c4)
        assert not contains_square(c5)
        assert not contains_square(k4)

    def test_girth5_iff_no_triangle_no_square_n_le_7(self):
        # exhaustive equivalence against the cycle-enumeration oracle
        from graphprod.verify import enumerate_graphs
        from graphprod.graphs import contains_triangle
        for n in range(1, 8):
            for g in enumerate_graphs(n).graphs:
                lhs = girth(g) >= 5
                rhs = not contains_triangle(g) and not contains_square(g)
                assert lhs == rhs, to_graph6(g)

    def test_girth_matches_cycle_enumeration_exhaustively(self):
        from graphprod.verify import enumerate_graphs
        for n in range(1, 7):
            for g in enumerate_graphs(n).graphs:
                assert girth(g) == brute_girth(g), to_graph6(g)


class TestBasicQueries:
    def test_components(self, c5, c6):
        both = disjoint_union(c5, c6)
        comps = components(both)
        assert [c.bit_count() for c in comps] == [5, 6]

    def test_min_degree(self):
        assert min_degree(path_graph(3)) == 1
        assert min_degree(cycle_graph(4)) == 2

    def test_complement(self):
        assert complement(complete_graph(3)).edge_count() == 0
        assert complement(edgeless_graph(4)).edge_count() == 6

    def test_induced_full_is_identity(self, petersen):
        h, remap = induced(petersen, petersen.full_mask)
        assert h.adj == petersen.adj and remap == list(range(10))

    def test_induced_empty_raises(self, c5):
        with pytest.raises(ValueError):
            induced(c5, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimpleGraph(2, (0b10,))  # row count
        with pytest.raises(ValueError):
            SimpleGraph(2, (0b01, 0b00))  # loop
        with pytest.raises(ValueError):
            SimpleGraph(2, (0b10, 0b00))  # asymmetric
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(2, [(0, 2)])


class TestGraph6:
    def test_round_trip_named(self, c5, c6, petersen, k23):
        for g in (c5, c6, petersen, k23, path_graph(7), complete_graph(1)):
            assert from_graph6(to_graph6(g)).adj == g.adj

    def test_round_trip_random(self):
        for seed in range(20):
            g = random_mask_graph(9, seed)
            assert from_graph6(to_graph6(g)).adj == g.adj

    def test_against_networkx(self, petersen, c6):
        nx = pytest.importorskip("networkx")
        for g in (petersen, c6, path_graph(5)):
            via_nx = nx.from_graph6_bytes(to_graph6(g).encode())
            assert sorted(via_nx.edges()) == sorted(g.edges())
            back = from_graph6(nx.to_graph6_bytes(via_nx, header=False).decode().strip())
            assert back.adj == g.adj

    def test_long_size_header(self):
        nx = pytest.importorskip("networkx")
        # McKay's formats.txt: n = 63 is byte 126 then 63 in three 6-bit bytes
        for n, size in ((62, "}"), (63, "~??~"), (64, "~?@?")):
            g = random_mask_graph(n, n)
            text = to_graph6(g)
            assert from_graph6(text).adj == g.adj
            assert text.startswith(size) and len(text) == len(size) + (
                n * (n - 1) // 2 + 5) // 6
            via_nx = nx.from_graph6_bytes(text.encode())
            assert sorted(via_nx.edges()) == sorted(g.edges())
            assert nx.to_graph6_bytes(via_nx, header=False).decode().strip() == text

    def test_long_size_header_limits(self):
        with pytest.raises(ValueError, match="above 64"):
            from_graph6("~?@@")  # n = 65
        with pytest.raises(ValueError, match="offset 3"):
            from_graph6("~??")
        with pytest.raises(ValueError, match="offset 2"):
            from_graph6("~?\x05~")
        with pytest.raises(ValueError, match="1 <= n <= 64"):
            to_graph6(SimpleGraph(0, ()))

    def test_header_accepted(self, c5):
        assert from_graph6(">>graph6<<" + to_graph6(c5)).adj == c5.adj

    def test_bad_inputs_name_offset(self):
        with pytest.raises(ValueError, match="offset 0"):
            from_graph6("\x1f")
        with pytest.raises(ValueError, match="zero vertices"):
            from_graph6("?")
        with pytest.raises(ValueError, match="offset"):
            from_graph6(to_graph6(cycle_graph(5)) + "AA")
        with pytest.raises(ValueError, match="offset 2"):
            from_graph6("D" + "q" + "\x05")


class TestJson:
    def test_round_trip(self, c5):
        assert from_json_obj(to_json_obj(c5)).adj == c5.adj

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            from_json_obj({"n": 2})
        with pytest.raises(ValueError):
            from_json_obj({"n": 0, "edges": []})
        with pytest.raises(ValueError):
            from_json_obj({"n": 2, "edges": [[0]]})


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10 ** 6))
def test_perp_meets_pairwise_links(n, seed):
    g = random_mask_graph(n, seed)
    for s in range(1 << n):
        expect = g.full_mask
        for v in bits(s):
            expect &= link(g, v)
        assert perp(g, s) == expect
