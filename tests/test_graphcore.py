import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlp import (
    Graph,
    IntersectionArray,
    all_pairs_distances,
    build,
    diameter,
    distance_matrix,
    edge_expansion,
    girth_bfs,
    is_bipartite,
    is_connected,
    is_distance_regular,
    nonbacktracking_walk_count,
    parse_family,
    regularity,
)
from expanderlp.enumeration import random_regular_graph
from oracles import bfs_distances, expansion_brute, intersection_array_brute


def family(text):
    return build(parse_family(text))


def k4():
    return family("complete:4")


def c_n(n):
    return family(f"cycle:{n}")


def prism():
    # triangular prism: 3-regular but not distance-regular
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


class TestGraph:
    def test_from_edges_basic(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (1, 0)])
        assert g.edge_count() == 2
        assert g.neighbors == ((1,), (0, 2), (1,))
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)

    def test_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph.from_edges(-1, [])

    def test_adjacency_symmetric(self):
        g = family("petersen")
        a = g.adjacency_matrix()
        assert (a == a.T).all()
        assert a.sum() == 2 * g.edge_count()
        assert np.trace(a) == 0

    def test_hashable(self):
        assert len({k4(), k4(), c_n(4)}) == 2


class TestBasicMetrics:
    def test_regularity(self):
        assert regularity(k4()) == 3
        assert regularity(c_n(5)) == 2
        assert regularity(Graph.from_edges(3, [(0, 1)])) is None
        assert regularity(Graph.from_edges(0, [])) is None
        assert regularity(Graph.from_edges(2, [])) == 0

    def test_connectivity(self):
        assert is_connected(k4())
        assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
        assert is_connected(Graph.from_edges(0, []))
        assert is_connected(Graph.from_edges(1, []))

    def test_bipartite(self):
        assert is_bipartite(c_n(6))
        assert not is_bipartite(c_n(5))
        assert is_bipartite(family("pg2:2"))
        assert not is_bipartite(family("petersen"))


class TestGirth:
    def test_known(self):
        assert girth_bfs(k4()) == 3
        assert girth_bfs(c_n(6)) == 6
        assert girth_bfs(family("petersen")) == 5
        assert girth_bfs(family("pg2:2")) == 6
        assert girth_bfs(family("gq:2")) == 8
        assert girth_bfs(family("hoffman_singleton")) == 5

    def test_acyclic(self):
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert girth_bfs(path) is None
        assert girth_bfs(Graph.from_edges(1, [])) is None

    def test_triangle_plus_pendant(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        assert girth_bfs(g) == 3


class TestDistances:
    def test_distance_matrix_cycle(self):
        g = c_n(6)
        assert list(all_pairs_distances(g)[0]) == [0, 1, 2, 3, 2, 1]
        at2 = distance_matrix(g, 2)
        assert at2.dtype == bool
        assert list(at2[0]) == [False, False, True, False, True, False]
        # indicator layers partition the vertex pairs
        total = sum(distance_matrix(g, i).sum() for i in range(4))
        assert total == 36

    def test_all_pairs(self):
        g = family("petersen")
        dist = all_pairs_distances(g)
        assert dist.shape == (10, 10)
        assert (dist.T == dist).all()
        # petersen: each vertex sees 3 at distance 1 and 6 at distance 2
        for v in range(10):
            row = list(dist[v])
            assert sorted(row) == [0] + [1] * 3 + [2] * 6

    def test_unreachable(self):
        g = Graph.from_edges(3, [(0, 1)])
        dist = all_pairs_distances(g)
        assert dist[0, 2] == -1
        with pytest.raises(ValueError):
            distance_matrix(g, 0)

    def test_diameter(self):
        assert diameter(k4()) == 1
        assert diameter(c_n(7)) == 3
        assert diameter(family("gq:2")) == 4
        assert diameter(family("hoffman_singleton")) == 2


class TestWalkCounts:
    def test_cycle_closing_walks(self):
        g = c_n(5)
        # the only non-backtracking closed walk of length 5 goes around, one way each
        for v in range(5):
            assert nonbacktracking_walk_count(g, v, v, 5) == 2
        assert nonbacktracking_walk_count(g, 0, 0, 4) == 0
        assert nonbacktracking_walk_count(g, 0, 1, 1) == 1
        assert nonbacktracking_walk_count(g, 0, 1, 4) == 1

    def test_k4_small_lengths(self):
        g = k4()
        # 0 -> a -> b -> 0 over distinct a, b in {1,2,3}: six triangles traversals
        assert nonbacktracking_walk_count(g, 0, 0, 3) == 6
        assert nonbacktracking_walk_count(g, 0, 1, 2) == 2

    def test_length_zero(self):
        g = k4()
        assert nonbacktracking_walk_count(g, 0, 0, 0) == 1
        assert nonbacktracking_walk_count(g, 0, 1, 0) == 0

    def test_cap(self):
        with pytest.raises(ValueError):
            nonbacktracking_walk_count(k4(), 0, 0, 13)


class TestDistanceRegularity:
    def test_petersen(self):
        arr = is_distance_regular(family("petersen"))
        assert arr == IntersectionArray((3, 2), (1, 1))
        assert arr.diameter == 2
        assert arr.a == (0, 0, 2)

    def test_cycle6(self):
        assert is_distance_regular(c_n(6)) == IntersectionArray((2, 1, 1), (1, 1, 2))

    def test_k33(self):
        assert is_distance_regular(family("complete_bipartite:3")) == IntersectionArray(
            (3, 2), (1, 3)
        )

    def test_heawood(self):
        assert is_distance_regular(family("pg2:2")) == IntersectionArray((3, 2, 2), (1, 1, 3))

    def test_gq2(self):
        assert is_distance_regular(family("gq:2")) == IntersectionArray(
            (3, 2, 2, 2), (1, 1, 1, 3)
        )

    def test_prism_is_not(self):
        assert is_distance_regular(prism()) is None

    def test_irregular_rejected(self):
        with pytest.raises(ValueError):
            is_distance_regular(Graph.from_edges(3, [(0, 1)]))

    def test_complete(self):
        assert is_distance_regular(k4()) == IntersectionArray((3,), (1,))

    def test_array_validation(self):
        with pytest.raises(ValueError):
            IntersectionArray((3, 2), (2, 1))
        with pytest.raises(ValueError):
            IntersectionArray((3, 2), (1,))


class TestEdgeExpansion:
    def test_small_exact(self):
        assert edge_expansion(k4()).h == 2
        assert edge_expansion(c_n(4)).h == 1
        assert edge_expansion(Graph.from_edges(2, [(0, 1)])).h == 1

    def test_petersen(self):
        assert edge_expansion(family("petersen")).h == 1

    def test_odd_cycle(self):
        assert edge_expansion(c_n(7)).h == Fraction(2, 3)

    def test_witness_consistent(self):
        for g in (k4(), c_n(6), prism(), family("petersen")):
            res = edge_expansion(g)
            s = set(res.witness)
            assert 0 < len(s) <= g.n // 2
            boundary = sum(1 for v in s for w in g.neighbors[v] if w not in s)
            assert Fraction(boundary, len(s)) == res.h

    def test_matches_bruteforce(self):
        import random

        rng = random.Random(5)
        for _ in range(12):
            n = rng.randrange(3, 9)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            g = Graph.from_edges(n, edges)
            if not is_connected(g):
                continue
            assert edge_expansion(g).h == expansion_brute(g)

    def test_disconnected_zero(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert edge_expansion(g).h == 0

    def test_cap(self):
        from expanderlp import SizeCapError

        with pytest.raises(SizeCapError):
            edge_expansion(Graph.from_edges(25, [(i, (i + 1) % 25) for i in range(25)]))


@given(st.integers(3, 9), st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_girth_matches_cycle_enumeration(n, seed):
    import random
    from itertools import combinations

    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
    g = Graph.from_edges(n, edges)
    # oracle: shortest cycle by checking all vertex subsets for an induced cycle
    best = None
    for size in range(3, n + 1):
        for sub in combinations(range(n), size):
            inside = set(sub)
            degs = [sum(1 for w in g.neighbors[v] if w in inside) for v in sub]
            if all(d == 2 for d in degs):
                sub_g = Graph.from_edges(
                    size,
                    [
                        (sub.index(a), sub.index(b))
                        for a in sub
                        for b in g.neighbors[a]
                        if b in inside and a < b
                    ],
                )
                if is_connected(sub_g):
                    best = size
                    break
        if best is not None:
            break
    assert girth_bfs(g) == best


@st.composite
def small_graphs(draw):
    """Graphs on n <= 12 vertices: any degrees, isolated vertices, several components."""
    n = draw(st.integers(0, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    return Graph.from_edges(n, edges)


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_distances_match_bfs(g):
    dist = all_pairs_distances(g)
    assert dist.shape == (g.n, g.n)
    assert (dist == bfs_distances(g)).all()


@st.composite
def random_regular(draw):
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k + 1, 24).filter(lambda n: n * k % 2 == 0))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_regular_graph(n, k, random.Random(seed))


@given(random_regular())
@settings(max_examples=60, deadline=None)
def test_distance_regularity_matches_definition(g):
    if not is_connected(g):
        with pytest.raises(ValueError):
            is_distance_regular(g)
        return
    arr = is_distance_regular(g)
    want = intersection_array_brute(g)
    assert (None if arr is None else (arr.b, arr.c)) == want
