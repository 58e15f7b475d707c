import random
import tracemalloc
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
    edge_expansion,
    girth_bfs,
    is_connected,
    is_distance_regular,
    parse_family,
    regularity,
)
from expanderlp.enumeration import random_regular_graph
from expanderlp.graphcore import _level_sweep
from oracles import bfs_distances, expansion_brute, girth_brute, intersection_array_brute, is_bipartite


def family(text):
    return build(parse_family(text))


def k4():
    return family("complete:4")


def c_n(n):
    return family(f"cycle:{n}")


def prism():
    # triangular prism: 3-regular but not distance-regular
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def generalized_petersen(n, t):
    """GP(n, t): outer cycle u_i ~ u_{i+1}, spokes u_i ~ v_i, inner edges v_i ~ v_{i+t}."""
    outer = [(i, (i + 1) % n) for i in range(n)]
    inner = [(n + i, n + (i + t) % n) for i in range(n)]
    return Graph.from_edges(2 * n, outer + [(i, n + i) for i in range(n)] + inner)


def hypercube(d):
    return Graph.from_edges(1 << d, [(u, u | 1 << b) for u in range(1 << d) for b in range(d) if not u >> b & 1])


def rook(m):
    """K_m x K_m (Cartesian product): cells of an m x m board, adjacent in a shared row or column."""
    return Graph.from_edges(
        m * m, [(u, w) for u in range(m * m) for w in range(u + 1, m * m) if (u // m == w // m) != (u % m == w % m)]
    )


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
        dist = all_pairs_distances(c_n(6))
        assert list(dist[0]) == [0, 1, 2, 3, 2, 1]
        assert list((dist == 2)[0]) == [False, False, True, False, True, False]
        # indicator layers partition the vertex pairs
        assert sum((dist == i).sum() for i in range(4)) == 36

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

    def test_diameter(self):
        assert diameter(k4()) == 1
        assert diameter(c_n(7)) == 3
        assert diameter(family("gq:2")) == 4
        assert diameter(family("hoffman_singleton")) == 2
        with pytest.raises(ValueError, match="nonempty connected"):
            diameter(Graph.from_edges(4, [(0, 1), (2, 3)]))


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

    @pytest.mark.parametrize(
        "g",
        [
            # vertex-transitive, so every vertex has the same level sizes, but
            # not distance-regular: a pair past the girth tells them apart
            pytest.param(generalized_petersen(8, 3), id="GP(8,3)"),
            pytest.param(generalized_petersen(12, 5), id="GP(12,5)"),
            # distance-regular: the dodecahedron, the Desargues graph, cubes
            # and rook's graphs
            pytest.param(generalized_petersen(10, 2), id="GP(10,2)"),
            pytest.param(generalized_petersen(10, 3), id="GP(10,3)"),
            pytest.param(hypercube(3), id="Q3"),
            pytest.param(hypercube(4), id="Q4"),
            pytest.param(rook(3), id="K3xK3"),
            pytest.param(rook(4), id="K4xK4"),
            # girth 4: counted from the second step on, across 64-bit words
            pytest.param(hypercube(6), id="Q6"),
            pytest.param(hypercube(7), id="Q7"),
        ],
    )
    def test_matches_definition(self, g):
        arr = is_distance_regular(g)
        assert (None if arr is None else (arr.b, arr.c)) == intersection_array_brute(g)

    def test_array_validation(self):
        with pytest.raises(ValueError):
            IntersectionArray((3, 2), (2, 1))
        with pytest.raises(ValueError):
            IntersectionArray((3, 2), (1,))
        with pytest.raises(ValueError, match="nonnegative"):
            IntersectionArray((3, -1), (1, 1))

    def test_empty_array(self):
        # K_1: diameter 0, and a_0 = 0
        assert IntersectionArray((), ()).a == (0,)
        assert IntersectionArray((), ()).diameter == 0


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

    def test_one_vertex_rejected(self):
        with pytest.raises(ValueError, match="at least two vertices"):
            edge_expansion(Graph.from_edges(1, []))

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


# packed rows end one short of, at and one past a byte or a 64-bit word
PACKING_SIZES = (7, 8, 9, 15, 16, 17, 63, 64, 65)


@st.composite
def boundary_graphs(draw):
    """Graphs on PACKING_SIZES vertices: irregular ones with isolated vertices
    and several components, random regular ones, and complete ones."""
    n = draw(st.sampled_from(PACKING_SIZES))
    kind = draw(st.sampled_from(["irregular", "regular", "complete"]))
    if kind == "complete":
        return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "regular":
        k = draw(st.sampled_from([k for k in (2, 3, 4) if n * k % 2 == 0]))
        return random_regular_graph(n, k, random.Random(draw(st.integers(0, 2**32 - 1))))
    # edges only inside consecutive blocks, so blocks are never joined
    cuts = draw(st.lists(st.integers(1, n - 1), max_size=3, unique=True))
    edges = []
    for lo, hi in zip([0] + sorted(cuts), sorted(cuts) + [n]):
        if hi - lo > 1:
            ends = st.integers(lo, hi - 1)
            edges += draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]), max_size=2 * (hi - lo)))
    return Graph.from_edges(n, edges)


@given(boundary_graphs())
@settings(max_examples=120, deadline=None)
def test_sweep_at_packing_boundaries(g):
    dist = all_pairs_distances(g)
    want = bfs_distances(g)
    assert (dist == want).all()
    sweep = _level_sweep(g)
    assert sweep.diameter == (None if (want < 0).any() else want.max())
    assert is_connected(g) == (sweep.diameter is not None)
    assert girth_bfs(g) == girth_brute(g)
    if regularity(g) is None or (dist < 0).any():
        with pytest.raises(ValueError):
            is_distance_regular(g)
        return
    arr = is_distance_regular(g)
    assert (None if arr is None else (arr.b, arr.c)) == intersection_array_brute(g)


@pytest.mark.parametrize("n", list(range(3, 71)) + [511, 512])
def test_cycle_closed_forms(n):
    g = c_n(n)
    d = n // 2
    assert girth_bfs(g) == n
    assert diameter(g) == d
    # the vertex opposite x has both neighbours one step closer when n is even
    want = IntersectionArray((2,) + (1,) * (d - 1), (1,) * (d - 1) + (2 - n % 2,))
    assert is_distance_regular(g) == want


def sweep_peak(g):
    """tracemalloc's peak over one level sweep of g, and the sweep."""
    _level_sweep(g)
    tracemalloc.start()
    try:
        sweep = _level_sweep(g)
        return tracemalloc.get_traced_memory()[1], sweep
    finally:
        tracemalloc.stop()


def test_sweep_memory():
    # the packed sweep forms no n x n integer matrix, no n^2-entry index
    # array and no distance bit-planes, whether the graph is
    # distance-regular or not.  On a random cubic graph, a sweep over
    # unpacked int16 distances, down/same counts and int64 girth gathers
    # peaked at 3.8 MB, and one that kept packed distance bit-planes at 604 KB
    peak, sweep = sweep_peak(random_regular_graph(512, 3, random.Random(1)))
    assert sweep.array is None
    assert peak < 550_000
    # on cycle:512, counting c and a over the unpacked int16 distances peaked
    # at 2.5 MB, and keeping packed distance bit-planes at 697 KB
    peak, sweep = sweep_peak(c_n(512))
    assert sweep.array is not None
    assert peak < 500_000
