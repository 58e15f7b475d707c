import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from expanderlp import (
    TABLE_SPECS,
    Graph,
    SizeCapError,
    build,
    certify,
    check_attainment,
    girth_bfs,
    girth_spectral,
    is_distance_regular,
    parse_family,
    sphere_poly,
    sphere_poly_matrix,
    spectrum,
    sphere_sequence,
)
from expanderlp.enumeration import random_connected_regular, random_regular_graph
from expanderlp.spectral import Spectrum, _array_spectrum, measure
from oracles import eigenvalue_clusters, walk_count_matrix


def family(text):
    return build(parse_family(text))


class TestSpectrum:
    def test_petersen(self):
        sp = spectrum(family("petersen"))
        assert [(round(e, 8), m) for e, m in sp.entries] == [(3, 1), (1, 5), (-2, 4)]
        assert sp.top == 3.0
        assert sp.d == 2
        assert sp.nontrivial == (1.0, -2.0) or all(
            abs(a - b) < 1e-8 for a, b in zip(sp.nontrivial, (1, -2))
        )

    def test_k4(self):
        sp = spectrum(family("complete:4"))
        assert sp.entries[0] == (3.0, 1)
        assert sp.entries[1][1] == 3
        assert abs(sp.entries[1][0] + 1) < 1e-8

    def test_multiplicities_sum(self):
        for name in ("cycle:7", "pg2:2", "gq:2", "clebsch"):
            g = family(name)
            sp = spectrum(g)
            assert sum(m for _, m in sp.entries) == g.n
            # trace and trace of the square
            assert abs(sum(e * m for e, m in sp.entries)) < 1e-6
            power = sum(e * e * m for e, m in sp.entries)
            assert abs(power - 2 * g.edge_count()) < 1e-6

    def test_disconnected_top_multiplicity(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        sp = spectrum(g)
        assert sp.entries[0][1] == 2
        assert sp.entries[0][0] == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spectrum(Graph.from_edges(0, []))

    def test_size_cap(self):
        n = 600
        with pytest.raises(SizeCapError):
            spectrum(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]))

    def test_cluster_tolerance(self):
        # path on 3 vertices: sqrt(2), 0, -sqrt(2); a wide tol merges them
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert len(spectrum(path).entries) == 3
        sp = spectrum(path, tol=2.0)
        assert len(sp.entries) == 1
        assert sp.entries[0][1] == 3

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="cluster tolerance must be finite and nonnegative"):
            spectrum(family("petersen"), tol=tol)

    def test_zero_tolerance_accepted(self):
        assert sum(m for _, m in spectrum(family("petersen"), tol=0.0).entries) == 10

    def test_overclustering_regular_graph_caught(self):
        # merging the top eigenvalue away trips the sanity guard
        with pytest.raises(ValueError):
            spectrum(family("cycle:5"), tol=10.0)


class TestIntersectionArraySpectrum:
    """A distance-regular graph's spectrum from its (D+1) x (D+1) intersection matrix."""

    @pytest.mark.parametrize(
        "name", [str(s) for s in TABLE_SPECS] + ["pg2:7", "pg2:8", "cycle:511", "cycle:512"]
    )
    def test_agrees_with_eigvalsh(self, name):
        g = family(name)
        k = len(g.neighbors[0])
        got = spectrum(g).entries
        want = eigenvalue_clusters(g)
        assert [m for _, m in got] == [m for _, m in want]
        assert max(abs(a - b) for (a, _), (b, _) in zip(got, want)) <= 1e-12 * k

    def test_integral_roots_exact(self):
        # the continuant of rI - L vanishes at each integer root r
        g = family("hoffman_singleton")
        assert spectrum(g).entries == ((7.0, 1), (2.0, 28), (-3.0, 21))
        g = family("gq:2")
        assert spectrum(g).entries == (
            (3.0, 1), (2.0, 9), (0.0, 10), (-2.0, 9), (-3.0, 1)
        )

    def test_irrational_roots_not_rounded(self):
        g = family("pg2:2")
        values = [e for e, _ in spectrum(g).entries]
        assert values[1] == pytest.approx(2**0.5, abs=1e-14) and values[1] != round(values[1])

    def test_multiplicities_must_be_integers(self):
        # petersen's array on 11 vertices gives multiplicities 1.1, 5.5 and 4.4
        array = is_distance_regular(family("petersen"))
        with pytest.raises(ValueError, match="sanity check"):
            _array_spectrum(array, 11)

    def test_tolerance_merges_roots_by_multiplicity(self):
        # kneser:7,2 is 10, 1^14, (-4)^6; at tol 6 the last two merge into
        # their weighted mean -1/2, as the n x n path merges them
        g = family("kneser:7,2")
        sp = spectrum(g, tol=6.0)
        assert sp.entries == ((10.0, 1), (-0.5, 20))
        assert [m for _, m in eigenvalue_clusters(g, gap=6.0)] == [1, 20]
        assert eigenvalue_clusters(g, gap=6.0)[1][0] == pytest.approx(-0.5, abs=1e-12)

    def test_overclustering_caught(self):
        g = family("cycle:7")
        with pytest.raises(ValueError, match="top eigenvalue far from k"):
            spectrum(g, tol=1.3)


class TestSpherePolyMatrix:
    def test_identity_and_adjacency(self):
        g = family("petersen")
        assert (sphere_poly_matrix(g, 0) == np.eye(10)).all()
        assert (sphere_poly_matrix(g, 1) == g.adjacency_matrix()).all()

    def test_matches_walk_oracle(self):
        for name in ("complete:4", "cycle:6", "petersen", "complete_bipartite:3"):
            g = family(name)
            for i in range(0, 6):
                mat = sphere_poly_matrix(g, i)
                oracle = walk_count_matrix(g, i)
                assert (np.asarray(mat, dtype=object) == oracle).all(), (name, i)

    def test_row_sums_tree_sphere(self):
        # in girth range the row sums equal the tree sphere size
        g = family("gq:2")
        for i in range(1, 4):
            mat = sphere_poly_matrix(g, i)
            expected = 3 * 2 ** (i - 1)
            assert (mat.sum(axis=1) == expected).all()

    def test_irregular_rejected(self):
        with pytest.raises(ValueError):
            sphere_poly_matrix(Graph.from_edges(3, [(0, 1)]), 2)

    @pytest.mark.parametrize("i", [-1, 65])
    def test_index_range(self, i):
        with pytest.raises(ValueError, match="index must lie in 0..64"):
            sphere_poly_matrix(family("petersen"), i)

    def test_large_index_no_overflow(self):
        # entries grow ~ 6^i; i = 40 overflows int64 and must fall back exactly
        g = family("complete:8")
        mat = sphere_poly_matrix(g, 40)
        total = int(np.asarray(mat, dtype=object).sum())
        assert total == 8 * 7 * 6**39  # v * S_40(k) row sums, k = 7

    @pytest.mark.parametrize("upto, dtype", [(20, np.int64), (21, object)])
    def test_exactness_guard_boundary(self, upto, dtype):
        # k = 7: k * S_{upto-1}(k) = 49 * 6**(upto-2) first reaches 2**53 at
        # upto = 21, so 20 is the last float64 pass and 21 the first on Python ints
        mat = sphere_poly_matrix(family("complete:8"), upto)
        assert mat.dtype == dtype
        row_sums = {int(x) for x in np.asarray(mat, dtype=object).sum(axis=1)}
        assert row_sums == {7 * 6 ** (upto - 1)}


class TestGirthSpectral:
    def test_matches_bfs(self):
        for name in (
            "cycle:5",
            "cycle:7",
            "complete:4",
            "complete_bipartite:3",
            "pg2:2",
            "gq:2",
            "petersen",
            "hoffman_singleton",
            "clebsch",
        ):
            g = family(name)
            assert girth_spectral(measure(g)) == girth_bfs(g), name

    @given(n=st.integers(6, 512), k=st.integers(3, 5), seed=st.integers(0, 2**32 - 1))
    @example(n=512, k=3, seed=1)
    @settings(max_examples=40, deadline=None)
    def test_matches_bfs_on_random_regular(self, n, k, seed):
        g = random_regular_graph(n + n * k % 2, k, random.Random(seed))
        m = measure(g)
        assume(m.diameter is not None)
        assert girth_spectral(m) == girth_bfs(g)

    @given(n=st.integers(3, 512))
    @example(n=512)
    @settings(max_examples=40, deadline=None)
    def test_matches_bfs_on_cycles(self, n):
        assert girth_spectral(measure(family(f"cycle:{n}"))) == n

    def test_requires_regular_connected(self):
        with pytest.raises(ValueError, match="regular"):
            girth_spectral(measure(Graph.from_edges(3, [(0, 1)])))
        with pytest.raises(ValueError, match="connected"):
            girth_spectral(measure(Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])))
        with pytest.raises(ValueError, match="graph has no cycle"):
            girth_spectral(measure(family("complete:2")))

    def test_moved_eigenvalue_gives_none(self):
        m = measure(family("petersen"))
        (top, one, minus_two) = m.spectrum.entries
        moved = m._replace(spectrum=Spectrum((top, (one[0] + 1e-3, one[1]), minus_two)))
        assert girth_spectral(m) == 5
        assert girth_spectral(moved) is None

    @pytest.mark.parametrize("name", ["pg2:8", "kneser:7,2"])
    def test_wide_tolerance_gives_none(self, name):
        # tol 6.0 merges pg2:8's +-2*sqrt(2) into 0^144 and kneser:7,2's 1 and -4
        # into -0.5^20; summed naively those spectra give girth 2.  The error
        # bound reads the tolerance from the measurement
        g = family(name)
        wide = measure(g, 6.0)
        assert wide.tol == 6.0
        assert girth_spectral(wide) is None
        assert girth_spectral(measure(g)) == girth_bfs(g)

    def test_measurement_records_default_tolerance(self):
        # 1e-8 * max(1, max degree) when no tolerance is given
        assert measure(family("petersen")).tol == 1e-8 * 3
        assert measure(Graph.from_edges(3, [(0, 1)])).tol == 1e-8
        assert measure(family("petersen"), 0.0).tol == 0.0


@st.composite
def measured_graphs(draw):
    """Random connected k-regular graphs, 2 <= k <= 5, on at most 24 vertices, and the named families."""
    if draw(st.booleans()):
        return family(draw(st.sampled_from([str(s) for s in TABLE_SPECS] + ["pg2:7", "pg2:8"])))
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k + 1, 24).filter(lambda n: n * k % 2 == 0))
    return random_connected_regular(n, k, random.Random(draw(st.integers(0, 2**31 - 1))))


@given(g=measured_graphs(), tol=st.sampled_from([None, 1e-3, 0.5, 1.0, 6.0]))
@example(g=family("pg2:8"), tol=6.0)  # read at the default tolerance, these traces give girth 4
@settings(max_examples=80, deadline=None)
def test_readers_take_the_measurement_whole(g, tol):
    # girth_spectral and check_attainment read the tolerance, degree,
    # connectivity and order that measure took, so no reader contradicts it
    try:
        m = measure(g, tol)
    except ValueError:
        assume(False)
    assert girth_spectral(m) in (None, girth_bfs(g))
    r = certify(g, tol)
    if r.certificate is not None:
        assert check_attainment(m, r.certificate) == r.attainment


class TestHoffmanDecomposition:
    # For a connected k-regular graph with d + 1 distinct eigenvalues and
    # girth at least 2d, S_0(A) + ... + S_{d-1}(A) + S_d(A) / c_d is the
    # all-ones matrix, where c_d is the last entry of the intersection array.

    def test_geodesic_counts(self):
        expected = {
            "cycle:5": 1,
            "cycle:6": 2,
            "cycle:7": 1,
            "complete:4": 1,
            "complete_bipartite:3": 3,
            "pg2:2": 3,
            "pg2:3": 4,
            "pg2:4": 5,
            "gq:2": 3,
            "petersen": 1,
            "hoffman_singleton": 1,
            "kneser:7,3": 2,
            "clebsch": 2,
        }
        for name, count in expected.items():
            g = family(name)
            array = is_distance_regular(g)
            assert array.diameter == spectrum(g).d, name
            assert array.c == (1,) * (array.diameter - 1) + (count,), name
            if array.diameter >= 2:
                assert certify(g).moore_polygon_c == count, name

    def test_count_consistency(self):
        # v = B_{d-1}(k) + S_d(k) / c_d
        for name in ("petersen", "pg2:2", "gq:2", "clebsch", "hoffman_singleton"):
            g = family(name)
            d = spectrum(g).d
            k = len(g.neighbors[0])
            c_d = is_distance_regular(g).c[-1]
            assert c_d * (g.n - sum(sphere_sequence(k, k, d - 1))) == sphere_poly(k, d, k)

    def test_girth_requirement(self):
        # prism: d = 3 distinct nontrivial eigenvalues but girth 3 < 6, and
        # no intersection array to read c_d from
        prism = Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
        )
        assert spectrum(prism).d == 3
        assert girth_bfs(prism) == 3
        assert is_distance_regular(prism) is None


class TestSpectralGap:
    # k minus the second distinct eigenvalue, as `analyze` reports it

    def test_values(self):
        cases = (("complete:4", 3, 4.0), ("petersen", 3, 2.0), ("hoffman_singleton", 7, 5.0), ("cycle:4", 2, 2.0))
        for name, k, gap in cases:
            assert k - spectrum(family(name)).entries[1][0] == pytest.approx(gap, abs=1e-8), name

    def test_requires_connected(self):
        # k's multiplicity counts the components, so a disconnected graph's
        # gap is 0, not k minus the second distinct eigenvalue
        assert spectrum(Graph.from_edges(4, [(0, 1), (2, 3)])).entries[0] == (1.0, 2)
        assert spectrum(family("petersen")).entries[0] == (3.0, 1)
