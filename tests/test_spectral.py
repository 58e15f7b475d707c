import numpy as np
import pytest

from expanderlp import (
    Graph,
    SizeCapError,
    ball_poly,
    build,
    girth_bfs,
    girth_spectral,
    hoffman_decomposition,
    parse_family,
    sphere_poly,
    sphere_poly_matrix,
    spectral_gap,
    spectrum,
    sphere_poly_matrices,
)
from oracles import walk_count_matrix


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

    def test_overclustering_regular_graph_caught(self):
        # merging the top eigenvalue away trips the sanity guard
        with pytest.raises(ValueError):
            spectrum(family("cycle:5"), tol=10.0)


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
        g = family("complete:8")
        mats = list(sphere_poly_matrices(g, upto))
        assert len(mats) == upto + 1
        assert all(m.dtype == dtype for m in mats)
        row_sums = {int(x) for x in np.asarray(mats[upto], dtype=object).sum(axis=1)}
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
            assert girth_spectral(g) == girth_bfs(g), name

    def test_requires_regular_connected(self):
        with pytest.raises(ValueError):
            girth_spectral(Graph.from_edges(3, [(0, 1)]))
        with pytest.raises(ValueError):
            girth_spectral(Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))


class TestHoffmanDecomposition:
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
            data = hoffman_decomposition(family(name))
            assert data.geodesic_count == count, name
            assert data.residual == 0.0, name

    def test_count_consistency(self):
        # v = B_{d-1}(k) + S_d(k) / e whenever the decomposition exists
        for name in ("petersen", "pg2:2", "gq:2", "clebsch", "hoffman_singleton"):
            g = family(name)
            sp = spectrum(g)
            d = sp.d
            k = len(g.neighbors[0])
            data = hoffman_decomposition(g)
            assert data.geodesic_count * (g.n - ball_poly(k, d - 1, k)) == sphere_poly(k, d, k)

    def test_girth_requirement(self):
        # prism: d = 3 distinct nontrivial eigenvalues but girth 3 < 6
        prism = Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
        )
        with pytest.raises(ValueError):
            hoffman_decomposition(prism)


class TestSpectralGap:
    def test_values(self):
        assert spectral_gap(family("complete:4")) == pytest.approx(4.0, abs=1e-8)
        assert spectral_gap(family("petersen")) == pytest.approx(2.0, abs=1e-8)
        assert spectral_gap(family("hoffman_singleton")) == pytest.approx(5.0, abs=1e-8)
        assert spectral_gap(family("cycle:4")) == pytest.approx(2.0, abs=1e-8)

    def test_requires_connected(self):
        with pytest.raises(ValueError):
            spectral_gap(Graph.from_edges(4, [(0, 1), (2, 3)]))
