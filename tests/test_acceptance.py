"""Acceptance gate: one test per shipped claim, one printed verdict line each."""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from expanderlp import (
    SphereBasisPoly,
    TABLE_SPECS,
    build,
    certificate_from_spectrum,
    certify,
    check_attainment,
    check_certificate,
    edge_expansion,
    expected_profile,
    girth_bfs,
    girth_spectral,
    linearize_product,
    lp_bound_dual,
    lp_bound_primal,
    moore_bound,
    regularity,
    spectrum,
    sphere_poly,
    sphere_poly_matrix,
    tutte_bound,
    weight_quadrature,
)
from expanderlp.enumeration import connected_cubic_graphs, random_connected_regular
from expanderlp.spectral import measure
from oracles import walk_count_matrix


@contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print(f"[{label}] FAIL")
        raise
    print(f"[{label}] PASS")


def table_graphs():
    return [(spec, build(spec)) for spec in TABLE_SPECS]


def test_criterion_1_table_reproduction():
    with verdict("criterion 1: catalog reproduction, LP bound tight on all rows"):
        start = time.monotonic()
        for spec, g in table_graphs():
            prof = expected_profile(spec)
            assert g.n == prof.v, spec
            k = regularity(g)
            assert k == prof.k, spec
            assert girth_bfs(g) == prof.girth, spec
            sp = spectrum(g)
            assert len(sp.entries) == len(prof.spectrum), spec
            for (me, mm), (ee, em) in zip(sp.entries, prof.spectrum):
                assert abs(me - float(ee)) <= 1e-8, (spec, me, ee)
                assert mm == em, spec
            sol = lp_bound_dual(k, sp.nontrivial, 2 * sp.d - 1)
            assert sol.status == "optimal", spec
            assert abs(float(sol.objective) - g.n) <= 1e-6, (spec, sol.objective)
            cert = certificate_from_spectrum(k, sp.nontrivial)
            rep = check_attainment(measure(g), cert)
            assert rep.applicable and rep.tight, (spec, rep.reason)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_petersen_exact():
    with verdict("criterion 2: petersen certificate exact in rational arithmetic"):
        cert = certificate_from_spectrum(3, (1, -2))
        assert cert.poly.coeffs == (5, 5, 3, 1)
        assert all(isinstance(c, int) for c in cert.poly.coeffs)
        assert cert.value_at_k == 50
        assert cert.bound == Fraction(10)
        assert isinstance(cert.bound, Fraction)


def test_criterion_3_moore_tutte():
    with verdict("criterion 3: moore and tutte numbers with flags"):
        assert moore_bound(3, 2) == 10
        assert tutte_bound(3, 2) == 10
        assert moore_bound(7, 2) == 50
        assert certify(build_spec("petersen")).is_moore is True
        assert certify(build_spec("hoffman_singleton")).is_moore is True
        assert certify(build_spec("pg2:2")).is_moore is False


def build_spec(text):
    from expanderlp import parse_family

    return build(parse_family(text))


def _small_test_graphs():
    graphs = [(str(spec), g) for spec, g in table_graphs() if g.n <= 12]
    rng = random.Random(20250814)
    for idx in range(100):
        n = rng.choice((4, 6, 8, 10, 12))
        graphs.append((f"random-cubic-{idx}-n{n}", random_connected_regular(n, 3, rng)))
    return graphs


def test_criterion_4a_walk_count_oracle():
    with verdict("criterion 4a: sphere matrices equal walk counts on 105 graphs"):
        graphs = _small_test_graphs()
        assert len(graphs) == 105
        for name, g in graphs:
            for i in range(0, 7):
                got = np.asarray(sphere_poly_matrix(g, i), dtype=object)
                want = walk_count_matrix(g, i)
                assert (got == want).all(), (name, i)


def test_criterion_4b_girth_agreement():
    with verdict("criterion 4b: trace girth equals bfs girth on every test graph"):
        for name, g in _small_test_graphs():
            assert girth_spectral(measure(g)) == girth_bfs(g), name


def test_criterion_4c_traces_nonnegative():
    with verdict("criterion 4c: sphere matrix traces nonnegative up to index 12"):
        for name, g in _small_test_graphs():
            for i in range(0, 13):
                mat = sphere_poly_matrix(g, i)
                trace = sum(int(x) for x in np.diagonal(mat))
                assert trace >= 0, (name, i, trace)


def test_criterion_4d_linearization_pattern():
    with verdict("criterion 4d: linearization coefficient pattern, exact"):
        for k in range(3, 7):
            for i in range(0, 9):
                for j in range(0, 9):
                    coeffs = linearize_product(k, i, j)
                    for l, c in enumerate(coeffs):
                        inside = abs(i - j) <= l <= i + j and (l - i - j) % 2 == 0
                        assert (c > 0) == inside, (k, i, j, l)
                        assert c >= 0
                    expected0 = sphere_poly(k, i, k) if i == j else 0
                    assert coeffs[0] == expected0
        # the 2-regular tree is a path; interior coefficients may vanish,
        # but nonnegativity, support bounds and the constant term still hold
        for i in range(0, 9):
            for j in range(0, 9):
                coeffs = linearize_product(2, i, j)
                for l, c in enumerate(coeffs):
                    inside = abs(i - j) <= l <= i + j and (l - i - j) % 2 == 0
                    assert c >= 0
                    if not inside:
                        assert c == 0
                assert coeffs[0] == (sphere_poly(2, i, 2) if i == j else 0)
        assert linearize_product(2, 2, 2)[2] == 0  # the degenerate case


def test_criterion_4e_orthogonality():
    with verdict("criterion 4e: quadrature orthogonality below 1e-6, mass 2 pi / k to 1e-12"):
        for k in (2, 3, 4, 5):
            x, w = weight_quadrature(k)
            assert abs(float(w.sum()) - 2 * math.pi / k) <= 1e-12, k
            vals = [sphere_poly(k, i, x) for i in range(9)]
            for i in range(9):
                for j in range(i):
                    inner = abs(float(np.sum(vals[i] * vals[j] * w)))
                    assert inner <= 1e-6, (k, i, j, inner)
                    assert inner <= 1e-12 * math.sqrt(sphere_poly(k, i, k) * sphere_poly(k, j, k)), (k, i, j, inner)


def test_criterion_4f_lp_gap():
    with verdict("criterion 4f: primal equals dual within 1e-6 on catalog spectra"):
        for spec, g in table_graphs():
            k = regularity(g)
            sp = spectrum(g)
            u = 2 * sp.d - 1
            p = lp_bound_primal(k, sp.nontrivial, u)
            d = lp_bound_dual(k, sp.nontrivial, u)
            assert p.status == d.status == "optimal", spec
            assert abs(float(p.objective) - float(d.objective)) <= 1e-6, spec


def test_criterion_4g_expansion_sandwich():
    with verdict("criterion 4g: expansion between tau/2 and sqrt(2*k*tau)"):
        checked = 0
        for spec, g in table_graphs():
            if g.n > 24:
                continue
            k = regularity(g)
            tau = k - spectrum(g).entries[1][0]
            h = edge_expansion(g).h
            assert isinstance(h, Fraction)
            assert float(h) >= tau / 2 - 1e-9, spec
            assert float(h) <= math.sqrt(2 * k * tau) + 1e-9, spec
            checked += 1
        assert checked == 7


def test_criterion_5_exhaustive_cubic_scan():
    with verdict("criterion 5: petersen minimizes lambda_2 over all (10,3) graphs"):
        assert [g.n for g in connected_cubic_graphs(4)] == [4]
        assert sum(1 for _ in connected_cubic_graphs(6)) == 7
        best = None
        best_graph = None
        count = 0
        for g in connected_cubic_graphs(10):
            count += 1
            eigs = np.linalg.eigvalsh(g.adjacency_matrix(dtype=np.float64))
            second = eigs[-2]
            if best is None or second < best:
                best = second
                best_graph = g
        assert count == 132930  # (11180820 - 14700) / 84 labeled graphs
        assert abs(best - 1.0) <= 1e-9
        # the petersen graph is the unique minimizer profile: moore girth 5
        assert girth_bfs(best_graph) == 5
        assert certify(best_graph).verdict == "certified"


def test_criterion_6_negative_controls():
    with verdict("criterion 6: three invalid certificates each flag one condition"):
        # (a) nonpositivity at the prescribed eigenvalues fails alone
        conds = check_certificate(3, (1, -2), SphereBasisPoly(3, (1,))).conditions
        assert not conds.nonpositive_at_eigenvalues.ok
        assert conds.value_at_k_positive.ok
        assert conds.constant_term_positive.ok
        assert conds.coeffs_nonnegative.ok
        # (b) constant term fails alone
        conds = check_certificate(3, (-2,), SphereBasisPoly(3, (0, 1))).conditions
        assert not conds.constant_term_positive.ok
        assert conds.value_at_k_positive.ok
        assert conds.nonpositive_at_eigenvalues.ok
        assert conds.coeffs_nonnegative.ok
        # (c) coefficient sign fails alone
        conds = check_certificate(3, (1,), SphereBasisPoly(3, (1, -1, 1))).conditions
        assert not conds.coeffs_nonnegative.ok
        assert conds.value_at_k_positive.ok
        assert conds.nonpositive_at_eigenvalues.ok
        assert conds.constant_term_positive.ok
