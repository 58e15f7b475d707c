import math
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from expanderlp import lpbound, orthopoly
from expanderlp import (
    Graph,
    SizeCapError,
    SphereBasisPoly,
    build,
    certificate_from_spectrum,
    certify,
    check_attainment,
    check_certificate,
    lp_bound_dual,
    lp_bound_primal,
    measure,
    parse_family,
    sphere_poly,
    spectrum,
    to_sphere_basis,
)
from expanderlp.enumeration import random_connected_regular
from expanderlp.lpbound import ATTAINMENT_TOL
from oracles import (
    eval_poly,
    from_roots,
    list_bland,
    solve_gauss_jordan,
    sphere_poly_monomial,
    to_monomial,
    trace_products,
)


def family(text):
    return build(parse_family(text))


class TestDualLP:
    def test_petersen_data_exact(self):
        sol = lp_bound_dual(3, (1, -2), 3)
        assert sol.status == "optimal"
        assert sol.objective == Fraction(10)
        assert all(isinstance(x, Fraction) for x in sol.variables)

    def test_default_degree(self):
        # d = 2 distinct nontrivial eigenvalues; default u = 2d-1 = 3
        sol = lp_bound_dual(3, (1, -2))
        assert sol.objective == Fraction(10)

    def test_hoffman_singleton_data(self):
        sol = lp_bound_dual(7, (2, -3), 3)
        assert sol.objective == Fraction(50)

    def test_single_eigenvalue(self):
        # f time: only tau = -k is feasible at u = 1 for bipartite-like data
        sol = lp_bound_dual(2, (-2,), 1)
        assert sol.objective == Fraction(2)

    def test_infeasible_when_all_spheres_positive(self):
        # every S_j(2.9) > 0 for k = 3, so no nonnegative combination works
        for u in (1, 2, 3, 5, 8):
            sol = lp_bound_dual(3, (2.9,), u)
            assert sol.status == "infeasible"
            assert sol.objective is None

    def test_monotone_in_degree(self):
        prev = None
        for u in range(1, 8):
            sol = lp_bound_dual(4, (2, 0, -3), u)
            if sol.status != "optimal":
                continue
            if prev is not None:
                assert sol.objective <= prev + Fraction(1, 10**9)
            prev = sol.objective

    def test_heawood_data(self):
        # d = 3 spectrum of the point-line incidence graph of the Fano plane
        g = family("pg2:2")
        sp = spectrum(g)
        sol = lp_bound_dual(3, sp.nontrivial, 5)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(14.0, abs=1e-6)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            lp_bound_dual(3, ())
        with pytest.raises(ValueError):
            lp_bound_dual(3, (3,))  # not below k
        with pytest.raises(ValueError):
            lp_bound_dual(1, (0,))
        with pytest.raises(ValueError):
            lp_bound_dual(3, (1, -2), 0)
        with pytest.raises(ValueError, match="degree 65 exceeds maximum 64"):
            lp_bound_dual(3, (1, -2), 65)


class TestPrimalLP:
    def test_petersen_data_exact(self):
        sol = lp_bound_primal(3, (1, -2), 3)
        assert sol.status == "optimal"
        assert sol.objective == Fraction(10)
        assert sol.variables == (Fraction(5), Fraction(4))

    def test_hoffman_singleton_data(self):
        sol = lp_bound_primal(7, (2, -3), 3)
        assert sol.objective == Fraction(50)
        assert sol.variables == (Fraction(28), Fraction(21))

    def test_degree_zero(self):
        sol = lp_bound_primal(3, (1, -2), 0)
        assert sol.status == "optimal"
        assert sol.objective == Fraction(1)
        assert sol.variables == ()

    def test_weak_duality_exact(self):
        cases = [
            (3, (1, -2)),
            (4, (1, -2, -4)),
            (5, (Fraction(3, 2), -1, -3)),
            (3, (2, 0, -1, -2)),
        ]
        for k, taus in cases:
            for u in range(1, 7):
                p = lp_bound_primal(k, taus, u)
                d = lp_bound_dual(k, taus, u)
                if p.status == "optimal" and d.status == "optimal":
                    assert p.objective <= d.objective, (k, taus, u)

    @given(
        st.integers(3, 6),
        st.sets(st.fractions(min_value=-5, max_value=2, max_denominator=4), min_size=1, max_size=3),
        st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_weak_duality_property(self, k, taus, u):
        taus = tuple(t for t in taus if t < k)
        assume(taus)
        p = lp_bound_primal(k, taus, u)
        d = lp_bound_dual(k, taus, u)
        if p.status == "optimal" and d.status == "optimal":
            assert p.objective <= d.objective

    def test_primal_bounded_by_vertex_count(self):
        # primal optimum at u = 2d-1 equals v for the shipped families
        for name, expect in (("petersen", 10), ("complete:4", 4), ("pg2:2", 14)):
            g = family(name)
            sp = spectrum(g)
            sol = lp_bound_primal(3, sp.nontrivial, 2 * sp.d - 1)
            assert sol.objective == pytest.approx(expect, abs=1e-6)


@st.composite
def exact_eigenvalue_sets(draw):
    """(k, eigenvalues): up to 16 ints below k, or ints and fractions of mixed denominators."""
    k = draw(st.integers(2, 7))
    ints = st.integers(-3 * k, k - 1)
    fractions = st.fractions(-3 * k, k - 1, max_denominator=60)
    element = draw(st.sampled_from([ints, st.one_of(ints, fractions)]))
    return k, tuple(draw(st.sets(element, min_size=1, max_size=16)))


@st.composite
def float_eigenvalue_sets(draw):
    """(k, eigenvalues): up to 16 distinct finite floats below k."""
    k = draw(st.integers(2, 7))
    element = st.floats(-3 * k, k, exclude_max=True, allow_nan=False)
    return k, tuple(draw(st.sets(element, min_size=1, max_size=16)))


class TestCheckCertificate:
    def test_petersen_certificate(self):
        poly = to_sphere_basis(3, from_roots((1, -2, -2)))
        cert = check_certificate(3, (1, -2), poly)
        assert cert.conditions.all_ok()
        assert cert.value_at_k == 50
        assert cert.constant_term == 5
        assert cert.bound == Fraction(10)

    def test_basis_degree_must_match(self):
        poly = to_sphere_basis(3, from_roots((1, -2, -2)))
        with pytest.raises(ValueError, match="certificate basis degree 3 differs from k = 4"):
            check_certificate(4, (1, -2), poly)

    def test_exact_data_has_zero_tolerance(self):
        # an exact coefficient just below zero is a violation, not float noise
        poly = to_sphere_basis(3, from_roots((1, -2, -2)))
        bad = SphereBasisPoly(3, poly.coeffs + (Fraction(-1, 10**12),))
        cert = check_certificate(3, (1, -2), bad)
        assert not cert.conditions.coeffs_nonnegative.ok
        assert cert.bound is None
        # raising f_0 makes f positive at both eigenvalues, by exactly 1/10**12
        raised = SphereBasisPoly(3, (poly.coeffs[0] + Fraction(1, 10**12),) + poly.coeffs[1:])
        cert = check_certificate(3, (1, -2), raised)
        assert not cert.conditions.nonpositive_at_eigenvalues.ok
        assert cert.bound is None

    def test_float_data_keeps_tolerance(self):
        # the same perturbation on float data is within the slack tolerance
        poly = SphereBasisPoly(3, (5.0, 5.0, 3.0, 1.0, -1e-12))
        cert = check_certificate(3, (1.0, -2.0), poly)
        assert cert.conditions.all_ok()
        assert cert.bound == pytest.approx(10.0)

    def test_violates_only_nonpositivity(self):
        # f = S_0: positive everywhere, so the eigenvalue condition fails alone
        poly = SphereBasisPoly(3, (1,))
        cert = check_certificate(3, (1, -2), poly)
        conds = cert.conditions
        assert not conds.nonpositive_at_eigenvalues.ok
        assert conds.value_at_k_positive.ok
        assert conds.constant_term_positive.ok
        assert conds.coeffs_nonnegative.ok
        assert cert.bound is None

    def test_violates_only_coefficient_sign(self):
        # f = S_2 - S_1 + S_0 = (x-2)(x+1): fine at tau = 1 but f_1 < 0
        poly = SphereBasisPoly(3, (1, -1, 1))
        cert = check_certificate(3, (1,), poly)
        conds = cert.conditions
        assert not conds.coeffs_nonnegative.ok
        assert conds.coeffs_nonnegative.witness == 1
        assert conds.value_at_k_positive.ok
        assert conds.nonpositive_at_eigenvalues.ok
        assert conds.constant_term_positive.ok
        assert cert.bound is None

    def test_violates_only_constant_term(self):
        # f = S_1 vanishes at f_0, everything else is fine at tau = -2
        poly = SphereBasisPoly(3, (0, 1))
        cert = check_certificate(3, (-2,), poly)
        conds = cert.conditions
        assert not conds.constant_term_positive.ok
        assert conds.value_at_k_positive.ok
        assert conds.nonpositive_at_eigenvalues.ok
        assert conds.coeffs_nonnegative.ok
        assert cert.bound is None

    def test_negated_certificate_fails_at_k(self):
        poly = SphereBasisPoly(3, (-1,))
        cert = check_certificate(3, (1,), poly)
        assert not cert.conditions.value_at_k_positive.ok
        assert cert.bound is None

    def test_slack_reporting(self):
        poly = to_sphere_basis(3, from_roots((1, -2, -2)))
        cert = check_certificate(3, (1, -2), poly)
        conds = cert.conditions
        assert conds.value_at_k_positive.slack == 50
        assert conds.nonpositive_at_eigenvalues.slack == 0
        assert conds.constant_term_positive.slack == 5
        assert conds.coeffs_nonnegative.slack == 1

    def test_value_positive_implied(self):
        # when f_0 > 0 and all f_i >= 0, f(k) > 0 comes for free
        for coeffs in ((1,), (2, 0, 1), (1, 3, 0, 5)):
            poly = SphereBasisPoly(3, coeffs)
            cert = check_certificate(3, (0,), poly)
            assert cert.conditions.value_at_k_positive.ok


class TestCertificateFromSpectrum:
    def test_petersen(self):
        cert = certificate_from_spectrum(3, (1, -2))
        assert cert.poly.coeffs == (5, 5, 3, 1)
        assert cert.bound == Fraction(10)

    def test_k33(self):
        cert = certificate_from_spectrum(3, (0, -3))
        assert cert.poly.coeffs == (18, 14, 6, 1)
        assert cert.bound == 6

    def test_clebsch(self):
        cert = certificate_from_spectrum(5, (1, -3))
        assert cert.poly.coeffs == (16, 12, 5, 1)
        assert cert.bound == 16

    def test_hoffman_singleton(self):
        cert = certificate_from_spectrum(7, (2, -3))
        assert cert.poly.coeffs == (10, 10, 4, 1)
        assert cert.value_at_k == 500
        assert cert.bound == 50

    def test_single_eigenvalue(self):
        cert = certificate_from_spectrum(2, (-2,))
        assert cert.bound == 2

    def test_float_spectrum(self):
        g = family("cycle:5")
        cert = certificate_from_spectrum(2, spectrum(g).nontrivial)
        assert cert.bound == pytest.approx(5.0, abs=1e-6)

    def test_past_max_degree(self):
        taus = [Fraction(j, 12) for j in range(-16, 17)]
        assert len(taus) == 33
        with pytest.raises(ValueError, match="certificate degree 65 exceeds maximum 64"):
            certificate_from_spectrum(3, taus)

    def test_invalid_for_infeasible_spectrum(self):
        cert = certificate_from_spectrum(3, (2.9,))
        assert cert.bound is None
        assert not cert.conditions.constant_term_positive.ok

    @given(exact_eigenvalue_sets())
    @example((3, (Fraction(1, 3), Fraction(-7, 5), Fraction(2, 7))))
    @settings(max_examples=60, deadline=None)
    def test_sphere_basis_product_matches_monomial_route(self, data):
        # the exact certificate, multiplied in the sphere basis on ints, is the
        # monomial expansion converted to the sphere basis, with the same
        # values at k and at every tau and the same checked conditions
        k, taus = data
        cert = certificate_from_spectrum(k, taus)
        ordered = sorted(taus, reverse=True)
        roots = [ordered[0]] + [t for t in ordered[1:] for _ in range(2)]
        expected = to_sphere_basis(k, from_roots(roots))
        assert cert.poly.coeffs == expected.coeffs
        horner = to_monomial(expected)
        assert cert.value_at_k == eval_poly(horner, Fraction(k)) == math.prod(k - r for r in roots)
        for t in taus:
            assert cert.poly(t) == eval_poly(horner, Fraction(t)) == 0
        assert cert == check_certificate(k, taus, expected)
        if all(isinstance(t, int) for t in taus):
            assert all(type(c) is int for c in cert.poly.coeffs)
            assert type(cert.value_at_k) is int
        else:
            assert all(isinstance(c, (int, Fraction)) for c in cert.poly.coeffs)

    def test_exact_path_forms_no_monomials(self, monkeypatch):
        # int, Fraction and float data all multiply their factors in the sphere
        # basis: a float is the binary fraction it stores
        def monomial_route(*args):
            raise AssertionError("monomial route taken")

        monkeypatch.setattr(orthopoly, "to_sphere_basis", monomial_route)
        assert certificate_from_spectrum(3, (1, -2)).bound == 10
        mixed = certificate_from_spectrum(3, (Fraction(1, 3), Fraction(-7, 5), Fraction(2, 7)))
        assert mixed.conditions.all_ok()
        assert certificate_from_spectrum(3, (1.0, -2.0)).bound == 10.0
        assert certificate_from_spectrum(2, spectrum(family("cycle:30")).nontrivial).conditions.all_ok()

    @given(float_eigenvalue_sets())
    @example((4, tuple(a / 1009 for a in (3267, 2611, 1617, 418, -826, -1950, -2814, -3331))))
    @example((2, (-1.1125369292536007e-308,)))
    @settings(max_examples=60, deadline=None)
    def test_float_data_rounded_once(self, data):
        # each float coefficient is float() of the exact certificate of the
        # same binary fractions, bit for bit; where those coefficients or the
        # float bound f(k)/f_0 lie past float64's range, the data are refused
        k, taus = data
        exact = certificate_from_spectrum(k, [Fraction(t) for t in taus])
        try:
            rounded = SphereBasisPoly(k, tuple(float(c) for c in exact.poly.coeffs))
        except OverflowError:
            with pytest.raises(ValueError, match="float64's range"):
                certificate_from_spectrum(k, taus)
            return
        try:
            cert = certificate_from_spectrum(k, taus)
        except ValueError as exc:
            assert "float64's range" in str(exc)
            with pytest.raises(ValueError, match="float64's range"):
                check_certificate(k, taus, rounded)
            return
        assert all(type(c) is float for c in cert.poly.coeffs)
        assert [c.hex() for c in cert.poly.coeffs] == [c.hex() for c in rounded.coeffs]

    def test_mixed_data_run_in_float(self):
        # one float token makes every eigenvalue a float before any arithmetic:
        # the ints 10**250 and 2*10**250 no longer meet float coefficients as ints
        huge = (-(10**250), -2 * 10**250, -1e300)
        with pytest.raises(ValueError, match="float64's range"):
            certificate_from_spectrum(3, huge)
        with pytest.raises(ValueError, match="float64's range"):
            certificate_from_spectrum(3, (-(10**400), 0.5))
        cert = certificate_from_spectrum(3, (1, -2.0))
        assert cert.eigenvalues == (1.0, -2.0)
        assert cert.bound == pytest.approx(10.0)


class TestAttainment:
    def test_petersen_tight(self):
        g = family("petersen")
        cert = certificate_from_spectrum(3, (1, -2))
        rep = check_attainment(measure(g), cert)
        assert rep.applicable
        assert rep.tight
        assert rep.eigenvalue_residuals == (0, 0)
        assert cert.bound == g.n
        assert all(p == 0 for p in trace_products(g, cert))

    def test_two_petersens_not_connected(self):
        # the level sweep finds no diameter: it never reaches the second component
        g = family("petersen")
        twice = Graph.from_edges(20, [*g.edges(), *((u + 10, v + 10) for u, v in g.edges())])
        cert = certificate_from_spectrum(3, (1, -2))
        rep = check_attainment(measure(twice), cert)
        assert (rep.applicable, rep.reason, rep.tight) == (False, "graph is not connected", False)
        assert certify(twice).reason == "graph is not connected"

    def test_past_cap_is_size_cap_error(self):
        # attainment reads a measurement, and measuring is capped
        cycle = Graph.from_edges(600, [(i, (i + 1) % 600) for i in range(600)])
        with pytest.raises(SizeCapError, match="capped at 512 vertices"):
            check_attainment(measure(cycle), certificate_from_spectrum(2, (0,)))

    def test_k_mismatch(self):
        g = family("cycle:6")
        cert = certificate_from_spectrum(3, (1, -2))
        rep = check_attainment(measure(g), cert)
        assert not rep.applicable
        assert "does not match" in rep.reason

    def test_wrong_graph_same_degree(self):
        # prism is cubic but its spectrum misses the certificate roots
        from expanderlp import Graph

        prism = Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
        )
        cert = certificate_from_spectrum(3, (1, -2))
        rep = check_attainment(measure(prism), cert)
        assert rep.applicable
        assert not rep.tight

    def test_uses_the_measured_spectrum(self):
        # a tiny clustering tolerance splits the eigenvalues; attainment must
        # evaluate the certificate at the same split spectrum certify measured
        report = certify(family("petersen"), tol_cluster=1e-17)
        assert len(report.attainment.eigenvalue_residuals) == report.spec.d

    def test_order_below_bound(self):
        # K_{3,3} data bounds v by 6; Heawood has 14 vertices and fails
        g = family("pg2:2")
        cert = certificate_from_spectrum(3, (0, -3))
        rep = check_attainment(measure(g), cert)
        assert rep.applicable
        assert not rep.tight

    @pytest.mark.parametrize(
        "g",
        [
            pytest.param(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), id="star"),
            pytest.param(Graph.from_edges(3, [(0, 1)]), id="isolated-vertex"),
        ],
    )
    def test_irregular_not_applicable(self, g):
        # an irregular graph's measurement has no degree
        rep = check_attainment(measure(g), certificate_from_spectrum(3, (1, -2)))
        assert (rep.applicable, rep.reason, rep.tight) == (False, "graph is not regular", False)

    def test_measured_degree_is_used(self):
        # k is the measurement's, not read again from a graph
        m = measure(family("petersen"))
        cert = certificate_from_spectrum(3, (1, -2))
        want = check_attainment(m, cert)
        assert want.tight
        assert check_attainment(m._replace(k=3), cert) == want
        rep = check_attainment(m._replace(k=4), cert)
        assert (rep.applicable, rep.reason) == (False, "certificate k = 3 does not match graph k = 4")


@st.composite
def connected_regular_graphs(draw):
    """Random connected k-regular graphs, 2 <= k <= 5, on at most 20 vertices."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k + 1, 20).filter(lambda n: n * k % 2 == 0))
    return random_connected_regular(n, k, random.Random(draw(st.integers(0, 2**31 - 1))))


@given(connected_regular_graphs())
@settings(max_examples=40, deadline=None)
def test_tight_is_the_trace_condition(g):
    # tight iff f vanishes at every nontrivial eigenvalue and every
    # f_i * tr S_i(A) is 0, the traces counted walk by walk
    k = len(g.neighbors[0])
    m = measure(g)
    nontrivial = m.spectrum.nontrivial
    certs = [certificate_from_spectrum(k, nontrivial)]
    if all(abs(t - round(t)) < 1e-9 for t in nontrivial):
        certs.append(certificate_from_spectrum(k, [round(t) for t in nontrivial]))
    certs += [certificate_from_spectrum(k, taus) for taus in ((1, -2), (0, -3))]
    for cert in certs:
        rep = check_attainment(m, cert)
        if not cert.conditions.all_ok():
            assert (rep.applicable, rep.reason, rep.tight) == (False, "certificate conditions fail", False)
            continue
        assert rep.applicable
        # all() stops at the first failure, before the longer walks are counted
        terms = chain(rep.eigenvalue_residuals, trace_products(g, cert))
        assert rep.tight is all(abs(x) <= ATTAINMENT_TOL for x in terms)


@given(
    st.integers(2, 5),
    st.lists(st.integers(-4, 4), min_size=1, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_bound_formula_consistency(k, coeffs):
    # whenever all four conditions pass, bound = f(k) / f_0 exactly
    taus = (-k + 1, 0) if k > 2 else (-1,)
    poly = SphereBasisPoly(k, tuple(coeffs))
    cert = check_certificate(k, taus, poly)
    if cert.conditions.all_ok():
        assert cert.bound == Fraction(cert.value_at_k, cert.constant_term)
    else:
        assert cert.bound is None


def cold(fn, *args):
    """fn(*args) solved by the cold Fraction tableau alone: the oracle of the verified path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpbound, "_verified_float_solve", lambda *a: None)
        return fn(*args)


def standard_form_of(fn, *args):
    """The one standard form (A, scales, b, cost, unit) that fn(*args) hands the verified solve."""
    forms = []
    verified = lpbound._verified_float_solve

    def spy(*form):
        forms.append(form)
        return verified(*form)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpbound, "_verified_float_solve", spy)
        fn(*args)
    [form] = forms
    return form


@contextmanager
def float_pass(answer=None):
    """Record every tableau run as whether it is exact; answer(unit) replaces the float run's result."""
    bland = lpbound._bland
    runs = []

    def spy(A, b, cost, unit):
        exact = A.dtype == object
        runs.append(exact)
        if answer is not None and not exact:
            return answer(unit)
        return bland(A, b, cost, unit)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpbound, "_bland", spy)
        yield runs


def rounded_ball_zeros(k, d, denominator=1009):
    """Zeros of B_d = S_0 + ... + S_d, rounded to multiples of 1/denominator."""
    coeffs = [0] * (d + 1)
    for i in range(d + 1):
        for j, c in enumerate(sphere_poly_monomial(k, i)):
            coeffs[j] += c
    zeros = np.roots(coeffs[::-1]).real
    return tuple(sorted({Fraction(round(z * denominator), denominator) for z in zeros}, reverse=True))


def lp_feasible(fn, k, taus, u, x):
    """Whether x satisfies the constraints of fn's LP exactly."""
    S = [[sphere_poly(k, j, t) for j in range(1, u + 1)] for t in taus]
    if any(v < 0 for v in x):
        return False
    if fn is lp_bound_dual:
        return all(-sum(f * s for f, s in zip(x, row)) >= 1 for row in S)
    return all(-sum(m * S[i][j] for i, m in enumerate(x)) <= k * (k - 1) ** j for j in range(u))


# eigenvalues 1e-4..1e-12 apart: the float pass ends on a basis that the
# exact check rejects (first dual, second and third primal) or calls the
# dual LP unbounded (third)
CLUSTERED = (
    (4, (Fraction(-650000101, 250000000), Fraction(-260000000000723, 10**14), Fraction(-3249999999903, 1250000000000)), 7),
    (3, (Fraction(-19999999999739, 5 * 10**13), Fraction(-4000000000409, 10**13), Fraction(-39999999999703, 10**14),
         Fraction(-7999999877, 20000000000), Fraction(-399999131, 10**9)), 8),
    (5, (Fraction(-499999999609, 5 * 10**12), Fraction(-500000000407, 5 * 10**12), Fraction(-99999971, 10**9),
         Fraction(-3993, 40000)), 7),
)


# rationals with mixed denominators, and a d = 8 set on the prime 1009
MIXED_DENOMINATORS = (
    (3, (Fraction(1, 3), Fraction(-7, 5), Fraction(2, 7))),
    (4, rounded_ball_zeros(4, 8)),
    (5, (Fraction(3, 2), Fraction(-1, 7), Fraction(-22, 9), -4)),
)


@st.composite
def rational_lp_data(draw):
    """(k, eigenvalues, u): d <= 6 rationals spread over [-k, k) or clustered, 1 <= u <= 2d + 1."""
    k = draw(st.integers(2, 8))
    centre = draw(st.fractions(-k, k - 1, max_denominator=20))
    spread = draw(st.sampled_from([Fraction(k), Fraction(1, 10**6), Fraction(1, 10**12)]))
    offsets = draw(st.sets(st.fractions(-1, 1, max_denominator=1000), min_size=1, max_size=6))
    taus = tuple({centre + spread * t for t in offsets if centre + spread * t < k})
    assume(taus)
    return k, taus, draw(st.integers(1, 2 * len(taus) + 1))


class TestVerifiedBasis:
    @given(rational_lp_data())
    @example(CLUSTERED[0])
    @example(CLUSTERED[1])
    @example(CLUSTERED[2])
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_cold_simplex(self, data):
        k, taus, u = data
        for fn in (lp_bound_dual, lp_bound_primal):
            sol = fn(k, taus, u)
            assert sol == cold(fn, k, taus, u)
            assert all(isinstance(v, Fraction) for v in sol.variables)

    @pytest.mark.parametrize("k, taus, d", [(3, (2, 0, -2, -3), 4), (3, rounded_ball_zeros(3, 12), 12)], ids=["gq:2", "B_12"])
    def test_cold_simplex_not_entered(self, k, taus, d):
        assert len(taus) == d
        for fn in (lp_bound_dual, lp_bound_primal):
            with float_pass() as runs:
                sol = fn(k, taus)
            assert sol.status == "optimal"
            assert runs == [False]

    @pytest.mark.parametrize("fn", [lp_bound_dual, lp_bound_primal])
    def test_every_handed_basis_gives_an_optimum(self, fn):
        # any basis the float pass might end on, including singular,
        # infeasible, non-optimal and short ones, is either proven optimal
        # or sent to the cold solve; the Petersen dual has two optimal
        # vertices, so an accepted basis may give the other one
        k, taus, u = 3, (1, -2), 3
        expected = cold(fn, k, taus, u)
        m = 2 if fn is lp_bound_dual else 3
        ncols = m + (3 if fn is lp_bound_dual else 2)
        handed = [list(basis) for size in (m - 1, m) for basis in combinations(range(ncols), size)]
        accepted = 0
        for basis in handed:
            with float_pass(lambda unit, basis=basis: ("optimal", basis, [])) as runs:
                sol = fn(k, taus, u)
            assert (sol.status, sol.objective) == (expected.status, expected.objective)
            if runs == [False]:
                accepted += 1
                assert lp_feasible(fn, k, taus, u, sol.variables)
            else:
                assert sol == expected
        assert 0 < accepted < len(handed)

    @pytest.mark.parametrize("fn", [lp_bound_dual, lp_bound_primal])
    @pytest.mark.parametrize("k, taus", MIXED_DENOMINATORS, ids=["3-5-7", "B_8-1009", "2-7-9-int"])
    def test_column_scaled_proof_accepted(self, fn, k, taus):
        # column j of the dual carries denominators q**j, column i of the
        # primal those of tau_i: the scaled proof accepts the float basis
        # and gives the cold simplex's exact optimum
        with float_pass() as runs:
            sol = fn(k, taus)
        assert runs == [False]
        assert sol == cold(fn, k, taus)

    @pytest.mark.parametrize("fn", [lp_bound_dual, lp_bound_primal])
    @pytest.mark.parametrize(
        "k, taus, u",
        [(3, MIXED_DENOMINATORS[0][1], 3), (5, MIXED_DENOMINATORS[2][1], 4), (4, (Fraction(5, 2), Fraction(-1, 3), -3), 5)],
    )
    def test_proof_against_oracle(self, fn, k, taus, u):
        # every square basis of the standard form, proven or rejected: a
        # proof gives the basic solution that Gauss-Jordan over Fraction
        # gives, feasible and of least cost among the basic feasible
        # solutions; a feasible basis of higher cost is always rejected
        A, scales, b, cost, _ = standard_form_of(fn, k, taus, u)
        vertices = {}
        for basis in combinations(range(len(cost)), len(A)):
            xb = solve_gauss_jordan([[Fraction(row[j], scales[j]) for j in basis] for row in A], b)
            if xb is not None and all(x >= 0 for x in xb):
                vertices[basis] = (xb, sum(cost[j] * x for j, x in zip(basis, xb)))
        least = min(value for _, value in vertices.values())
        proven = tampered = 0
        for basis in combinations(range(len(cost)), len(A)):
            values = lpbound._proven_optimal(A, scales, b, cost, list(basis))
            if basis not in vertices:
                assert values is None
            elif vertices[basis][1] > least:
                tampered += 1
                assert values is None
            elif values is not None:
                proven += 1
                assert values == vertices[basis][0]
        assert proven > 0 and tampered > 0

    def test_feasible_but_not_optimal_basis(self):
        # the slack basis x = 0 is feasible for the primal LP and has
        # objective 1; the exact reduced costs reject it
        with float_pass(lambda unit: ("optimal", list(unit), [])) as runs:
            sol = lp_bound_primal(3, (1, -2), 3)
        assert sol == cold(lp_bound_primal, 3, (1, -2), 3)
        assert sol.objective == 10
        assert runs == [False, True]

    @pytest.mark.parametrize("u", [1, 2, 3, 5, 8])
    def test_exact_infeasible_stays_infeasible(self, u):
        with float_pass() as runs:
            sol = lp_bound_dual(3, (Fraction(29, 10),), u)
        assert sol.status == "infeasible"
        assert runs == [False, True]

    @pytest.mark.parametrize("status", ["infeasible", "unbounded"])
    def test_float_verdict_is_not_trusted(self, status):
        with float_pass(lambda unit: (status, [], [])) as runs:
            sol = lp_bound_dual(3, (1, -2), 3)
        assert sol.objective == 10
        assert runs == [False, True]

    def test_float_infeasible_exact_optimal(self):
        # S_1(tau) = -1e-20 is below the float pivot tolerance: the float
        # tableau calls the LP infeasible, on float data as on exact data
        tau = Fraction(-1, 10**20)
        with float_pass() as runs:
            sol = lp_bound_dual(3, (float(tau),), 1)
        assert runs == [False, True]
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1 + 3 * 10**20, rel=1e-15)
        sol = lp_bound_dual(3, (tau,), 1)
        assert sol.status == "optimal"
        assert sol.objective == 1 + 3 * 10**20

    def test_data_beyond_float_range(self):
        # S_64(10**6) is about 1e384: the float pass cannot start
        with float_pass() as runs:
            sol = lp_bound_dual(10**6, (-(10**6) + 1,), 64)
        assert runs == [True]
        assert sol.status == "optimal"


@st.composite
def standard_forms(draw):
    """A z = b, b >= 0, on 3 columns plus, per row, a +1 slack (a unit column), a -1 surplus or none.

    Returns A, b, the cost of z and, per row, its unit column or None, as
    _bland takes them: a row without a unit column starts from an artificial.
    """
    m = draw(st.integers(1, 4))
    entries = st.fractions(-5, 5, max_denominator=12)
    slacks = draw(st.lists(st.sampled_from([1, -1, 0]), min_size=m, max_size=m))
    extra = [r for r, s in enumerate(slacks) if s]
    A = [draw(st.lists(entries, min_size=3, max_size=3)) + [Fraction(s if r == e else 0) for e in extra]
         for r, s in enumerate(slacks)]
    b = draw(st.lists(st.fractions(0, 5, max_denominator=12), min_size=m, max_size=m))
    cost = draw(st.lists(entries, min_size=3 + len(extra), max_size=3 + len(extra)))
    unit = [3 + extra.index(r) if s == 1 else None for r, s in enumerate(slacks)]
    return A, b, cost, unit


@contextmanager
def same_as_list_tableau():
    """Run every tableau call on the list tableau too and require the same answer; yields the calls' exact flags."""
    bland = lpbound._bland
    runs = []

    def spy(A, b, cost, unit):
        exact = A.dtype == object
        got = bland(A, b, cost, unit)
        want = list_bland(A.tolist(), list(b), list(cost), unit, exact)
        assert got == want
        # repr tells -0.0 from 0.0 and an int from a Fraction
        assert [repr(v) for v in got[2]] == [repr(v) for v in want[2]]
        runs.append(exact)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpbound, "_bland", spy)
        yield runs


def old_entries(fn, k, taus, u):
    """The rows of fn's standard form as exact values, S_j(tau) from the Fraction recurrence."""
    taus = sorted(taus, reverse=True)
    S = [[sphere_poly(k, j, t) for j in range(1, u + 1)] for t in taus]
    if fn is lp_bound_dual:
        return [[-s for s in row] + [-1 if r == i else 0 for r in range(len(taus))] for i, row in enumerate(S)]
    return [[-row[j] for row in S] + [1 if r == j else 0 for r in range(u)] for j in range(u)]


class TestNumpyTableau:
    @given(rational_lp_data())
    @example(CLUSTERED[0])
    @example(CLUSTERED[1])
    @example(CLUSTERED[2])
    @settings(max_examples=60, deadline=None)
    def test_float_data_as_the_list_tableau(self, data):
        # the same status, basis and values, floats compared bit for bit
        k, taus, u = data
        floats = tuple(float(t) for t in taus)
        assume(len(set(floats)) == len(floats))
        for fn in (lp_bound_dual, lp_bound_primal):
            with same_as_list_tableau() as runs:
                fn(k, floats, u)
            assert runs[0] is False

    @given(rational_lp_data())
    @example(CLUSTERED[0])
    @example(CLUSTERED[1])
    @example(CLUSTERED[2])
    @settings(max_examples=60, deadline=None)
    def test_exact_data_as_the_list_tableau(self, data):
        # the float pass of exact data, and the Fraction tableau whenever it runs
        k, taus, u = data
        for fn in (lp_bound_dual, lp_bound_primal):
            with same_as_list_tableau():
                fn(k, taus, u)

    @given(standard_forms())
    @settings(max_examples=200, deadline=None)
    def test_any_form_as_the_list_tableau(self, form):
        # rows starting from slacks, artificials or both, in float64 and
        # over Fraction: the same status, basis and values, signed zeros too
        A, b, cost, unit = form
        for dtype, conv in ((float, float), (object, Fraction)):
            got = lpbound._bland(np.array([[conv(a) for a in row] for row in A], dtype=dtype), [conv(v) for v in b],
                                 [conv(v) for v in cost], unit)
            want = list_bland([[conv(a) for a in row] for row in A], [conv(v) for v in b], [conv(v) for v in cost], unit,
                              dtype is object)
            assert got == want
            assert [repr(v) for v in got[2]] == [repr(v) for v in want[2]]

    def test_pivot_leaves_zero_rows_alone(self):
        # -0.0 - 0.0 * -0.0 is +0.0: a pivot that updated row 1, whose entry
        # in the entering column is 0, would turn its value -0.0 into 0.0
        A = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        got = lpbound._bland(A, [-0.0, -0.0], [-1.0, 0.0, 0.0, 0.0], [2, 3])
        assert got == ("optimal", [0, 3], [0.0, 0.0])
        assert [repr(v) for v in got[2]] == ["-0.0", "-0.0"]
        assert got == list_bland(A.tolist(), [-0.0, -0.0], [-1.0, 0.0, 0.0, 0.0], [2, 3], False)

    def test_fraction_tableau_as_the_list_tableau(self):
        # CLUSTERED[0]'s float basis fails the proof, so the object array runs
        k, taus, u = CLUSTERED[0]
        with same_as_list_tableau() as runs:
            lp_bound_dual(k, taus, u)
        assert runs == [False, True]

    @pytest.mark.parametrize("fn", [lp_bound_dual, lp_bound_primal])
    @pytest.mark.parametrize(
        "k, taus, u",
        [*((k, taus, 2 * len(taus) - 1) for k, taus in MIXED_DENOMINATORS), *CLUSTERED],
        ids=["3-5-7", "B_8-1009", "2-7-9-int", "clustered-0", "clustered-1", "clustered-2"],
    )
    def test_float_entries_round_the_exact_ones(self, fn, k, taus, u):
        # every entry int / scale of the float tableau is float() of the
        # exact entry, signed zeros included, and the proof gets ints only
        floats, proofs = [], []
        bland, proven = lpbound._bland, lpbound._proven_optimal

        def bland_spy(A, b, cost, unit):
            if A.dtype != object:
                floats.append((A.tolist(), b, cost))
            return bland(A, b, cost, unit)

        def proof_spy(*args):
            proofs.append(args)
            return proven(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lpbound, "_bland", bland_spy)
            mp.setattr(lpbound, "_proven_optimal", proof_spy)
            fn(k, taus, u)
        [(A, b, cost)] = floats
        assert [[repr(a) for a in row] for row in A] == [[repr(float(e)) for e in row] for row in old_entries(fn, k, taus, u)]
        assert all(type(v) is float for v in b + cost)
        for A, scales, b, cost, basis in proofs:
            assert all(type(v) is int for v in chain(*A, scales, b, cost, basis))

    def test_no_fraction_before_the_proof(self):
        built, at_proof = [], []

        class Recorded(Fraction):
            def __new__(cls, *args):
                built.append(args)
                return Fraction(*args)

        proven = lpbound._proven_optimal

        def spy(*args):
            at_proof.append(len(built))
            return proven(*args)

        k, taus = MIXED_DENOMINATORS[1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lpbound, "Fraction", Recorded)
            mp.setattr(lpbound, "_proven_optimal", spy)
            sol = lp_bound_dual(k, taus)
        assert at_proof == [0]
        assert built
        assert sol == cold(lp_bound_dual, k, taus)


def integer_form(A, b, cost):
    """A z = b, min cost.z on ints, as _proven_optimal takes them.

    Each row is multiplied by the denominator of its b entry, each column
    of A is written over the lcm of its denominators as its scale, and the
    cost is multiplied by the lcm of its own: z and the optimal bases stay.
    """
    A = [[a * Fraction(r).denominator for a in row] for row, r in zip(A, b)]
    scales = [math.lcm(*(Fraction(a).denominator for a in col)) for col in zip(*A)]
    common = math.lcm(*(Fraction(c).denominator for c in cost))
    return (
        [[int(a * s) for a, s in zip(row, scales)] for row in A],
        scales,
        [Fraction(r).numerator for r in b],
        [int(c * common) for c in cost],
    )


class TestColumnScaledProof:
    @given(standard_forms())
    @settings(max_examples=80, deadline=None)
    def test_proves_the_cold_optimum(self, form):
        # any standard form with fractions in A, b and the cost, its rows
        # starting from slacks, artificials or both: the cold tableau's
        # optimal basis is proven, with the cold tableau's values
        A, b, cost, unit = form
        status, basis, values = lpbound._bland(np.array(A, dtype=object), b, cost, unit)
        assume(status == "optimal" and len(basis) == len(A))
        assert lpbound._proven_optimal(*integer_form(A, b, cost), basis) == values


class TestStandardForm:
    def test_dual_rows_take_surplus_columns(self):
        # -sum_j f_j S_j(tau) >= 1: a -1 surplus per row, and every row starts from an artificial
        k, taus, u = 3, (1, -2), 3
        A, scales, b, cost, unit = standard_form_of(lp_bound_dual, k, taus, u)
        assert scales == [1] * 5
        assert [row[:u] for row in A] == [[-sphere_poly(k, j, t) for j in range(1, u + 1)] for t in taus]
        assert [row[u:] for row in A] == [[-1, 0], [0, -1]]
        assert b == [1, 1]
        assert cost == [3, 6, 12, 0, 0]
        assert unit == [None, None]

    def test_primal_rows_take_slack_columns(self):
        # -sum_i m_i S_j(tau_i) <= S_j(k): a +1 slack per row, which starts the basis
        k, taus, u = 3, (1, -2), 3
        A, scales, b, cost, unit = standard_form_of(lp_bound_primal, k, taus, u)
        assert scales == [1] * 5
        assert [row[:2] for row in A] == [[-sphere_poly(k, j, t) for t in taus] for j in range(1, u + 1)]
        assert [row[2:] for row in A] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert b == [3, 6, 12]
        assert cost == [-1, -1, 0, 0, 0]
        assert unit == [2, 3, 4]


class TestFloatVerdicts:
    # CLUSTERED[2] as floats: the float tableau calls this dual LP unbounded,
    # which it never is, as its objective is at least 1 on f >= 0
    CLUSTERED_FLOATS = (5, tuple(float(t) for t in CLUSTERED[2][1]), 7)

    def test_unbounded_float_dual_resolved_exactly(self):
        k, taus, u = self.CLUSTERED_FLOATS
        with float_pass() as runs:
            sol = lp_bound_dual(k, taus, u)
        assert runs == [False, True]
        assert sol.status == "optimal"
        assert all(isinstance(v, float) for v in sol.variables)
        assert lp_feasible(lp_bound_dual, k, [Fraction(t) for t in taus], u, [Fraction(v) for v in sol.variables])
        exact = lp_bound_dual(k, tuple(Fraction(t) for t in taus), u)
        assert sol.objective == float(exact.objective)
        assert sol.objective == pytest.approx(lp_bound_primal(k, taus, u).objective, rel=1e-9)

    def test_float_infeasible_stays_infeasible(self):
        with float_pass() as runs:
            sol = lp_bound_dual(3, (2.9,), 1)
        assert runs == [False, True]
        assert sol == lpbound.LPSolution("infeasible", None, ())

    def test_float_optimum_kept(self):
        with float_pass() as runs:
            sol = lp_bound_dual(3, (1.0, -2.0), 3)
        assert runs == [False]
        assert sol.status == "optimal"
        assert all(isinstance(v, float) for v in sol.variables)

    @pytest.mark.parametrize(
        "fn, args",
        [
            # S_2(-1e200) overflows float64: the dual said "infeasible", though
            # f = S_3 is feasible, and the primal "optimal" with a nan objective
            (lp_bound_dual, (3, (-1e200, 1.0), 3)),
            (lp_bound_primal, (3, (-1e200, 1.0), 3)),
            # S_64(10**6) is about 1e384: float(S_j(k)) raised OverflowError
            (lp_bound_dual, (1000000, (0.5,), 64)),
            # (x - 1)(x + 1e200)^2 has a 1e400 coefficient, which came out inf and nan
            (certificate_from_spectrum, (3, (-1e200, 1.0))),
            # f = 1 + S_3 + S_4 is -7 at 2 but about 1e600 at -1e150, where float
            # evaluation gives inf - inf = nan; the nan was skipped, and the bound 37 stood
            (check_certificate, (3, (2.0, -1e150), SphereBasisPoly(3, (1.0, 0.0, 0.0, 1.0, 1.0)))),
            # at a subnormal tau the float tableau ends infeasible or unbounded, and
            # the exact re-solve's optimum (f_1 or m_1 about 4.5e308) has no float
            (lp_bound_dual, (2, (-2.225073858507203e-309,))),
            (lp_bound_primal, (2, (-2.225073858507203e-309,))),
            # there the certificate x - tau = S_1 + |tau| has the subnormal f_0 = |tau|, and f(k)/f_0 was inf
            (certificate_from_spectrum, (2, (-2.225073858507203e-309,))),
        ],
        ids=[
            "dual", "primal", "dual-degree", "certificate", "check-nan-value", "dual-optimum", "primal-optimum",
            "certificate-bound",
        ],
    )
    def test_data_past_float_range_rejected(self, fn, args):
        with pytest.raises(ValueError, match="float64's range"):
            fn(*args)

    def test_exact_data_past_float_range_stay_exact(self):
        sol = lp_bound_dual(3, (-10**200, 1), 3)
        assert sol.status == "optimal"
        assert sol.objective == 4

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "fn", [lp_bound_dual, lp_bound_primal, certificate_from_spectrum], ids=["dual", "primal", "certificate"]
    )
    def test_non_finite_eigenvalue_rejected(self, fn, bad):
        with pytest.raises(ValueError, match="not finite"):
            fn(3, (1.0, bad))


def integer_rows(M, rhs):
    """M and rhs with each row of [M | rhs] times the lcm of its denominators: the same solutions, on ints."""
    rows = []
    for row in (list(row) + [r] for row, r in zip(M, rhs)):
        scale = math.lcm(*(Fraction(a).denominator for a in row))
        rows.append([int(a * scale) for a in row])
    return [row[:-1] for row in rows], [row[-1] for row in rows]


class TestBareissSolve:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16])
    def test_matches_gauss_jordan(self, n):
        rng = random.Random(n)
        for _ in range(3):
            M = [[Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(n)] for _ in range(n)]
            rhs = [Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(n)]
            expected = solve_gauss_jordan(M, rhs)
            assert expected is not None
            X, D = lpbound._bareiss_solve(*integer_rows(M, rhs))
            assert [Fraction(x, D) for x in X] == expected

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_singular_gives_none(self, n):
        rng = random.Random(100 + n)
        M = [[Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(n)] for _ in range(n - 1)]
        a, b = Fraction(rng.randint(1, 9), 7), Fraction(-rng.randint(1, 9), 11)
        M.insert(rng.randrange(n), [a * x + b * y for x, y in zip(M[0], M[-1])])
        assert lpbound._bareiss_solve(*integer_rows(M, [1] * n)) is None

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=n, max_size=n), min_size=n, max_size=n),
                st.lists(st.fractions(-3, 3, max_denominator=3), min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_never_a_wrong_solution(self, system):
        M, rhs = system
        expected = solve_gauss_jordan(M, rhs)
        solved = lpbound._bareiss_solve(*integer_rows(M, rhs))
        if expected is None:
            assert solved is None
        else:
            X, D = solved
            assert [Fraction(x, D) for x in X] == expected
