"""Linear programming bounds on the order of regular graphs with given eigenvalues.

A feasibility certificate is a polynomial f = sum f_i * S_i over the sphere
basis with

    f(k) > 0,   f(tau) <= 0 for every prescribed eigenvalue tau,
    f_0 > 0,    f_i >= 0 for i >= 1.

Any connected k-regular graph whose adjacency eigenvalues other than k lie in
the prescribed set has at most f(k)/f_0 vertices.  The optimal such bound is
the optimum of a small linear program, solved here by a self-contained
two-phase dense simplex with Bland's rule.  Float data are solved in
float64.  Rational data are solved in float64 too, and the final basis is
then proven optimal in exact arithmetic, as in Applegate, Cook, Dash and
Espinoza (2007): B x_B = b and B^T y = c_B are solved by Bareiss's
fraction-free elimination, and x_B >= 0 and every reduced cost >= 0 are
checked on integers.  When that proof fails the Fraction simplex solves the
LP from the start, so every exact verdict rests on exact arithmetic.

Exact data run on Python ints, with one Fraction per reported value.  At
tau = a/q the sphere values come from the homogenised recurrence as the
integers N_j = q**j * S_j(a/q).  The certificate's factors (q*x - a_i) are
multiplied in the sphere basis on ints and divided by q**deg once; float
data take the same route on the binary fractions they store.  The proof
scales each column of [A | b] by the lcm of its denominators, so column j of
the dual LP carries q**j, where clearing whole rows would carry q**u in
every entry.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .graphcore import Graph, regularity
from .orthopoly import (
    MAX_DEGREE,
    SphereBasisPoly,
    _is_rational,
    sphere_basis_from_roots,
    sphere_sequence,
)
from .spectral import Spectrum, spectrum

__all__ = [
    "ConditionReport",
    "CertificateConditions",
    "BoundCertificate",
    "check_certificate",
    "certificate_from_spectrum",
    "LPSolution",
    "lp_bound_dual",
    "lp_bound_primal",
    "TightnessReport",
    "check_attainment",
]

# Float slack allowed in the certificate's two inequality conditions.
DEFAULT_SLACK_TOL = 1e-9
# Float tolerance on the equality conditions of attainment and on bound == v.
ATTAINMENT_TOL = 1e-6
_PAST_FLOAT_RANGE = "certificate coefficients or values exceed float64's range"


def _validate_eigenvalues(k: int, eigenvalues: Sequence) -> tuple:
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise ValueError(f"degree k must be an integer >= 2, got {k!r}")
    taus = tuple(eigenvalues)
    if not taus:
        raise ValueError("eigenvalue list must be nonempty")
    if not all(_is_rational(t) for t in taus):
        # one float makes the data float: every value goes to float64 up front
        try:
            taus = tuple(float(t) for t in taus)
        except OverflowError:
            raise ValueError("prescribed eigenvalues exceed float64's range") from None
    if len(set(taus)) != len(taus):
        raise ValueError("prescribed eigenvalues must be distinct")
    for t in taus:
        if not _is_rational(t) and not math.isfinite(t):
            raise ValueError(f"prescribed eigenvalue {t} is not finite")
        if not t < k:
            raise ValueError(f"prescribed eigenvalue {t} not below k = {k}")
    return tuple(sorted(taus, reverse=True))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a single certificate condition; slack > 0 means margin."""

    ok: bool
    slack: object
    witness: object = None


@dataclass(frozen=True)
class CertificateConditions:
    value_at_k_positive: ConditionReport
    nonpositive_at_eigenvalues: ConditionReport
    constant_term_positive: ConditionReport
    coeffs_nonnegative: ConditionReport

    def all_ok(self) -> bool:
        return (
            self.value_at_k_positive.ok
            and self.nonpositive_at_eigenvalues.ok
            and self.constant_term_positive.ok
            and self.coeffs_nonnegative.ok
        )

    def to_json_dict(self) -> dict:
        def entry(rep: ConditionReport) -> dict:
            out = {"ok": rep.ok, "slack": float(rep.slack)}
            if rep.witness is not None:
                out["witness"] = rep.witness if isinstance(rep.witness, int) else float(rep.witness)
            return out

        return {
            "f_at_k_positive": entry(self.value_at_k_positive),
            "f_nonpositive_at_eigenvalues": entry(self.nonpositive_at_eigenvalues),
            "f0_positive": entry(self.constant_term_positive),
            "coeffs_nonnegative": entry(self.coeffs_nonnegative),
        }


@dataclass(frozen=True)
class BoundCertificate:
    """A checked certificate; bound is set only when every condition holds."""

    k: int
    poly: SphereBasisPoly
    eigenvalues: tuple
    value_at_k: object
    constant_term: object
    conditions: CertificateConditions
    bound: object

    def to_json_dict(self) -> dict:
        return {
            "bound": None if self.bound is None else float(self.bound),
            "f_coeffs": [float(c) for c in self.poly.coeffs],
            "conditions": self.conditions.to_json_dict(),
        }


def check_certificate(k: int, eigenvalues: Sequence, poly: SphereBasisPoly) -> BoundCertificate:
    """Evaluate the four certificate conditions and the resulting bound.

    DEFAULT_SLACK_TOL applies to the two inequality conditions (values at
    eigenvalues <= 0, coefficients >= 0), and only when some eigenvalue or
    coefficient is a float: exact data is compared against 0.  The strict
    positivity conditions are checked as given.  Invalid certificates are
    reported, not raised; a float coefficient, value or bound past float64's
    range, whose comparisons would mean nothing, is a ValueError.
    """
    if poly.k != k:
        raise ValueError(f"certificate basis degree {poly.k} differs from k = {k}")
    taus = _validate_eigenvalues(k, eigenvalues)
    tol = 0 if all(_is_rational(x) for x in taus + poly.coeffs) else DEFAULT_SLACK_TOL
    value_at_k = poly(k)
    values = [poly(t) for t in taus]
    if not all(_is_rational(x) or math.isfinite(x) for x in (value_at_k, *values, *poly.coeffs)):
        raise ValueError(_PAST_FLOAT_RANGE)
    cond1 = ConditionReport(value_at_k > 0, value_at_k)
    worst_val, worst_tau = None, None
    for t, val in zip(taus, values):
        if worst_val is None or val > worst_val:
            worst_val, worst_tau = val, t
    cond2 = ConditionReport(worst_val <= tol, -worst_val, worst_tau)
    f0 = poly.coeffs[0]
    cond3 = ConditionReport(f0 > 0, f0)
    worst_c, worst_i = None, None
    for i, c in enumerate(poly.coeffs[1:], start=1):
        if worst_c is None or c < worst_c:
            worst_c, worst_i = c, i
    if worst_c is None:
        cond4 = ConditionReport(True, 0, None)
    else:
        cond4 = ConditionReport(worst_c >= -tol, worst_c, worst_i)
    conditions = CertificateConditions(cond1, cond2, cond3, cond4)
    if not conditions.all_ok():
        bound = None
    elif _is_rational(value_at_k) and _is_rational(f0):
        bound = Fraction(value_at_k) / Fraction(f0)
    else:
        bound = value_at_k / f0
        if not math.isfinite(bound):
            raise ValueError(_PAST_FLOAT_RANGE)
    return BoundCertificate(k, poly, taus, value_at_k, f0, conditions, bound)


def certificate_from_spectrum(k: int, eigenvalues: Sequence) -> BoundCertificate:
    """Certificate (x - t_1) * prod_{i>=2} (x - t_i)**2 for eigenvalues t_1 > t_2 > ...

    For a graph with d+1 distinct eigenvalues and girth >= 2d this certificate
    is valid and attains the optimal bound.  Every t_i, a float64 included, is
    a fraction a_i/q over a common denominator q; the factors (q*x - a_i) are
    multiplied in the sphere basis on ints and divided by q**deg once.  Int
    data keep int coefficients, Fraction data Fraction ones, and float data
    are rounded to float64 once, at the end.
    """
    taus = _validate_eigenvalues(k, eigenvalues)
    if 2 * len(taus) - 1 > MAX_DEGREE:
        raise ValueError(f"certificate degree {2 * len(taus) - 1} exceeds maximum {MAX_DEGREE}")
    q = math.lcm(*(Fraction(t).denominator for t in taus))
    nums = [int(Fraction(t) * q) for t in taus]
    poly = sphere_basis_from_roots(k, nums[:1] + [a for a in nums[1:] for _ in range(2)], q)
    den = q**poly.degree
    if not _is_rational(taus[0]):
        try:
            poly = SphereBasisPoly(k, tuple(c / den for c in poly.coeffs))
        except OverflowError:
            raise ValueError(_PAST_FLOAT_RANGE) from None
    elif not all(isinstance(t, int) for t in taus):
        poly = SphereBasisPoly(k, tuple(Fraction(c, den) for c in poly.coeffs))
    return check_certificate(k, taus, poly)


@dataclass(frozen=True)
class LPSolution:
    """Solved LP: status is one of optimal, infeasible, unbounded."""

    status: str
    objective: object
    variables: tuple


def _standard_form(c: list, rows: list, rhs: list, slack: int, conv) -> tuple[list, list, list, list]:
    """The LP rows . x <= rhs (slack = 1) or >= rhs (slack = -1) as A z = b, z >= 0.

    x >= 0 and rhs >= 0.  z is x followed by one slack column per row, in
    row order, holding slack in its row.  Returns A, b, the cost of z (c,
    then zeros) and, per row, the column that is a unit column of that row:
    its slack when slack = 1, otherwise None.
    """
    m, zero = len(rows), conv(0)
    A = []
    for r, row in enumerate(rows):
        slacks = [zero] * m
        slacks[r] = conv(slack)
        A.append([conv(a) for a in row] + slacks)
    unit = [len(c) + r for r in range(m)] if slack > 0 else [None] * m
    return A, [conv(v) for v in rhs], [conv(a) for a in c] + [zero] * m, unit


def _bland(A: list, b: list, cost: list, unit: list, exact: bool) -> tuple[str, list, list]:
    """Minimize cost.z subject to A z = b, z >= 0, b >= 0.

    Dense two-phase tableau with Bland's rule, starting from the unit
    columns and one artificial column per row without one; Fractions
    throughout when exact, float64 with a pivot tolerance otherwise.
    Returns the status and, when optimal, the final basis and its values,
    one per row left: phase 1 drops the rows it finds redundant.
    """
    if exact:
        zero, one = Fraction(0), Fraction(1)
        tol = Fraction(0)
    else:
        zero, one = 0.0, 1.0
        tol = 1e-9
    m = len(A)
    real_cols = ncols = len(cost)
    art_col = {}
    for r in range(m):
        if unit[r] is None:
            art_col[r] = ncols
            ncols += 1
    tableau = [row + [zero] * (ncols - real_cols) + [rhs] for row, rhs in zip(A, b)]
    basis = list(unit)
    for r, col in art_col.items():
        tableau[r][col] = one
        basis[r] = col

    def nonzero(a) -> bool:
        return a != zero if exact else abs(a) > tol

    def pivot(r: int, col: int) -> None:
        piv = tableau[r][col]
        tableau[r] = [a / piv for a in tableau[r]]
        for rr in range(len(tableau)):
            if rr != r and tableau[rr][col] != zero:
                f = tableau[rr][col]
                tableau[rr] = [a - f * b for a, b in zip(tableau[rr], tableau[r])]
        basis[r] = col

    def run(cost: list) -> str:
        width = len(tableau[0]) - 1
        z = list(cost[:width]) + [zero]
        for r in range(len(tableau)):
            cb = cost[basis[r]]
            if cb != zero:
                for j in range(width + 1):
                    z[j] = z[j] - cb * tableau[r][j]
        while True:
            enter = -1
            for j in range(width):
                if z[j] < -tol:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            best_ratio = None
            for r in range(len(tableau)):
                a = tableau[r][enter]
                if a > tol:
                    ratio = tableau[r][-1] / a
                    if best_ratio is None or ratio < best_ratio - tol or (
                        not ratio > best_ratio + tol and basis[r] < basis[leave]
                    ):
                        best_ratio = ratio
                        leave = r
            if leave < 0:
                return "unbounded"
            piv_row = leave
            f = z[enter]
            pivot(piv_row, enter)
            if f != zero:
                for j in range(width + 1):
                    z[j] = z[j] - f * tableau[piv_row][j]

    if art_col:
        phase1 = [zero] * ncols
        for col in art_col.values():
            phase1[col] = one
        run(phase1)
        art_set = set(art_col.values())
        infeas = sum(tableau[r][-1] for r in range(len(tableau)) if basis[r] in art_set)
        if (infeas > zero) if exact else (infeas > 1e-7):
            return "infeasible", [], []
        # Drive leftover zero-valued artificials out of the basis, dropping
        # rows that have become redundant, then discard artificial columns.
        drop = []
        for r in range(len(tableau)):
            if basis[r] in art_set:
                for j in range(real_cols):
                    if nonzero(tableau[r][j]):
                        pivot(r, j)
                        break
                else:
                    drop.append(r)
        if drop:
            tableau = [row for r, row in enumerate(tableau) if r not in drop]
            basis = [b for r, b in enumerate(basis) if r not in drop]
        tableau = [row[:real_cols] + [row[-1]] for row in tableau]
    status = run(cost) if tableau else "optimal"
    if status != "optimal":
        return status, [], []
    return "optimal", basis, [row[-1] for row in tableau]


def _integer_row(row: list) -> list:
    """A row of ints and Fractions times the lcm of its denominators, as ints."""
    scale = math.lcm(*(a.denominator for a in row))
    return [a.numerator * (scale // a.denominator) for a in row]


def _bareiss_solve(M: list, rhs: list) -> Optional[tuple[list, int]]:
    """Solve M x = rhs exactly for a square matrix M of ints and Fractions.

    Each row of [M | rhs] is scaled to integers, and Bareiss's (1968)
    fraction-free elimination with row exchanges makes it upper triangular:
    each update is an exact integer division by the previous pivot, and the
    last pivot D is +-det M.  Back-substitution, the only step that divides,
    gives x = X / D with X integer (Cramer).  Returns (X, D), or None when M
    is singular.
    """
    n = len(M)
    a = [_integer_row(list(row) + [r]) for row, r in zip(M, rhs)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return None
        a[k], a[p] = a[p], a[k]
        top, piv = a[k], a[k][k]
        for i in range(k + 1, n):
            row, f = a[i], a[i][k]
            a[i] = [0] * (k + 1) + [(piv * row[j] - f * top[j]) // prev for j in range(k + 1, n + 1)]
        prev = piv
    X = [0] * n
    for i in reversed(range(n)):
        row = a[i]
        X[i] = (prev * row[n] - sum(row[j] * X[j] for j in range(i + 1, n))) // row[i]
    return X, prev


def _proven_optimal(A: list, b: list, cost: list, basis: list) -> Optional[list]:
    """Basic values if basis is provably optimal for min cost.z, A z = b, z >= 0.

    Each column of [A | b] is scaled by the lcm of its denominators, and
    each cost by the same factor, which puts the system on integers with no
    sign change; with B the basis columns, x_B = B^-1 b must be >= 0
    (primal feasible), and with B^T y = c_B every reduced cost c_j - y.A_j
    must be >= 0 (dual feasible).  Both hold exactly or the answer is None,
    as it is for a singular B.  The values map back through the scales.
    """
    columns = [*zip(*A), b]
    scales = [math.lcm(*(a.denominator for a in col)) for col in columns]
    cols = [[a.numerator * (s // a.denominator) for a in col] for col, s in zip(columns, scales)]
    scaled_cost = _integer_row([c * s for c, s in zip(cost, scales)])
    B_T = [cols[j] for j in basis]
    primal = _bareiss_solve([list(row) for row in zip(*B_T)], cols[-1])
    if primal is None:
        return None
    X, D = primal
    if any(x * D < 0 for x in X):
        return None
    Y, E = _bareiss_solve(B_T, [scaled_cost[j] for j in basis])
    basic = set(basis)
    for j, cj in enumerate(scaled_cost):
        # E * (c_j - y.A_j), whose sign times the sign of E is the reduced cost's
        if j not in basic and (cj * E - sum(y * a for y, a in zip(Y, cols[j]))) * E < 0:
            return None
    return [Fraction(scales[j] * x, D * scales[-1]) for j, x in zip(basis, X)]


def _verified_float_solve(A: list, b: list, cost: list, unit: list) -> Optional[tuple[str, list, list]]:
    """The float64 tableau's optimal basis with exact values, if proven optimal.

    None when the float run ends otherwise, drops a row, the data leave
    float64's range, or _proven_optimal rejects the basis.
    """
    try:
        floats = [[float(a) for a in row] for row in A], [float(v) for v in b], [float(v) for v in cost]
    except OverflowError:
        return None
    status, basis, _ = _bland(*floats, unit, exact=False)
    if status != "optimal" or len(basis) < len(A):
        return None
    values = _proven_optimal(A, b, cost, basis)
    return None if values is None else ("optimal", basis, values)


def _simplex(c: list, rows: list, rhs: list, slack: int, exact: bool) -> tuple[str, list, object]:
    """Minimize c.x subject to rows . x <= rhs (slack = 1) or >= rhs (slack = -1), x >= 0.

    The data are converted to Fraction when exact and to float otherwise.
    Float data run the two-phase Bland tableau in float64.  Exact data (ints
    and Fractions) run that float tableau first and keep its final basis
    only once _proven_optimal has shown it optimal in integer arithmetic.
    Otherwise, or when the float run ends infeasible or unbounded or drops
    a row, the Fraction tableau solves from the start.  So an exact
    "optimal" always carries an exact proof, and "infeasible" or
    "unbounded" comes only from exact pivoting: on float data the Fraction
    tableau re-solves the same floats, as the float tableau's tolerances
    can stop a feasible, bounded LP early, and its values return as floats
    (ValueError if one is past float64's range).
    """
    conv = Fraction if exact else float
    A, b, cost, unit = _standard_form(c, rows, rhs, slack, conv)
    solved = _verified_float_solve(A, b, cost, unit) if exact else None
    status, basis, values = solved or _bland(A, b, cost, unit, exact=exact)
    if status != "optimal" and not exact:
        status, basis, values = _bland(*_standard_form(c, rows, rhs, slack, Fraction), exact=True)
        try:
            values = [float(v) for v in values]
        except OverflowError:
            raise ValueError("the LP optimum lies past float64's range") from None
    if status != "optimal":
        return status, [], None
    x = [conv(0)] * len(c)
    for col, value in zip(basis, values):
        if col < len(c):
            x[col] = value
    objective = sum(ci * xi for ci, xi in zip(c, x))
    return "optimal", x, objective


def _exact_sphere_values(k: int, t, u: int) -> list:
    """S_1(t)..S_u(t) for an int or Fraction t, one Fraction (or int) per value."""
    q = t.denominator
    nums = list(sphere_sequence(k, t.numerator, u, q=q))[1:]
    if q == 1:
        return nums
    return [Fraction(n, q**j) for j, n in enumerate(nums, start=1)]


def _lp_data(k: int, eigenvalues: Sequence, u: Optional[int], what: str, least: int) -> tuple:
    """What both LPs share: u (default 2d - 1), whether the data are exact,
    the ints S_1(k)..S_u(k), and S_1(tau)..S_u(tau) for each prescribed
    eigenvalue tau, largest first.

    Float data must stay in float64's range: S_u(k) and every S_j(tau)
    finite, or ValueError."""
    taus = _validate_eigenvalues(k, eigenvalues)
    if u is None:
        u = 2 * len(taus) - 1
    if u < least:
        raise ValueError(f"{what} degree u must be >= {least}, got {u}")
    if u > MAX_DEGREE:
        raise ValueError(f"{what} degree {u} exceeds maximum {MAX_DEGREE}")
    exact = all(_is_rational(t) for t in taus)
    at_k = list(sphere_sequence(k, k, u))
    if not exact and at_k[-1] > sys.float_info.max:
        raise ValueError(f"S_{u}({k}) exceeds float64's range")
    if exact:
        values = [_exact_sphere_values(k, t, u) for t in taus]
    else:
        values = [list(sphere_sequence(k, float(t), u))[1:] for t in taus]
    if not exact and not all(math.isfinite(v) for vals in values for v in vals):
        raise ValueError(f"sphere values up to degree {u} at the eigenvalues exceed float64's range")
    return u, exact, at_k[1:], values


def lp_bound_dual(k: int, eigenvalues: Sequence, u: Optional[int] = None) -> LPSolution:
    """Least certificate bound using coefficients up to degree u.

    Minimizes 1 + sum_j f_j * S_j(k) subject to -sum_j f_j * S_j(tau) >= 1 for
    every prescribed eigenvalue, f_j >= 0.  Defaults to u = 2d - 1 where d is
    the number of prescribed eigenvalues.  Exact with rational data.
    """
    u, exact, at_k, values = _lp_data(k, eigenvalues, u, "coefficient", 1)
    rows = [[-a for a in vals] for vals in values]
    status, x, objective = _simplex(at_k, rows, [1] * len(rows), -1, exact)
    if status != "optimal":
        return LPSolution(status, None, ())
    return LPSolution("optimal", 1 + objective, tuple(x))


def lp_bound_primal(k: int, eigenvalues: Sequence, u: Optional[int] = None) -> LPSolution:
    """Largest order consistent with the first u moment constraints.

    Maximizes 1 + sum_i m_i subject to -sum_i m_i * S_j(tau_i) <= S_j(k) for
    j = 1..u, m_i >= 0.  u = 0 leaves no constraints and yields the one-vertex
    objective.  Exact with rational data.
    """
    u, exact, at_k, cols = _lp_data(k, eigenvalues, u, "constraint", 0)
    if u == 0:
        return LPSolution("optimal", Fraction(1) if exact else 1.0, ())
    rows = [[-col[j] for col in cols] for j in range(u)]
    status, x, objective = _simplex([-1] * len(cols), rows, at_k, 1, exact)
    if status != "optimal":
        return LPSolution(status, None, ())
    return LPSolution("optimal", 1 - objective, tuple(x))


@dataclass(frozen=True)
class TightnessReport:
    """Whether a certificate's bound is attained by a concrete graph."""

    applicable: bool
    reason: Optional[str]
    tight: bool
    eigenvalue_residuals: tuple


def check_attainment(g: Graph, cert: BoundCertificate, spec: Optional[Spectrum] = None) -> TightnessReport:
    """Check the equality case of the bound v <= f(k)/f_0 against a concrete graph.

    On a connected k-regular graph, tr f(A) = sum_i f_i * tr S_i(A) equals
    f(k) + sum_theta m(theta) * f(theta) over the nontrivial eigenvalues, and
    tr S_0(A) = v.  Once f vanishes at every theta, the products
    f_i * tr S_i(A), i >= 1, are each >= 0 and sum to f(k) - v * f_0, so they
    all vanish iff f(k)/f_0 = v.  The bound is therefore attained iff every
    residual f(theta) is within ATTAINMENT_TOL of 0 and the bound equals v:
    exactly when it is rational, within ATTAINMENT_TOL otherwise.

    spec is the graph's measured spectrum, computed with the default
    clustering tolerance when not given, so a graph past the size cap is a
    SizeCapError.  Connectivity is read from it: a regular graph is
    connected iff k is a simple eigenvalue, and at the default tolerance
    (at most 1e-8 * 511) the gap k - lambda_2 >= 4/(nD) >= 1.5e-5 of a
    connected graph inside the cap (Mohar 1991) keeps the two apart.  An
    irregular or disconnected graph, a degree mismatch or a certificate
    whose conditions fail makes the certificate inapplicable, reported
    rather than raised.
    """
    k = regularity(g)
    if k is None:
        return TightnessReport(False, "graph is not regular", False, ())
    if k != cert.k:
        return TightnessReport(False, f"certificate k = {cert.k} does not match graph k = {k}", False, ())
    if spec is None:
        spec = spectrum(g)
    if spec.entries[0][1] != 1:
        return TightnessReport(False, "graph is not connected", False, ())
    if not cert.conditions.all_ok():
        return TightnessReport(False, "certificate conditions fail", False, ())
    residuals = tuple(cert.poly(t) for t in spec.nontrivial)
    if _is_rational(cert.bound):
        order_ok = cert.bound == g.n
    else:
        order_ok = abs(cert.bound - g.n) <= ATTAINMENT_TOL
    tight = order_ok and all(abs(r) <= ATTAINMENT_TOL for r in residuals)
    return TightnessReport(True, None, tight, residuals)
