"""Orthogonal polynomial family attached to the k-regular tree.

The degree-i member S_i of the family is defined by

    S_0 = 1,  S_1 = x,  S_2 = x**2 - k,
    S_i = x*S_{i-1} - (k-1)*S_{i-2}        (i >= 3).

Evaluated at the adjacency matrix of a k-regular graph, S_i gives the matrix
counting non-backtracking walks of length i; on the infinite k-regular tree it
is the indicator of the distance-i sphere.  The family is orthogonal on
[-2*sqrt(k-1), 2*sqrt(k-1)] with respect to the weight

    w(x) = sqrt(4*(k-1) - x**2) / (k**2 - x**2).

Partial sums B_i = S_0 + ... + S_i (ball polynomials) satisfy
(x - k)*B_i = S_{i+1} - (k-1)*S_i and are monic orthogonal for (k - x)*w(x).

Products stay in the sphere basis by one rule for x*S_i: x*S_0 = S_1,
x*S_1 = S_2 + k*S_0 and x*S_i = S_{i+1} + (k-1)*S_{i-1} for i >= 2.
Certificates, the linearisation of S_i*S_j and the conversion from monomials
(Horner's rule) all use it.
All coefficient manipulation is exact when inputs are ints or Fractions;
evaluation at floats (or numpy arrays) runs in double precision.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

__all__ = [
    "MAX_DEGREE",
    "MonomialPoly",
    "SphereBasisPoly",
    "sphere_sequence",
    "sphere_poly",
    "ball_poly",
    "to_sphere_basis",
    "sphere_basis_from_roots",
    "linearize_product",
    "tree_weight",
    "weight_quadrature",
]

# Coefficient growth is ~ k*(k-1)**i, so degrees beyond this are not useful
# for graphs within the size caps and are rejected outright.
MAX_DEGREE = 64


def _is_rational(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _check_k(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise ValueError(f"tree degree k must be an integer >= 2, got {k!r}")


def _check_index(i: int) -> None:
    if not isinstance(i, int) or isinstance(i, bool) or i < 0:
        raise ValueError(f"polynomial index must be a nonnegative integer, got {i!r}")
    if i > MAX_DEGREE:
        raise ValueError(f"degree {i} exceeds supported maximum {MAX_DEGREE}")


def sphere_sequence(k: int, x, upto: int, one=None, mul=operator.mul, q: int = 1):
    """Yield S_0(x), S_1(x), ..., S_upto(x), each from the two before it.

    x may be an int, Fraction, float or numpy array (evaluated entrywise);
    one defaults to the matching unit.  With an identity as one and a
    product as mul, x may be any ring element, e.g. a matrix under np.dot.
    Values are produced lazily, so a caller may stop early.

    With q != 1 the values are homogenised: the j-th is q**j * S_j(x/q),
    from N_j = x*N_{j-1} - (k-1)*q**2*N_{j-2} (k*q**2 at j = 2).  For
    integers x and q these are integers, so S_j(a/q) = N_j / q**j exactly
    without any Fraction arithmetic.
    """
    if one is None:
        one = np.ones_like(x) if isinstance(x, np.ndarray) else 1
    yield one
    if upto >= 1:
        yield x
    prev, cur = one, x
    first, rest = k * q * q, (k - 1) * q * q
    for m in range(2, upto + 1):
        prev, cur = cur, mul(x, cur) - (first if m == 2 else rest) * prev
        yield cur


def sphere_poly(k: int, i: int, x):
    """Value of S_i at x.  x may be an int, Fraction, float or numpy array."""
    _check_k(k)
    _check_index(i)
    return list(sphere_sequence(k, x, i))[i]


def ball_poly(k: int, i: int, x):
    """Value of the partial sum B_i = S_0 + ... + S_i at x."""
    _check_k(k)
    _check_index(i)
    return sum(sphere_sequence(k, x, i))


@dataclass(frozen=True)
class MonomialPoly:
    """Polynomial as coefficients in ascending powers of x.

    Trailing exact zeros are stripped so degree() reflects the true degree.
    """

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(self.coeffs)
        if not cs:
            cs = (0,)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __mul__(self, other: "MonomialPoly") -> "MonomialPoly":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return MonomialPoly(tuple(out))

    def __add__(self, other: "MonomialPoly") -> "MonomialPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, bj in enumerate(b):
            out[j] = out[j] + bj
        return MonomialPoly(tuple(out))

    @staticmethod
    def from_roots(roots) -> "MonomialPoly":
        poly = MonomialPoly((1,))
        for r in roots:
            poly = poly * MonomialPoly((-r, 1))
        return poly


@dataclass(frozen=True)
class SphereBasisPoly:
    """Polynomial stored as coefficients over the basis {S_0, S_1, ...}.

    The coefficient tuple is kept exactly as given; degree is the index of the
    last stored coefficient.
    """

    k: int
    coeffs: tuple

    def __post_init__(self):
        _check_k(self.k)
        cs = tuple(self.coeffs)
        if not cs:
            raise ValueError("coefficient sequence must be nonempty")
        if len(cs) - 1 > MAX_DEGREE:
            raise ValueError(f"degree {len(cs) - 1} exceeds supported maximum {MAX_DEGREE}")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Value at x; exact at an int or Fraction x when every coefficient is one.

        The exact value is sum_i c_i*N_i*q**(deg-i) / (D*q**deg), with x = a/q,
        N_i = q**i * S_i(a/q) from the homogenised recurrence and D the
        common denominator of the c_i: integer products and one division.
        It is an int when x and every coefficient are ints.
        """
        cs, deg = self.coeffs, self.degree
        if not (_is_rational(x) and all(_is_rational(c) for c in cs)):
            return reduce(operator.add, map(operator.mul, cs, sphere_sequence(self.k, x, deg)))
        q, den = x.denominator, math.lcm(*(c.denominator for c in cs))
        total = 0
        for c, n in zip(cs, sphere_sequence(self.k, x.numerator, deg, q=q)):
            total = total * q + c.numerator * (den // c.denominator) * n
        if isinstance(x, int) and all(isinstance(c, int) for c in cs):
            return total
        return Fraction(total, den * q**deg)


def _times_linear(k: int, p: list, a: int = 0, q: int = 1) -> list:
    """(q*x - a)*p over {S_0, S_1, ...}, by the rule for x*S_i; ints stay ints."""
    out = [0] + [q * c for c in p]
    for j, c in enumerate(p):
        out[j] -= a * c
    if len(p) > 1:
        out[0] += q * k * p[1]
    qk1 = q * (k - 1)
    for j in range(1, len(p) - 1):
        out[j] += qk1 * p[j + 1]
    return out


def to_sphere_basis(k: int, poly: MonomialPoly) -> SphereBasisPoly:
    """Rewrite a monomial-basis polynomial over the basis {S_0, S_1, ...}.

    Horner's rule p <- x*p + c in the sphere basis, from the leading
    coefficient down; exact for int/Fraction coefficients.
    """
    _check_k(k)
    if poly.degree > MAX_DEGREE:
        raise ValueError(f"degree {poly.degree} exceeds supported maximum {MAX_DEGREE}")
    p = [poly.coeffs[-1]]
    for c in reversed(poly.coeffs[:-1]):
        p = _times_linear(k, p)
        p[0] += c
    return SphereBasisPoly(k, tuple(p))


def sphere_basis_from_roots(k: int, roots, q: int = 1) -> SphereBasisPoly:
    """prod (q*x - a) over the ints a in roots, with int coefficients over {S_0, S_1, ...}.

    One sphere-basis multiplication per factor; dividing by q**len(roots)
    gives prod (x - a/q).
    """
    _check_k(k)
    p = [1]
    for a in roots:
        p = _times_linear(k, p, a, q)
    return SphereBasisPoly(k, tuple(p))


def linearize_product(k: int, i: int, j: int) -> tuple:
    """Coefficients p_0..p_{i+j} with S_i*S_j = sum_l p_l*S_l, exact ints.

    p_l >= 0 always and p_0 = S_i(k) when i == j (else 0).  For k >= 3,
    p_l > 0 exactly when |i-j| <= l <= i+j and l = i+j (mod 2); at k = 2 the
    tree degenerates to the two-way infinite path and some interior
    coefficients vanish (e.g. S_2*S_2 = S_4 + 2*S_0).
    """
    _check_k(k)
    _check_index(i)
    _check_index(j)
    if i + j > MAX_DEGREE:
        raise ValueError(f"product degree {i + j} exceeds supported maximum {MAX_DEGREE}")
    # S_m*S_j = x*(S_{m-1}*S_j) - c*S_{m-2}*S_j, with c = k at m = 2 and k-1 after
    prev, cur = [], [0] * j + [1]
    for m in range(1, i + 1):
        nxt = _times_linear(k, cur)
        c = k if m == 2 else k - 1
        for l, v in enumerate(prev):
            nxt[l] -= c * v
        prev, cur = cur, nxt
    return tuple(cur)


def tree_weight(k: int, x: float) -> float:
    """Orthogonality weight sqrt(4*(k-1) - x**2) / (k**2 - x**2).

    Defined on |x| <= 2*sqrt(k-1); the numerator vanishes at the endpoints.
    For k = 2 the endpoints coincide with the poles at +-k and are rejected.
    """
    _check_k(k)
    x = float(x)
    edge = 2.0 * math.sqrt(k - 1)
    if abs(x) > edge:
        raise ValueError(f"|x| = {abs(x)} outside support [{-edge}, {edge}]")
    den = float(k * k) - x * x
    if den == 0.0:
        raise ValueError(f"weight has a pole at x = {x} for k = {k}")
    return math.sqrt(max(4.0 * (k - 1) - x * x, 0.0)) / den


def weight_quadrature(k: int, min_nodes: int = 2000):
    """Nodes x and weights q with sum(f(x)*q) ~ integral of f*w over the support.

    Composite Gauss-Legendre on [-a + eps, a - eps], a = 2*sqrt(k-1),
    eps = 1e-9, with panels geometrically refined toward the endpoints where
    the weight has square-root behaviour.  The returned weights include the
    orthogonality weight w.
    """
    _check_k(k)
    a = 2.0 * math.sqrt(k - 1)
    eps = 1e-9
    # Panel edges: uniform across the middle, dyadically graded near +-a.
    levels = int(math.floor(math.log2(a / eps)))
    right = [a - a / 2.0**m for m in range(1, levels + 1)] + [a - eps]
    middle = [-a / 2.0 + t * (a / 8.0) for t in range(1, 8)]
    edges = sorted({-e for e in right} | set(middle) | set(right))
    panels = list(zip(edges[:-1], edges[1:]))
    per_panel = max(16, -(-min_nodes // len(panels)))
    base_x, base_w = np.polynomial.legendre.leggauss(per_panel)
    xs, ws = [], []
    for lo, hi in panels:
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        x = mid + half * base_x
        xs.append(x)
        ws.append(half * base_w * np.array([tree_weight(k, t) for t in x]))
    return np.concatenate(xs), np.concatenate(ws)
