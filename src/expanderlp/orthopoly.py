"""Orthogonal polynomial family attached to the k-regular tree.

The degree-i member S_i of the family is defined by

    S_0 = 1,  S_1 = x,  S_2 = x**2 - k,
    S_i = x*S_{i-1} - (k-1)*S_{i-2}        (i >= 3).

Evaluated at the adjacency matrix of a k-regular graph, S_i gives the matrix
counting non-backtracking walks of length i; on the infinite k-regular tree it
is the indicator of the distance-i sphere.  The family is orthogonal on
[-2*sqrt(k-1), 2*sqrt(k-1)] with respect to the weight

    w(x) = sqrt(4*(k-1) - x**2) / (k**2 - x**2),

the Kesten-McKay density of the tree (McKay 1981) times 2*pi/k.

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
from functools import cached_property, reduce

import numpy as np

__all__ = [
    "MAX_DEGREE",
    "SphereBasisPoly",
    "sphere_sequence",
    "sphere_poly",
    "to_sphere_basis",
    "sphere_basis_from_roots",
    "linearize_product",
    "weight_quadrature",
]

# Coefficient growth is ~ k*(k-1)**i, so degrees beyond this are not useful
# for graphs within the size caps and are rejected outright.
MAX_DEGREE = 64

# Nodes of weight_quadrature's midpoint rule.
QUADRATURE_NODES = 128


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

    @cached_property
    def _integers(self):
        """(D, the ints D*c_i, whether every c_i is an int), D the common
        denominator of the coefficients; None when one of them is a float."""
        cs = self.coeffs
        if not all(_is_rational(c) for c in cs):
            return None
        den = math.lcm(*(c.denominator for c in cs))
        return den, [c.numerator * (den // c.denominator) for c in cs], all(isinstance(c, int) for c in cs)

    def __call__(self, x):
        """Value at x; exact at an int or Fraction x when every coefficient is one.

        The exact value is sum_i c_i*N_i*q**(deg-i) / (D*q**deg), with x = a/q,
        N_i = q**i * S_i(a/q) from the homogenised recurrence and D the
        common denominator of the c_i: integer products and one division.
        D and the ints D*c_i are formed once per polynomial.  The value is
        an int when x and every coefficient are ints.
        """
        deg = self.degree
        exact = self._integers if _is_rational(x) else None
        if exact is None:
            return reduce(operator.add, map(operator.mul, self.coeffs, sphere_sequence(self.k, x, deg)))
        den, nums, ints = exact
        q = x.denominator
        total = 0
        for c, n in zip(nums, sphere_sequence(self.k, x.numerator, deg, q=q)):
            total = total * q + c * n
        if ints and isinstance(x, int):
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


def to_sphere_basis(k: int, coeffs) -> SphereBasisPoly:
    """Rewrite ascending monomial coefficients over the basis {S_0, S_1, ...}.

    Trailing exact zeros are stripped first.  Horner's rule p <- x*p + c in
    the sphere basis, from the leading coefficient down; exact for
    int/Fraction coefficients.  It stays public as the conversion that tests
    check the sphere-basis arithmetic against, and benchmarks/tracing.py
    traces it by name.
    """
    _check_k(k)
    cs = list(coeffs) or [0]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    if len(cs) - 1 > MAX_DEGREE:
        raise ValueError(f"degree {len(cs) - 1} exceeds supported maximum {MAX_DEGREE}")
    p = [cs[-1]]
    for c in reversed(cs[:-1]):
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


def weight_quadrature(k: int):
    """Nodes x and weights q with sum(f(x)*q) = integral of f*w over the support.

    With x = a*cos(t), a = 2*sqrt(k-1), the integral of f*w is the integral
    over [0, pi] of f(a*cos(t)) * s**2 / ((k-2)**2 + s**2) dt, s = a*sin(t)
    (the denominator is k**2 - x**2).  That integrand is smooth and periodic
    for k >= 3 and is f(2*cos(t)) at k = 2, so the midpoint rule in t on
    QUADRATURE_NODES nodes is exact to rounding for polynomials f of degree
    well below 2*QUADRATURE_NODES.  The returned weights include w.
    """
    _check_k(k)
    m = QUADRATURE_NODES
    t = (2 * np.arange(1, m + 1) - 1) * (math.pi / (2 * m))
    a = 2.0 * math.sqrt(k - 1)
    s2 = (a * np.sin(t)) ** 2
    return a * np.cos(t), (math.pi / m) * s2 / ((k - 2) ** 2 + s2)
