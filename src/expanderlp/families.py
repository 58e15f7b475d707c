"""Named graph families with known order, girth and spectrum.

Every builder is deterministic: vertex numbering follows a fixed canonical
order, so repeated builds serialize to identical graph6 words.  Each builder
lists its edges directly, without testing vertex pairs: GF(q) arithmetic is
a pair of lookup tables, the projective plane's incidence is one array, and
a Kneser vertex's neighbours are the t-subsets of its complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graphcore import Graph

__all__ = [
    "FamilySpec",
    "Profile",
    "UnsupportedFamilyError",
    "parse_family",
    "build",
    "expected_profile",
    "TABLE_SPECS",
]


class UnsupportedFamilyError(ValueError):
    """Family name or parameters outside the shipped catalog."""


@dataclass(frozen=True)
class FamilySpec:
    name: str
    params: tuple[int, ...] = ()

    def __str__(self) -> str:
        if not self.params:
            return self.name
        return f"{self.name}:{','.join(str(p) for p in self.params)}"


@dataclass(frozen=True)
class Profile:
    """Closed-form order, degree, girth and spectrum for a family member."""

    v: int
    k: int
    girth: int
    spectrum: tuple[tuple[float, int], ...]


_ARITY = {
    "cycle": 1,
    "complete": 1,
    "complete_bipartite": 1,
    "kneser": 2,
    "petersen": 0,
    "clebsch": 0,
    "hoffman_singleton": 0,
    "pg2": 1,
    "gq": 1,
}

PG2_ORDERS = (2, 3, 4, 5, 7, 8)


def parse_family(text: str) -> FamilySpec:
    """Parse 'name' or 'name:p1,p2' into a validated FamilySpec."""
    name, _, rest = text.strip().partition(":")
    if name not in _ARITY:
        raise UnsupportedFamilyError(f"unknown family {name!r}")
    if rest:
        try:
            params = tuple(int(p) for p in rest.split(","))
        except ValueError:
            raise UnsupportedFamilyError(f"non-integer parameters in {text!r}") from None
    else:
        params = ()
    if len(params) != _ARITY[name]:
        raise UnsupportedFamilyError(
            f"family {name!r} takes {_ARITY[name]} parameter(s), got {len(params)}"
        )
    return FamilySpec(name, params)


def _cycle(g: int) -> Graph:
    if g < 3:
        raise UnsupportedFamilyError(f"cycle length must be >= 3, got {g}")
    return Graph.from_edges(g, [(i, (i + 1) % g) for i in range(g)])


def _complete(n: int) -> Graph:
    if n < 1:
        raise UnsupportedFamilyError(f"complete graph needs n >= 1, got {n}")
    return Graph.from_edges(n, combinations(range(n), 2))


def _complete_bipartite(k: int) -> Graph:
    if k < 1:
        raise UnsupportedFamilyError(f"complete bipartite half-size must be >= 1, got {k}")
    return Graph.from_edges(2 * k, [(i, k + j) for i in range(k) for j in range(k)])


def _kneser(n: int, t: int) -> Graph:
    """Kneser graph K(n, t): the t-subsets of range(n) in lexicographic order,
    adjacent when disjoint.

    Complementing reverses lexicographic order, so vertex i's complement is
    the i-th (n - t)-subset from the end.  Its t-subsets are i's neighbours,
    ranked by rank(c) = C(n, t) - 1 - sum_j C(n - 1 - c_j, t - j).
    """
    if not (1 <= t and 2 * t <= n):
        raise UnsupportedFamilyError(f"kneser graph needs 1 <= t <= n/2, got ({n}, {t})")
    complements = np.array(list(combinations(range(n), n - t)))[::-1]
    neighbours = complements[:, list(combinations(range(n - t), t))]
    binom = np.array([[math.comb(m, r) for r in range(t + 1)] for m in range(n)])
    ranks = len(complements) - 1 - binom[n - 1 - neighbours, t - np.arange(t)].sum(axis=2)
    rows, cols = np.nonzero(ranks > np.arange(len(complements))[:, None])
    return Graph.from_edges(len(complements), zip(rows.tolist(), ranks[rows, cols].tolist()))


def _clebsch() -> Graph:
    # Fold the 5-cube: vertices are 4-bit words, adjacent when the XOR has
    # weight 1 (cube edge) or weight 4 (identified antipode).
    return Graph.from_edges(16, [(x, x ^ e) for x in range(16) for e in (1, 2, 4, 8, 15) if x < x ^ e])


def _hoffman_singleton() -> Graph:
    # Five 5-cycles joined to five 5-cycles-with-chords through the rule
    # row h, slot j  ~  chord-row i, slot (h*i + j) mod 5.
    def p(h: int, j: int) -> int:
        return 5 * h + j

    def q(i: int, j: int) -> int:
        return 25 + 5 * i + j

    edges = []
    for h in range(5):
        for j in range(5):
            edges.append((p(h, j), p(h, (j + 1) % 5)))
            edges.append((q(h, j), q(h, (j + 2) % 5)))
    for h in range(5):
        for i in range(5):
            for j in range(5):
                edges.append((p(h, j), q(i, (h * i + j) % 5)))
    return Graph.from_edges(50, edges)


def _field(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Addition and multiplication tables of GF(q), q in PG2_ORDERS, as q x q arrays.

    Prime orders use arithmetic mod q; 4 and 8 use XOR and the carry-less
    product reduced by x^2+x+1 and x^3+x+1.
    """
    x = np.arange(q)
    if q not in (4, 8):
        return (x[:, None] + x) % q, (x[:, None] * x) % q
    deg = q.bit_length() - 1
    modulus = 0b111 if q == 4 else 0b1011
    mul = np.zeros((q, q), dtype=x.dtype)
    for bit in range(deg):
        mul ^= ((x >> bit) & 1) * (x[:, None] << bit)
    for bit in range(2 * deg - 2, deg - 1, -1):
        mul ^= ((mul >> bit) & 1) * (modulus << (bit - deg))
    return x[:, None] ^ x, mul


def _incidence_pg2(q: int) -> Graph:
    """Bipartite point-line incidence graph of the projective plane of order q.

    Point i lies on line j when their coordinates' dot product over GF(q) is
    0; the incidence matrix N comes from one lookup in the field's tables,
    and is checked against the plane axioms as N N^T = qI + J.
    """
    if q not in PG2_ORDERS:
        raise UnsupportedFamilyError(f"projective plane order must be one of {PG2_ORDERS}, got {q}")
    add, mul = _field(q)
    # Projective points: one representative per line of GF(q)^3, first
    # nonzero coordinate normalized to 1.  Lines use the same coordinates.
    reps = np.array(
        [(1, a, b) for a in range(q) for b in range(q)]
        + [(0, 1, c) for c in range(q)]
        + [(0, 0, 1)]
    )
    n = len(reps)
    terms = mul[reps[:, None, :], reps[None, :, :]]
    incidence = (add[add[terms[..., 0], terms[..., 1]], terms[..., 2]] == 0).astype(np.int64)
    # Plane axioms: each point on q + 1 lines, two distinct points on exactly one.
    gram = incidence @ incidence.T
    bad = np.argwhere(gram != q * np.eye(n, dtype=np.int64) + 1)
    if len(bad):
        i, j = bad[0].tolist()
        raise RuntimeError(f"incidence axiom violated for points {i}, {j}: {gram[i, j]} lines")
    points, lines = np.nonzero(incidence)
    return Graph.from_edges(2 * n, zip(points.tolist(), (n + lines).tolist()))


def _incidence_gq(q: int) -> Graph:
    """Incidence graph of the generalized quadrangle of order q (q = 2 shipped).

    Model for q = 2: points are the 15 pairs from a 6-set, lines the 15
    partitions of the 6-set into three pairs, incidence is membership.
    """
    if q != 2:
        raise UnsupportedFamilyError(f"only the order-2 generalized quadrangle is shipped, got {q}")
    masks = [(1 << a) | (1 << b) for a, b in combinations(range(6), 2)]
    # three pairs cover the 6-set exactly when they are disjoint
    synthemes = [s for s in combinations(range(15), 3) if masks[s[0]] | masks[s[1]] | masks[s[2]] == 0b111111]
    return Graph.from_edges(30, [(d, 15 + j) for j, syn in enumerate(synthemes) for d in syn])


_BUILDERS = {
    "cycle": _cycle,
    "complete": _complete,
    "complete_bipartite": _complete_bipartite,
    "kneser": _kneser,
    "petersen": lambda: _kneser(5, 2),
    "clebsch": _clebsch,
    "hoffman_singleton": _hoffman_singleton,
    "pg2": _incidence_pg2,
    "gq": _incidence_gq,
}


def build(spec: FamilySpec) -> Graph:
    """Construct the graph for a validated family spec."""
    if spec.name not in _BUILDERS:
        raise UnsupportedFamilyError(f"unknown family {spec.name!r}")
    if len(spec.params) != _ARITY[spec.name]:
        raise UnsupportedFamilyError(f"wrong parameter count for {spec.name!r}")
    return _BUILDERS[spec.name](*spec.params)


def _order(spec: FamilySpec) -> tuple[int, int]:
    """Vertex count and degree of build(spec), in closed form, without building it.

    Parameters that build rejects count as (0, 0) where the formulas could
    exceed any size cap, so that build, not the cap, reports them.
    """
    name, params = spec.name, spec.params
    if name == "kneser":
        n, t = params
        return (math.comb(n, t), math.comb(n - t, t)) if 1 <= t and 2 * t <= n else (0, 0)
    if name == "pg2":
        (q,) = params
        return (2 * (q * q + q + 1), q + 1) if q in PG2_ORDERS else (0, 0)
    if name == "complete_bipartite":
        return (2 * params[0], params[0]) if params[0] >= 1 else (0, 0)
    if name == "complete":
        return (params[0], params[0] - 1) if params[0] >= 1 else (0, 0)
    if name == "cycle":
        return params[0], 2
    if name == "gq":
        return (30, 3) if params == (2,) else (0, 0)
    return {"petersen": (10, 3), "clebsch": (16, 5), "hoffman_singleton": (50, 7)}[name]


def expected_profile(spec: FamilySpec) -> Profile:
    """Known (v, k, girth, spectrum) for the supported family members."""
    name, params = spec.name, spec.params
    if name == "cycle":
        (g,) = params
        if g < 3:
            raise UnsupportedFamilyError(f"cycle length must be >= 3, got {g}")
        entries = [(2.0, 1)]
        for j in range(1, (g + 1) // 2):
            entries.append((2.0 * math.cos(2.0 * math.pi * j / g), 2))
        if g % 2 == 0:
            entries.append((-2.0, 1))
        return Profile(g, 2, g, tuple(entries))
    if name == "complete":
        (n,) = params
        if n < 3:
            raise UnsupportedFamilyError(f"profile needs a complete graph on >= 3 vertices, got {n}")
        return Profile(n, n - 1, 3, ((float(n - 1), 1), (-1.0, n - 1)))
    if name == "complete_bipartite":
        (k,) = params
        if k < 2:
            raise UnsupportedFamilyError(f"profile needs half-size >= 2, got {k}")
        return Profile(2 * k, k, 4, ((float(k), 1), (0.0, 2 * k - 2), (-float(k), 1)))
    if name == "petersen" or (name == "kneser" and params == (5, 2)):
        return Profile(10, 3, 5, ((3.0, 1), (1.0, 5), (-2.0, 4)))
    if name == "kneser" and params == (7, 3):
        return Profile(35, 4, 6, ((4.0, 1), (2.0, 14), (-1.0, 14), (-3.0, 6)))
    if name == "clebsch":
        return Profile(16, 5, 4, ((5.0, 1), (1.0, 10), (-3.0, 5)))
    if name == "hoffman_singleton":
        return Profile(50, 7, 5, ((7.0, 1), (2.0, 28), (-3.0, 21)))
    if name == "pg2":
        (q,) = params
        if q not in PG2_ORDERS:
            raise UnsupportedFamilyError(f"projective plane order must be one of {PG2_ORDERS}")
        n = q * q + q + 1
        r = math.sqrt(q)
        return Profile(
            2 * n, q + 1, 6,
            ((float(q + 1), 1), (r, n - 1), (-r, n - 1), (-float(q + 1), 1)),
        )
    if name == "gq":
        (q,) = params
        if q != 2:
            raise UnsupportedFamilyError("only the order-2 generalized quadrangle is shipped")
        return Profile(30, 3, 8, ((3.0, 1), (2.0, 9), (0.0, 10), (-2.0, 9), (-3.0, 1)))
    raise UnsupportedFamilyError(f"no profile for {spec}")


TABLE_SPECS: tuple[FamilySpec, ...] = (
    FamilySpec("cycle", (5,)),
    FamilySpec("cycle", (7,)),
    FamilySpec("complete", (4,)),
    FamilySpec("complete_bipartite", (3,)),
    FamilySpec("pg2", (2,)),
    FamilySpec("pg2", (3,)),
    FamilySpec("pg2", (4,)),
    FamilySpec("gq", (2,)),
    FamilySpec("petersen"),
    FamilySpec("hoffman_singleton"),
    FamilySpec("kneser", (7, 3)),
    FamilySpec("clebsch"),
)
