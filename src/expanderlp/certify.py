"""End-to-end certification of regular graphs as order-extremal for their spectrum.

A connected k-regular graph with d+1 distinct adjacency eigenvalues and girth
at least 2d has the most vertices that any connected k-regular graph whose
nontrivial eigenvalues lie in its own eigenvalue set can have.  By the
paper's application, it has the least second eigenvalue, that is the largest
spectral gap, among k-regular graphs of its order.
The certifier reconstructs the certificate from the measured spectrum, checks
its conditions and tightness, and cross-checks classical counting bounds and
distance-regularity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .families import FamilySpec, build
from .graphcore import Graph, IntersectionArray
from .lpbound import (
    BoundCertificate,
    TightnessReport,
    certificate_from_spectrum,
    check_attainment,
    lp_bound_dual,
)
from .orthopoly import MAX_DEGREE
from .spectral import Spectrum, measure

__all__ = [
    "moore_bound",
    "tutte_bound",
    "moore_polygon_array",
    "CertificationReport",
    "certify",
    "catalog_row",
    "REPORT_SCHEMA_VERSION",
]

REPORT_SCHEMA_VERSION = 1

VERDICT_CERTIFIED = "certified"
VERDICT_FAILED = "failed"
VERDICT_NOT_APPLICABLE = "not-applicable"


def moore_bound(k: int, d: int) -> int:
    """Most vertices a connected k-regular graph of diameter d can have."""
    if k < 2 or d < 1:
        raise ValueError("moore_bound requires k >= 2 and d >= 1")
    return 1 + k * sum((k - 1) ** j for j in range(d))


def tutte_bound(k: int, e: int) -> int:
    """Fewest vertices a k-regular graph of girth 2e+1 can have."""
    if k < 2 or e < 1:
        raise ValueError("tutte_bound requires k >= 2 and e >= 1")
    return moore_bound(k, e)


def moore_polygon_array(k: int, d: int, c: int) -> IntersectionArray:
    """Intersection array (k, k-1, ..., k-1; 1, ..., 1, c) of diameter d.

    c = 1 gives the diameter-d Moore graphs, c = k the bipartite incidence
    graphs of generalized polygons; intermediate c also occur.
    """
    if k < 2 or d < 2:
        raise ValueError("moore_polygon_array requires k >= 2 and d >= 2")
    if not 1 <= c <= k:
        raise ValueError(f"c must lie in 1..k, got {c}")
    return IntersectionArray((k,) + (k - 1,) * (d - 1), (1,) * (d - 1) + (c,))


@dataclass(frozen=True)
class CertificationReport:
    """Everything the certifier measured, plus verdict and reason."""

    v: int
    k: Optional[int]
    girth: Optional[int]
    diam: Optional[int]
    spec: Optional[Spectrum]
    moore: Optional[int]
    tutte: Optional[int]
    is_moore: Optional[bool]
    moore_polygon_c: Optional[int]
    intersection_array: Optional[IntersectionArray]
    certificate: Optional[BoundCertificate]
    attainment: Optional[TightnessReport]
    verdict: str
    reason: Optional[str]

    def to_json_dict(self) -> dict:
        lp = None
        if self.certificate is not None:
            tight = None if self.attainment is None else self.attainment.tight
            lp = self.certificate.to_json_dict() | {"tight": tight}
        dr = None
        if self.intersection_array is not None:
            dr = {"b": list(self.intersection_array.b), "c": list(self.intersection_array.c)}
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "v": self.v,
            "k": self.k,
            "girth": self.girth,
            "diameter": self.diam,
            "d": None if self.spec is None else self.spec.d,
            "spectrum": None
            if self.spec is None
            else [[e, m] for e, m in self.spec.entries],
            "moore_bound": self.moore,
            "tutte_bound": self.tutte,
            "is_moore": self.is_moore,
            "moore_polygon_c": self.moore_polygon_c,
            "distance_regular": dr,
            "lp": lp,
            "verdict": self.verdict,
            "reason": self.reason,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, allow_nan=False)


def _not_applicable(g: Graph, k: Optional[int], girth: Optional[int], reason: str) -> CertificationReport:
    return CertificationReport(
        v=g.n, k=k, girth=girth, diam=None, spec=None,
        moore=None, tutte=None, is_moore=None, moore_polygon_c=None,
        intersection_array=None, certificate=None, attainment=None,
        verdict=VERDICT_NOT_APPLICABLE, reason=reason,
    )


def certify(g: Graph, tol_cluster: Optional[float] = None) -> CertificationReport:
    """Measure a graph and certify it as spectrum-extremal if the theory applies.

    Verdicts: certified (girth >= 2d and the graph attains its certificate's
    bound), failed (the girth condition or a certificate condition fails, or
    the bound is not attained), not-applicable (graph is empty, irregular,
    disconnected, of degree < 2, or its certificate degree 2d - 1 exceeds
    MAX_DEGREE, past which no certificate is built).  Every nonempty graph is
    measured once, by `measure`, and attainment reads that measurement's
    degree and spectrum.
    """
    if g.n == 0:
        return _not_applicable(g, None, None, "empty graph")
    k, girth, diam, array, spec = measure(g, tol_cluster)
    if k is None:
        return _not_applicable(g, None, girth, "graph is not regular")
    if diam is None:
        return _not_applicable(g, k, girth, "graph is not connected")
    if k < 2:
        return _not_applicable(g, k, girth, "degree below 2")
    d = spec.d
    moore = moore_bound(k, d)
    tutte = tutte_bound(k, (girth - 1) // 2) if girth % 2 == 1 else None
    is_moore = g.n == moore
    polygon_c = None
    if array is not None and d >= 2 and girth >= 2 * d:
        c_last = array.c[-1]
        if 1 <= c_last <= k and array == moore_polygon_array(k, d, c_last):
            polygon_c = c_last
    cert = attainment = None
    if 2 * d - 1 <= MAX_DEGREE:
        cert = certificate_from_spectrum(k, spec.nontrivial)
        attainment = check_attainment(g, cert, spec=spec, k=k)
    verdict = VERDICT_CERTIFIED
    reason = None
    if girth < 2 * d:
        verdict, reason = VERDICT_FAILED, f"girth {girth} below 2d = {2 * d}"
    elif cert is None:
        verdict = VERDICT_NOT_APPLICABLE
        reason = f"certificate degree {2 * d - 1} exceeds maximum {MAX_DEGREE}"
    elif not cert.conditions.all_ok():
        verdict, reason = VERDICT_FAILED, "certificate conditions fail"
    elif not attainment.tight:
        verdict, reason = VERDICT_FAILED, "certificate bound not attained"
    elif array is None or diam != d:
        # girth >= 2d - 1 forces distance-regularity of diameter d; reaching
        # this branch would contradict the theory, so surface it loudly.
        verdict, reason = VERDICT_FAILED, "distance-regularity cross-check failed"
    return CertificationReport(
        v=g.n, k=k, girth=girth, diam=diam, spec=spec, moore=moore, tutte=tutte,
        is_moore=is_moore, moore_polygon_c=polygon_c, intersection_array=array,
        certificate=cert, attainment=attainment, verdict=verdict, reason=reason,
    )


def catalog_row(spec: FamilySpec) -> dict:
    """One row of `expanderlp table2`.

    The family is built from scratch and measured once by `certify`; the row
    adds its dual LP bound at u = 2d - 1 to that report's spectrum and
    attainment.
    """
    r = certify(build(spec))
    sol = lp_bound_dual(r.k, r.spec.nontrivial, 2 * r.spec.d - 1)
    return {
        "name": str(spec),
        "v": r.v,
        "k": r.k,
        "girth": r.girth,
        "spectrum": [[e, m] for e, m in r.spec.entries],
        "bound": None if sol.objective is None else float(sol.objective),
        "tight": r.attainment.tight,
    }
