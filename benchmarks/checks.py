"""Checks of expanderlp's outputs against facts from outside its own computation.

Every check raises CheckFailed with a reason.  The facts are closed forms
(orders, degrees and girths of the families, Moore counts), identities every
adjacency spectrum satisfies, LP strong duality, agreement between exact
and float arithmetic, invariance under relabelling, and the benchmark's
own graph code in inputs.py.  No check compares against a saved copy of an
earlier output.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Optional

import inputs

SPECTRUM_RTOL = 1e-6  # trace identities, relative to v*k
BOUND_RTOL = 1e-6  # certificate and table2 bounds against the order v
DUALITY_RTOL = 1e-9  # dual optimum against lp_bound_primal in the same arithmetic
EXACT_FLOAT_RTOL = 1e-6  # exact-token bound against the float-token bound


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Facts:
    """Order, degree, girth, number of nontrivial eigenvalues and bipartiteness."""

    v: int
    k: int
    girth: int
    d: int
    bipartite: bool


def family_facts(name: str) -> Facts:
    """Closed forms for the family names of `expanderlp generate`, plus W:q."""
    family, _, rest = name.partition(":")
    p = [int(x) for x in rest.split(",")] if rest else []
    if family == "cycle":
        return Facts(p[0], 2, p[0], p[0] // 2, p[0] % 2 == 0)
    if family == "complete":
        return Facts(p[0], p[0] - 1, 3, 1, False)
    if family == "complete_bipartite":
        return Facts(2 * p[0], p[0], 4, 2, True)
    if family == "pg2":
        q = p[0]
        return Facts(2 * (q * q + q + 1), q + 1, 6, 3, True)
    if family in ("gq", "W"):
        # generalised quadrangle of order (q, q): W(q), and gq:2 = W(2)
        q = p[0]
        return Facts(2 * (q + 1) * (q * q + 1), q + 1, 8, 4, True)
    if family == "petersen":
        return family_facts("kneser:5,2")
    if family == "hoffman_singleton":
        return Facts(50, 7, 5, 2, False)
    if family == "clebsch":
        return Facts(16, 5, 4, 2, False)
    if family == "kneser" and p[0] == 2 * p[1] + 1:
        # odd graph O_{t+1}: girth 3, 5, 6 for t = 1, 2, >= 3; diameter t
        n, t = p
        girth = {1: 3, 2: 5}.get(t, 6)
        return Facts(math.comb(n, t), math.comb(n - t, t), girth, t, False)
    raise ValueError(f"no closed form for {name!r}")


def moore_bound(k: int, d: int) -> int:
    return 1 + k * sum((k - 1) ** j for j in range(d))


def moore_count(f: Facts) -> Optional[int]:
    """Order forced by girth: Moore graphs (girth 2d+1), generalised polygons (bipartite, girth 2d)."""
    if f.girth >= 2 * f.d + 1:
        return moore_bound(f.k, f.d)
    if f.bipartite and f.girth >= 2 * f.d:
        return 2 * sum((f.k - 1) ** j for j in range(f.d))
    return None


def check_spectrum(entries, v: int, k: int) -> None:
    """Multiplicities sum to v, trace A = 0, trace A^2 = v*k, top eigenvalue k simple."""
    require(all(isinstance(m, int) and m >= 1 for _, m in entries), f"bad multiplicities {entries}")
    require(sum(m for _, m in entries) == v, f"multiplicities sum to {sum(m for _, m in entries)}, not v = {v}")
    scale = SPECTRUM_RTOL * v * k
    tr1 = sum(m * e for e, m in entries)
    tr2 = sum(m * e * e for e, m in entries)
    require(abs(tr1) <= scale, f"sum of m*lambda is {tr1}, not 0")
    require(abs(tr2 - v * k) <= scale, f"sum of m*lambda^2 is {tr2}, not v*k = {v * k}")
    require(entries[0][0] == k and entries[0][1] == 1, f"top eigenvalue {entries[0]} is not ({k}, 1)")


def check_measurements(doc: dict, f: Facts) -> None:
    """What certify measured agrees with the closed forms, whatever its verdict."""
    for key, want in (("v", f.v), ("k", f.k), ("girth", f.girth), ("d", f.d)):
        require(doc[key] == want, f"{key} = {doc[key]}, closed form gives {want}")
    check_spectrum(doc["spectrum"], f.v, f.k)
    require(doc["moore_bound"] == moore_bound(f.k, f.d), f"moore_bound {doc['moore_bound']}")


def check_certified(doc: dict, f: Facts) -> None:
    """Verdict certified with bound v, owed to every graph with girth >= 2d."""
    require(doc["verdict"] == "certified", f"verdict {doc['verdict']!r} ({doc['reason']}) on girth {f.girth} >= 2d")
    lp = doc["lp"]
    require(lp is not None and lp["bound"] is not None, "no certificate bound")
    require(abs(lp["bound"] - f.v) <= BOUND_RTOL * f.v, f"bound {lp['bound']} != v = {f.v}")
    require(lp["tight"] is True, "certificate not tight")
    require(doc["diameter"] == f.d, f"diameter {doc['diameter']} != d = {f.d}")
    count = moore_count(f)
    require(count is None or count == f.v, f"Moore count {count} != v = {f.v}")


def invariants(doc: dict) -> tuple:
    """What must not change when the vertices are relabelled."""
    spec = doc["spectrum"]
    return (doc["verdict"], doc["girth"], doc["diameter"], doc["d"], None if spec is None else [m for _, m in spec])


def check_invariant(reference: tuple, doc: dict) -> None:
    require(invariants(doc) == reference, f"relabelling changed {reference} to {invariants(doc)}")


def check_table2(rows: list, names: list) -> None:
    require([r["name"] for r in rows] == names, f"table2 rows {[r['name'] for r in rows]}")
    for row in rows:
        f = family_facts(row["name"])
        for key, want in (("v", f.v), ("k", f.k), ("girth", f.girth)):
            require(row[key] == want, f"table2 {row['name']}: {key} = {row[key]}, closed form {want}")
        require(len(row["spectrum"]) == f.d + 1, f"table2 {row['name']}: d = {len(row['spectrum']) - 1}")
        check_spectrum(row["spectrum"], f.v, f.k)
        require(row["bound"] is not None and abs(row["bound"] - f.v) <= BOUND_RTOL * f.v,
                f"table2 {row['name']}: bound {row['bound']} != v = {f.v}")
        require(row["tight"] is True, f"table2 {row['name']}: not tight")


_DEGREE_ERROR = re.compile(r"certificate degree (\d+) exceeds maximum (\d+)")


def check_not_certifiable(code: int, out: str, err: str, v: int, girth: int) -> bool:
    """A connected random cubic graph with girth < 2d is owed verdict failed.

    Returns True when the program raised instead (exit 1, certificate degree
    beyond its maximum): the known fault.  girth is measured by the
    benchmark's own BFS.
    """
    if code == 1:
        m = _DEGREE_ERROR.search(err)
        require(m is not None, f"exit 1 with unexpected error {err.strip()!r}")
        d = (int(m.group(1)) + 1) // 2
        require(girth < 2 * d, f"girth {girth} >= 2d = {2 * d}: a verdict other than failed is owed")
        return True
    require(code == 0, f"exit {code}: {err.strip()}")
    doc = json.loads(out)
    require(doc["v"] == v and doc["girth"] == girth, f"v {doc['v']}, girth {doc['girth']}; own BFS {v}, {girth}")
    check_spectrum(doc["spectrum"], doc["v"], doc["k"])
    require(girth < 2 * doc["d"], f"girth {girth} >= 2d = {2 * doc['d']}")
    require(doc["verdict"] == "failed", f"verdict {doc['verdict']!r} for girth {girth} < 2d = {2 * doc['d']}")
    return False


def check_bound(doc: dict, primal: float, rtol: float, order: Optional[int] = None) -> float:
    """bound --json: dual optimum equals the primal optimum; certificate bound >= LP bound."""
    lp = doc["lp"]
    require(lp["status"] == "optimal" and lp["bound"] is not None, f"lp status {lp['status']}")
    bound = lp["bound"]
    require(abs(bound - primal) <= rtol * abs(primal), f"dual {bound} != primal {primal}")
    cert = doc["certificate"]["bound"]
    require(cert is None or cert >= bound * (1 - rtol), f"certificate bound {cert} below LP bound {bound}")
    if order is not None:
        require(abs(bound - order) <= BOUND_RTOL * order, f"LP bound {bound} != order {order}")
    return bound


def check_exact_float(exact: float, floating: float) -> None:
    require(abs(exact - floating) <= EXACT_FLOAT_RTOL * abs(exact), f"exact {exact} vs float {floating}")


_SCAN_FIELDS = {
    "count": re.compile(r"^graphs scanned: (\d+)$", re.M),
    "lambda2": re.compile(r"^minimum lambda_2: (\S+)$", re.M),
    "graph6": re.compile(r"^winner graph6: (\S+)$", re.M),
    "verdict": re.compile(r"^winner verdict: (\S+)$", re.M),
}


def check_scan(code: int, out: str) -> int:
    """Cubic-10 scan: min lambda_2 = 1, attained by a certified cubic graph of girth 5.

    The (3,5)-cage is unique, so the winner is the Petersen graph.  Returns
    the number of graphs scanned, which is reported but not gated.
    """
    found = {key: rx.search(out) for key, rx in _SCAN_FIELDS.items()}
    require(all(found.values()), f"scan output lacks {[k for k, v in found.items() if v is None]}")
    require(code == 0, f"scan exit code {code}")
    require(abs(float(found["lambda2"].group(1)) - 1.0) <= 1e-9, f"min lambda_2 {found['lambda2'].group(1)}")
    n, adj = inputs.graph6_decode(found["graph6"].group(1))
    require(n == 10 and all(len(s) == 3 for s in adj), "winner is not a cubic graph on 10 vertices")
    require(inputs.girth(adj) == 5, f"winner girth {inputs.girth(adj)}")
    require(found["verdict"].group(1) == "certified", f"winner verdict {found['verdict'].group(1)}")
    return int(found["count"].group(1))
