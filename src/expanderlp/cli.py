"""Command-line interface: analyze, bound, certify, generate, table2.

Each subcommand's parser stores its handler as `run`; `main` calls it with
the parsed namespace and turns parse, size-cap and value errors into
`error: ...` on stderr with exit codes 2, 3 and 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import families
from .certify import catalog_row, certify as run_certify
from .graphcore import (
    GRAPH6_WRITE_CAP,
    Graph,
    Graph6Error,
    SizeCapError,
    _graph6_word,
    _level_sweep,
    parse_graph6,
    regularity,
)
from .lpbound import certificate_from_spectrum, lp_bound_dual
from .spectral import _check_cap, girth_spectral, spectrum

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_INVALID_CERT = 4


def _read_graph(path: str) -> Graph:
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    for line in data.splitlines():
        line = line.strip()
        if line:
            return parse_graph6(line)
    raise Graph6Error("no graph6 word in input", 0)


def _parse_eigenvalues(text: str) -> tuple:
    """Comma-separated reals; integers and a/b ratios stay exact."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise ValueError("empty eigenvalue entry")
        try:
            out.append(int(tok))
            continue
        except ValueError:
            pass
        if "/" in tok:
            try:
                out.append(Fraction(tok))
            except ZeroDivisionError:
                raise ValueError(f"eigenvalue {tok} has a zero denominator") from None
            continue
        out.append(float(tok))
    return tuple(out)


def _fmt_eig(e: float) -> str:
    if abs(e - round(e)) < 1e-9:
        return str(int(round(e)))
    return f"{e:.6f}"


def _fmt_spectrum(entries) -> str:
    parts = []
    for e, m in entries:
        s = _fmt_eig(e)
        if s.startswith("-"):
            s = f"({s})"
        parts.append(s if m == 1 else f"{s}^{m}")
    return ", ".join(parts)


def cmd_analyze(ns: argparse.Namespace) -> int:
    g = _read_graph(ns.path)
    k = regularity(g)
    # a graph past the size cap fails before the O(n^2) sweep
    _check_cap(g)
    dist, girth, array = _level_sweep(g)
    spec = spectrum(g, ns.tol_cluster, array) if g.n else None
    connected = bool((dist >= 0).all())
    theory = k is not None and connected and k >= 2
    info: dict = {
        "v": g.n,
        "edges": g.edge_count(),
        "k": k,
        "connected": connected,
        "girth": girth,
        "diameter": int(dist.max()) if connected and g.n else None,
        "spectrum": None if spec is None else [[e, m] for e, m in spec.entries],
        "d": None if spec is None else spec.d,
        "girth_trace": girth_spectral(g) if theory else None,
        "spectral_gap": float(k - spec.entries[1][0]) if theory else None,
        "distance_regular": None
        if array is None or not theory
        else {"b": list(array.b), "c": list(array.c)},
    }
    if ns.json:
        print(json.dumps(info, indent=2, allow_nan=False))
        return EXIT_OK
    print(f"vertices: {info['v']}")
    print(f"edges: {info['edges']}")
    print(f"regular: {'no' if k is None else f'k = {k}'}")
    print(f"connected: {'yes' if connected else 'no'}")
    print(f"girth: {info['girth'] if info['girth'] is not None else 'none (acyclic)'}")
    if info["girth_trace"] is not None:
        print(f"girth via traces: {info['girth_trace']}")
    if info["diameter"] is not None:
        print(f"diameter: {info['diameter']}")
    if spec is not None:
        print(f"spectrum: {_fmt_spectrum(spec.entries)}")
    if info["spectral_gap"] is not None:
        print(f"spectral gap: {_fmt_eig(info['spectral_gap'])}")
    if info["distance_regular"] is not None:
        print(
            f"distance-regular: b={info['distance_regular']['b']} c={info['distance_regular']['c']}"
        )
    return EXIT_OK


def _bound_report(ns: argparse.Namespace, eigenvalues: tuple, cert, sol) -> dict:
    out: dict = {"k": ns.k, "eigenvalues": [float(t) for t in eigenvalues], "method": ns.method}
    if cert is not None:
        out["certificate"] = cert.to_json_dict()
    if sol is not None:
        out["lp"] = {
            "status": sol.status,
            "bound": None if sol.objective is None else float(sol.objective),
            "f_coeffs": [float(x) for x in sol.variables],
        }
    return out


def cmd_bound(ns: argparse.Namespace) -> int:
    eigenvalues = _parse_eigenvalues(ns.eigenvalues)
    cert = sol = None
    if ns.method in ("certificate", "both"):
        cert = certificate_from_spectrum(ns.k, eigenvalues)
    if ns.method in ("lp", "both"):
        sol = lp_bound_dual(ns.k, eigenvalues, ns.degree)
    try:
        out = _bound_report(ns, eigenvalues, cert, sol)
    except OverflowError:
        # exact eigenvalues, coefficients, slacks or bounds print as floats
        raise ValueError("an exact result exceeds float64's range and cannot be printed") from None
    if ns.json:
        print(json.dumps(out, indent=2, allow_nan=False))
    else:
        if "certificate" in out:
            shown = out["certificate"]
            print(f"certificate bound: {shown['bound'] if shown['bound'] is not None else 'invalid'}")
            print(f"certificate coefficients: {shown['f_coeffs']}")
            for name, rep in shown["conditions"].items():
                state = "ok" if rep["ok"] else "VIOLATED"
                print(f"  {name}: {state} (slack {rep['slack']:.6g})")
        if "lp" in out:
            lp = out["lp"]
            if lp["status"] == "optimal":
                print(f"lp bound (degree <= {ns.degree or 'default'}): {lp['bound']:.9g}")
            else:
                print(f"lp: {lp['status']} (no finite bound at this degree)")
    if ns.method == "certificate" and cert.bound is None:
        return EXIT_INVALID_CERT
    return EXIT_OK


def cmd_certify(ns: argparse.Namespace) -> int:
    g = _read_graph(ns.path)
    report = run_certify(g, tol_cluster=ns.tol_cluster)
    if not ns.text:
        print(report.to_json())
    else:
        doc = report.to_json_dict()
        for key in ("v", "k", "girth", "diameter", "d", "moore_bound", "tutte_bound"):
            print(f"{key}: {doc[key]}")
        if report.spec is not None:
            print(f"spectrum: {_fmt_spectrum(report.spec.entries)}")
        if doc["lp"] is not None:
            print(f"lp bound: {doc['lp']['bound']}")
            print(f"tight: {doc['lp']['tight']}")
        print(f"verdict: {doc['verdict']}")
        if doc["reason"]:
            print(f"reason: {doc['reason']}")
    return EXIT_OK


def cmd_generate(ns: argparse.Namespace) -> int:
    spec = families.parse_family(ns.family)
    # the writer's cap, checked before a build whose graph the writer would reject
    n = families._order(spec)
    if n > GRAPH6_WRITE_CAP:
        raise SizeCapError(f"graph6 writer capped at {GRAPH6_WRITE_CAP} vertices, {spec} has {n}")
    g = families.build(spec)
    # the word's array straight to the binary stream: two writes, so a word
    # near the cap is neither copied to bytes, nor decoded, nor copied to
    # append the newline
    sys.stdout.flush()
    sys.stdout.buffer.write(_graph6_word(g))
    sys.stdout.buffer.write(b"\n")
    return EXIT_OK


def cmd_table2(ns: argparse.Namespace) -> int:
    rows = [catalog_row(spec) for spec in families.TABLE_SPECS]
    if ns.json:
        print(json.dumps(rows, allow_nan=False))
    else:
        print(f"{'family':>20} {'v':>4} {'k':>2} {'girth':>5} {'bound':>10} {'tight':>5}  spectrum")
        for row in rows:
            bound = "-" if row["bound"] is None else f"{row['bound']:.4f}"
            print(
                f"{row['name']:>20} {row['v']:>4} {row['k']:>2} {row['girth']:>5} "
                f"{bound:>10} {'yes' if row['tight'] else 'NO':>5}  {_fmt_spectrum(row['spectrum'])}"
            )
    loose = [row["name"] for row in rows if not row["tight"]]
    if loose:
        print(f"error: bound not attained by {', '.join(loose)}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expanderlp",
        description="Bounds and certificates for regular graphs with prescribed eigenvalues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="metrics and spectrum of a graph6 input")
    p.add_argument("path", nargs="?", default="-", help="graph6 file or - for stdin")
    p.add_argument("--json", action="store_true")
    p.add_argument("--tol-cluster", type=float, default=None)
    p.set_defaults(run=cmd_analyze)

    p = sub.add_parser("bound", help="order bound for a degree and eigenvalue set")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eigenvalues", required=True, help="comma-separated, below k")
    p.add_argument("--degree", type=int, default=None, help="largest coefficient index")
    p.add_argument("--method", choices=("certificate", "lp", "both"), default="both")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_bound)

    p = sub.add_parser("certify", help="certify a graph6 input as spectrum-extremal")
    p.add_argument("path", nargs="?", default="-")
    p.add_argument("--text", action="store_true", help="human summary instead of JSON")
    p.add_argument("--tol-cluster", type=float, default=None)
    p.set_defaults(run=cmd_certify)

    p = sub.add_parser("generate", help="emit a named family member as graph6")
    p.add_argument("family", help="e.g. cycle:5, pg2:3, gq:2, kneser:7,3, petersen")
    p.set_defaults(run=cmd_generate)

    p = sub.add_parser("table2", help="catalog of bundled certified families")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_table2)
    return parser


PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = PARSER.parse_args(argv)
    try:
        return ns.run(ns)
    except Graph6Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
