#!/usr/bin/env python3
"""Write the CLI's outputs on a fixed set of inputs, one file per invocation.

Usage: snapshot_outputs.py OUTDIR

Every output comes from `expanderlp.cli.main`, so the script runs unchanged
against any checkout that has the same commands.  `diff -r` of two OUTDIRs,
one per checkout, shows every input whose reports changed:

    PYTHONPATH=<checkout A>/src python3 scripts/snapshot_outputs.py /tmp/a
    PYTHONPATH=<checkout B>/src python3 scripts/snapshot_outputs.py /tmp/b
    diff -r /tmp/a /tmp/b

Covered: `generate` on the catalog families; `certify` (JSON and --text)
and `analyze` (JSON and text) on those families and a few extra graphs;
`table2` (JSON and text); `bound` (JSON, and text for each --method) on the
Petersen and Hoffman-Singleton eigenvalue sets, exact and float; and edge
cases: a missing file, --degree 0, a zero denominator, a non-finite
eigenvalue and a clustered float set.
"""

import contextlib
import io
import random
import re
import sys
from pathlib import Path

from expanderlp import TABLE_SPECS, Graph, write_graph6
from expanderlp.cli import main as cli_main
from expanderlp.enumeration import random_regular_graph

EXTRA_FAMILIES = ("cycle:18", "cycle:30", "cycle:66", "pg2:7", "pg2:8")
RANDOM_CUBIC_SEED = 7

BOUNDS = {
    "petersen-exact": ("3", "1,-2"),
    "petersen-float": ("3", "1.0,-2.0"),
    "hoffman_singleton-exact": ("7", "2,-3"),
    "hoffman_singleton-float": ("7", "2.0,-3.0"),
}

MISSING_FILE = "no-such-dir/missing.g6"

EDGE_CASES = {
    "certify-missing-file": ["certify", MISSING_FILE],
    "analyze-missing-file": ["analyze", MISSING_FILE],
    "bound-degree-0": ["bound", "--k", "3", "--eigenvalues", "1,-2", "--degree", "0"],
    "bound-zero-denominator": ["bound", "--k", "3", "--eigenvalues", "1/0"],
    "bound-minus-inf": ["bound", "--k", "3", "--eigenvalues=-inf,1"],
    # floats of eigenvalues 1e-12..1e-4 apart, at the float tableau's tolerances
    "bound-clustered-floats": [
        "bound", "--k", "5", "--eigenvalues=-0.0999999999218,-0.1000000000814,-0.099999971,-0.099825",
        "--degree", "7", "--json",
    ],
}


def slug(name: str) -> str:
    return re.sub(r"[^\w.-]", "_", name)


def run(argv: list) -> str:
    """Exit code, stdout and stderr of one CLI invocation, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except Exception as exc:  # an uncaught error is an output too
            code = f"raised {type(exc).__name__}: {exc}"
    return f"exit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def extra_graphs() -> dict:
    """Inputs outside the family names: prism, path, two triangles, random cubic."""
    triangle = [(0, 1), (1, 2), (0, 2)]
    return {
        "prism": Graph.from_edges(6, triangle + [(3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
        "path:5": Graph.from_edges(5, [(i, i + 1) for i in range(4)]),
        "two_triangles": Graph.from_edges(6, triangle + [(3, 4), (4, 5), (3, 5)]),
        f"random_cubic:64,{RANDOM_CUBIC_SEED}": random_regular_graph(
            64, 3, random.Random(RANDOM_CUBIC_SEED)
        ),
    }


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(sys.argv[1])
    outdir.mkdir(parents=True, exist_ok=True)

    def write(name: str, argv: list) -> None:
        (outdir / f"{slug(name)}.txt").write_text(run(argv))

    for spec in TABLE_SPECS:
        write(f"generate-{spec}", ["generate", str(spec)])
    inputs = {}
    for family in [str(spec) for spec in TABLE_SPECS] + list(EXTRA_FAMILIES):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if cli_main(["generate", family]) != 0:
                raise SystemExit(f"generate {family} failed")
        inputs[family] = out.getvalue()
    for name, g in extra_graphs().items():
        inputs[name] = write_graph6(g).decode("ascii") + "\n"

    graphs = outdir / "graphs"
    graphs.mkdir(exist_ok=True)
    for name, word in inputs.items():
        path = graphs / f"{slug(name)}.g6"
        path.write_text(word)
        write(f"certify-json-{name}", ["certify", str(path)])
        write(f"certify-text-{name}", ["certify", "--text", str(path)])
        write(f"analyze-json-{name}", ["analyze", "--json", str(path)])
        write(f"analyze-text-{name}", ["analyze", str(path)])
    write("table2-json", ["table2", "--json"])
    write("table2-text", ["table2"])
    for name, (k, eigenvalues) in BOUNDS.items():
        argv = ["bound", "--k", k, "--eigenvalues", eigenvalues]
        write(f"bound-json-{name}", argv + ["--json"])
        for method in ("lp", "certificate", "both"):
            write(f"bound-text-{method}-{name}", argv + ["--method", method])
    for name, argv in EDGE_CASES.items():
        write(name, argv)
    print(f"wrote {len(list(outdir.glob('*.txt')))} outputs to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
