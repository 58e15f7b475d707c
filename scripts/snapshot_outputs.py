#!/usr/bin/env python3
"""Write the CLI's outputs on a fixed set of inputs, one file per invocation.

Usage: snapshot_outputs.py OUTDIR

Every output comes from `expanderlp.cli.main`, so the script runs unchanged
against any checkout that has the same commands.  `diff -r` of two OUTDIRs,
one per checkout, shows every input whose reports changed:

    PYTHONPATH=<checkout A>/src python3 scripts/snapshot_outputs.py /tmp/a
    PYTHONPATH=<checkout B>/src python3 scripts/snapshot_outputs.py /tmp/b
    diff -r /tmp/a /tmp/b

Covered: `generate` on the catalog families and on `pg2:5`, `kneser:9,4`
and `kneser:11,5`, which pin the builders' vertex numbering; `certify`
(JSON and --text) and `analyze` (JSON and text) on those families and a few
extra graphs;
`certify` and `analyze` JSON on `cycle:65` and `cycle:512`, whose level
sweeps cross a 64-bit word and run 256 levels deep;
`table2` (JSON and text); `bound` (JSON, and text for each --method) on the
Petersen and Hoffman-Singleton eigenvalue sets, a set with mixed
denominators and a d = 8 set on denominator 1009, exact and float; and edge
cases: a missing file, five malformed graph6 words, --degree 0, a zero
denominator, a non-finite eigenvalue, float data past float64's range (in
the LP and in a certificate's bound), exact results past it, a clustered
float set, a clustered exact set whose LP the Fraction tableau solves, the
d = 16 set on denominator 1009, a family past the graph6 writer's cap, and
`certify` and `analyze` with a negative clustering tolerance, and `analyze`
JSON on `pg2:8` at a clustering tolerance too wide for its trace girth.
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
# JSON reports only: the level sweep crosses a 64-bit word at 65 vertices and
# runs 256 levels deep at 512
DEEP_FAMILIES = ("cycle:65", "cycle:512")
# generate only: further orders of the array-built plane and Kneser graphs
GENERATE_ONLY = ("pg2:5", "kneser:9,4", "kneser:11,5")
RANDOM_CUBIC = ((64, 7), (512, 1))  # (vertices, generator seed)

# certify on each: the parser's error and its byte offset
MALFORMED_WORDS = {
    "byte-out-of-range": "D~\x7f",
    "nonzero-padding": "A~",
    "trailing-garbage": "D~{A",
    "truncated-size-field": "~~A",
    "truncated-adjacency": "D~",
}

BOUNDS = {
    "petersen-exact": ("3", "1,-2"),
    "petersen-float": ("3", "1.0,-2.0"),
    "hoffman_singleton-exact": ("7", "2,-3"),
    "hoffman_singleton-float": ("7", "2.0,-3.0"),
    # mixed denominators 3, 5 and 7
    "mixed_denominators-exact": ("3", "1/3,-7/5,2/7"),
    "mixed_denominators-float": ("3", "0.3333333333333333,-1.4,0.2857142857142857"),
    # zeros of the ball polynomial B_8 at k = 4, rounded to multiples of 1/1009
    "ball8_1009-exact": ("4", "3267/1009,2611/1009,1617/1009,418/1009,-826/1009,-1950/1009,-2814/1009,-3331/1009"),
    "ball8_1009-float": (
        "4",
        "3.2378592666005948,2.587710604558969,1.6025768087215064,0.41427155599603566,"
        "-0.8186323092170465,-1.9326065411298314,-2.7888999008919724,-3.3012884043607533",
    ),
}

MISSING_FILE = "no-such-dir/missing.g6"

EDGE_CASES = {
    "certify-missing-file": ["certify", MISSING_FILE],
    "analyze-missing-file": ["analyze", MISSING_FILE],
    "bound-degree-0": ["bound", "--k", "3", "--eigenvalues", "1,-2", "--degree", "0"],
    "bound-zero-denominator": ["bound", "--k", "3", "--eigenvalues", "1/0"],
    "bound-minus-inf": ["bound", "--k", "3", "--eigenvalues=-inf,1"],
    # sphere values past float64's range: S_3(-1e200), and S_64(10**6) at k
    "bound-float-overflow-eigenvalue": ["bound", "--k", "3", "--eigenvalues=-1e200,1", "--degree", "3"],
    # exact data whose certificate coefficients (about 1e399) cannot print as floats
    "bound-exact-overflow": ["bound", "--k", "3", "--eigenvalues=-1" + "0" * 200 + "/3,1"],
    "bound-float-overflow-degree": [
        "bound", "--k", "1000000", "--eigenvalues=0.5", "--degree", "64", "--method", "lp",
    ],
    # a subnormal tau: the certificate S_1 + |tau| has the bound 2/|tau|, past float64's range
    "bound-float-overflow-certificate": [
        "bound", "--k", "2", "--eigenvalues=-2.225073858507203e-309", "--method", "certificate",
    ],
    # floats of eigenvalues 1e-12..1e-4 apart, at the float tableau's tolerances
    "bound-clustered-floats": [
        "bound", "--k", "5", "--eigenvalues=-0.0999999999218,-0.1000000000814,-0.099999971,-0.099825",
        "--degree", "7", "--json",
    ],
    # exact eigenvalues 1e-8..1e-12 apart: the proof rejects the float tableau's
    # basis, and the Fraction tableau solves the dual LP
    "bound-clustered-exact": [
        "bound", "--k", "4",
        "--eigenvalues=-650000101/250000000,-260000000000723/100000000000000,-3249999999903/1250000000000",
        "--degree", "7", "--json",
    ],
    # zeros of B_16 at k = 4 on denominator 1009: the largest exact proof of the lp_sweep benchmark
    "bound-json-ball16_1009-exact": [
        "bound", "--k", "4",
        "--eigenvalues=3433/1009,3249/1009,2949/1009,2545/1009,2051/1009,1484/1009,866/1009,218/1009,"
        "-436/1009,-1072/1009,-1669/1009,-2206/1009,-2663/1009,-3,-3288/1009,-3444/1009",
        "--json",
    ],
    # C(26, 13) = 10400600 vertices, past the writer's cap
    "generate-past-write-cap": ["generate", "kneser:26,13"],
}


def slug(name: str) -> str:
    return re.sub(r"[^\w.-]", "_", name)


def text_stream() -> io.TextIOWrapper:
    """A captured stdout that, like the real one, takes bytes on its .buffer."""
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)


def captured(stream: io.TextIOWrapper) -> str:
    return stream.buffer.getvalue().decode("utf-8")


def run(argv: list) -> str:
    """Exit code, stdout and stderr of one CLI invocation, as one text."""
    out, err = text_stream(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except Exception as exc:  # an uncaught error is an output too
            code = f"raised {type(exc).__name__}: {exc}"
    return f"exit: {code}\n--- stdout\n{captured(out)}--- stderr\n{err.getvalue()}"


def extra_graphs() -> dict:
    """Inputs outside the family names: the empty graph, prism, path, two
    triangles, two 300-cycles, random cubic.

    The 512-vertex random cubic graph sits at the spectral cap and needs the
    4-byte graph6 size field; the 600-vertex pair of cycles, disconnected,
    lies past it.
    """
    triangle = [(0, 1), (1, 2), (0, 2)]
    return {
        "empty": Graph.from_edges(0, []),
        "prism": Graph.from_edges(6, triangle + [(3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
        "path:5": Graph.from_edges(5, [(i, i + 1) for i in range(4)]),
        "two_triangles": Graph.from_edges(6, triangle + [(3, 4), (4, 5), (3, 5)]),
        "two_cycles:300": Graph.from_edges(600, [(c + i, c + (i + 1) % 300) for c in (0, 300) for i in range(300)]),
    } | {
        f"random_cubic:{n},{seed}": random_regular_graph(n, 3, random.Random(seed))
        for n, seed in RANDOM_CUBIC
    }


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(sys.argv[1])
    outdir.mkdir(parents=True, exist_ok=True)

    def write(name: str, argv: list) -> None:
        (outdir / f"{slug(name)}.txt").write_text(run(argv))

    for family in [str(spec) for spec in TABLE_SPECS] + list(GENERATE_ONLY):
        write(f"generate-{family}", ["generate", family])
    def generated(family: str) -> str:
        out = text_stream()
        with contextlib.redirect_stdout(out):
            if cli_main(["generate", family]) != 0:
                raise SystemExit(f"generate {family} failed")
        return captured(out)

    inputs = {family: generated(family) for family in [str(spec) for spec in TABLE_SPECS] + list(EXTRA_FAMILIES)}
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
    for family in DEEP_FAMILIES:
        path = graphs / f"{slug(family)}.g6"
        path.write_text(generated(family))
        write(f"certify-json-{family}", ["certify", str(path)])
        write(f"analyze-json-{family}", ["analyze", "--json", str(path)])
    for name, word in MALFORMED_WORDS.items():
        path = graphs / f"malformed-{name}.g6"
        path.write_text(word + "\n")
        write(f"certify-malformed-{name}", ["certify", str(path)])
    write("table2-json", ["table2", "--json"])
    write("table2-text", ["table2"])
    for name, (k, eigenvalues) in BOUNDS.items():
        argv = ["bound", "--k", k, "--eigenvalues", eigenvalues]
        write(f"bound-json-{name}", argv + ["--json"])
        for method in ("lp", "certificate", "both"):
            write(f"bound-text-{method}-{name}", argv + ["--method", method])
    for name, argv in EDGE_CASES.items():
        write(name, argv)
    for command in ("certify", "analyze"):
        write(f"{command}-negative-tol-cluster", [command, "--tol-cluster", "-1", str(graphs / "petersen.g6")])
    # tol 6.0 merges +-2*sqrt(2) into 0^144: the traces cannot decide the girth
    write(
        "analyze-json-wide-tol-cluster-pg2:8",
        ["analyze", "--json", "--tol-cluster", "6.0", str(graphs / "pg2_8.g6")],
    )
    print(f"wrote {len(list(outdir.glob('*.txt')))} outputs to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
