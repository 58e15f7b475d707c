"""The four workloads: inputs, set-up, one pass of operations, and the checks.

Every operation goes through a public entry point of the program:
`expanderlp.cli.main([...])` with stdout and stderr captured, or
`scripts/scan_cubic10.py` executed in this process.  A pass is a fixed list
of operations; each check returns True for a known fault (the operation
failed as that fault predicts) and raises CheckFailed for anything else that
is wrong.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import checks
import inputs
from checks import require

ROOT = Path(__file__).resolve().parent.parent
SCAN_SCRIPT = ROOT / "scripts" / "scan_cubic10.py"


class Outcome(NamedTuple):
    code: int
    out: str
    err: str


@dataclass
class Op:
    key: str
    call: Callable[[], Outcome]
    check: Callable[[Outcome], bool]


def run_cli(cli, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return Outcome(code, out.getvalue(), err.getvalue())


def load_json(o: Outcome):
    require(o.code == 0, f"exit {o.code}: {o.err.strip()}")
    return json.loads(o.out)


class Workload:
    """prepare() runs once, untimed; setup() is the timed set-up after import."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir

    def prepare(self) -> None:
        pass

    def setup(self, modules: dict) -> None:
        raise NotImplementedError

    def operations(self) -> list[Op]:
        raise NotImplementedError

    def summary(self) -> dict:
        return {}


class GraphWorkload(Workload):
    """certify on graph6 files; every pass relabels each input by a fresh permutation.

    Inputs named in FIXED keep the labelling set-up gave them, because the
    outcome of their known fault depends on the labelling.
    """

    FIXED: frozenset = frozenset()

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.base: dict[str, tuple[int, list]] = {}
        self.files: dict[str, Path] = {}
        self.reference: dict[str, tuple] = {}

    def add_input(self, modules: dict, name: str, g) -> None:
        """A program-built graph becomes an input: its graph6 file, written by the program."""
        path = self.workdir / f"{name.replace(':', '_').replace(',', '_')}.g6"
        path.write_bytes(modules["expanderlp.graphcore"].write_graph6(g) + b"\n")
        self.files[name] = path
        self.base[name] = (g.n, list(g.edges()))

    def input_path(self, name: str) -> Path:
        if name in self.FIXED:
            return self.files[name]
        n, edges = self.base[name]
        path = self.files[name].with_suffix(".pass.g6")
        path.write_bytes(inputs.graph6_encode(n, inputs.relabel(n, edges, self.rng)) + b"\n")
        return path

    def certify_op(self, name: str, check: Callable[[Outcome], bool]) -> Op:
        path = self.input_path(name)
        return Op(f"certify {name}", lambda: run_cli(self.cli, ["certify", str(path)]), check)

    def same_as_before(self, name: str, doc: dict) -> None:
        ref = self.reference.setdefault(name, checks.invariants(doc))
        checks.check_invariant(ref, doc)

    def check_certified(self, name: str, o: Outcome, known_fault: bool = False) -> bool:
        doc = load_json(o)
        facts = checks.family_facts(name)
        checks.check_measurements(doc, facts)
        self.same_as_before(name, doc)
        if known_fault and doc["verdict"] == "failed":
            return True
        checks.check_certified(doc, facts)
        return False


class Catalog(GraphWorkload):
    """certify on every TABLE_SPECS family and two long cycles, plus one table2 --json."""

    NAMES = (
        "cycle:5", "cycle:7", "complete:4", "complete_bipartite:3", "pg2:2", "pg2:3", "pg2:4",
        "gq:2", "petersen", "hoffman_singleton", "kneser:7,3", "clebsch",
    )
    # Known fault: girth n >= 2d, yet verdict failed (float certificate misses
    # the absolute slack 1e-9).  Whether it shows depends on the labelling.
    FAULTS = ("cycle:18", "cycle:30")
    FIXED = frozenset(FAULTS)

    def setup(self, modules: dict) -> None:
        families = modules["expanderlp.families"]
        self.cli = modules["expanderlp.cli"]
        for name in self.NAMES + self.FAULTS:
            self.add_input(modules, name, families.build(families.parse_family(name)))

    def operations(self) -> list[Op]:
        ops = [self.certify_op(n, lambda o, n=n: self.check_certified(n, o)) for n in self.NAMES]
        ops += [self.certify_op(n, lambda o, n=n: self.check_certified(n, o, True)) for n in self.FAULTS]
        ops.append(Op("table2 --json", lambda: run_cli(self.cli, ["table2", "--json"]), self.check_table2))
        return ops

    def check_table2(self, o: Outcome) -> bool:
        checks.check_table2(load_json(o), list(self.NAMES))
        return False


class NearCap(GraphWorkload):
    """certify on graphs of 80 to 512 vertices, where the graph layers dominate."""

    FAMILIES = ("pg2:7", "pg2:8")
    QUADRANGLES = (3, 5)
    # Fixed generator seeds: the random graphs are the same in every run and
    # only their labelling follows --seed.  Each has d = 511 whatever the
    # labelling, so the known fault (certificate degree 1021 > 64 raised
    # before the girth test) shows every time.
    RANDOM_SEEDS = (1, 2, 3)
    RANDOM_N = 512

    def prepare(self) -> None:
        self.quadrangles = {f"W:{q}": inputs.symplectic_quadrangle(q) for q in self.QUADRANGLES}
        self.girths: dict[str, int] = {}

    def setup(self, modules: dict) -> None:
        families = modules["expanderlp.families"]
        graphcore = modules["expanderlp.graphcore"]
        enumeration = modules["expanderlp.enumeration"]
        self.cli = modules["expanderlp.cli"]
        for name in self.FAMILIES:
            self.add_input(modules, name, families.build(families.parse_family(name)))
        for name, (n, edges) in self.quadrangles.items():
            self.add_input(modules, name, graphcore.Graph.from_edges(n, edges))
        for s in self.RANDOM_SEEDS:
            g = enumeration.random_regular_graph(self.RANDOM_N, 3, random.Random(s))
            self.add_input(modules, f"random_cubic:{s}", g)

    def operations(self) -> list[Op]:
        ops = [self.certify_op(n, lambda o, n=n: self.check_certified(n, o))
               for n in self.FAMILIES + tuple(self.quadrangles)]
        for s in self.RANDOM_SEEDS:
            name = f"random_cubic:{s}"
            ops.append(self.certify_op(name, lambda o, n=name: self.check_random(n, o)))
        return ops

    def check_random(self, name: str, o: Outcome) -> bool:
        if name not in self.girths:
            n, edges = self.base[name]
            adj = inputs.adjacency(n, edges)
            require(inputs.is_connected(adj), f"{name} is not connected")
            self.girths[name] = inputs.girth(adj)
        if o.code == 0:
            self.same_as_before(name, json.loads(o.out))
        return checks.check_not_certifiable(o.code, o.out, o.err, self.RANDOM_N, self.girths[name])


class LpSweep(Workload):
    """bound --json on eigenvalue sets with d = 2..16, exact a/b tokens and floats."""

    DEGREES = range(2, 17)
    DENOMINATOR = 1009
    # integer spectra of certified graphs, with their orders
    SPECTRA = (
        ("petersen", 3, (1, -2), 10),
        ("hoffman_singleton", 7, (2, -3), 50),
        ("gq:2", 3, (2, 0, -2, -3), 30),
        ("kneser:7,3", 4, (2, -1, -3), 35),
    )

    def prepare(self) -> None:
        """Eigenvalue sets and their command lines.

        Sets 2..16 are the zeros of the ball polynomial B_d, the spectrum a
        Moore graph of degree k and diameter d would have, rounded to
        multiples of 1/1009.  The seed shuffles the tokens and writes each
        a/b as (m*a)/(m*b) with a random m; the program sorts and reduces,
        so every seed poses the same LPs.
        """
        self.cases = []
        for d in self.DEGREES:
            k = 3 + d % 3  # k cycles through 3..5, so no single degree dominates
            taus = [inputs.rational_near(x, self.DENOMINATOR) for x in inputs.ball_poly_zeros(k, d)]
            require(len(set(taus)) == d, f"rounded zeros of B_{d} collide")
            self.cases.append((f"B_{d}(k={k})", k, taus, None))
        for name, k, taus, order in self.SPECTRA:
            self.cases.append((name, k, [Fraction(t) for t in taus], order))
        self.argvs = []
        for label, k, taus, order in self.cases:
            exact = [self._exact_token(t) for t in taus]
            floats = [repr(float(t)) for t in taus]
            self.rng.shuffle(exact)
            self.rng.shuffle(floats)
            for regime, tokens in (("exact", exact), ("float", floats)):
                argv = ["bound", "--k", str(k), f"--eigenvalues={','.join(tokens)}", "--json"]
                self.argvs.append((label, regime, argv))
        self.primal: dict[tuple, float] = {}
        self.exact_bound: dict[str, float] = {}

    def _exact_token(self, t: Fraction) -> str:
        if t.denominator == 1:
            return str(t.numerator)
        m = self.rng.randint(1, 9)
        return f"{m * t.numerator}/{m * t.denominator}"

    def setup(self, modules: dict) -> None:
        self.cli = modules["expanderlp.cli"]
        self.lpbound = modules["expanderlp.lpbound"]

    def operations(self) -> list[Op]:
        return [
            Op(f"bound {label} {regime}", lambda a=argv: run_cli(self.cli, a),
               lambda o, i=i, regime=regime: self.check(i, regime, o))
            for i, (label, regime, argv) in enumerate(self.argvs)
        ]

    def check(self, index: int, regime: str, o: Outcome) -> bool:
        label, k, taus, order = self.cases[index // 2]
        key = (label, regime)
        if key not in self.primal:
            values = taus if regime == "exact" else [float(t) for t in taus]
            sol = self.lpbound.lp_bound_primal(k, values, 2 * len(taus) - 1)
            require(sol.status == "optimal", f"primal {sol.status} for {label}")
            self.primal[key] = float(sol.objective)
        bound = checks.check_bound(load_json(o), self.primal[key], checks.DUALITY_RTOL, order)
        if regime == "exact":
            self.exact_bound[label] = bound
        else:
            checks.check_exact_float(self.exact_bound[label], bound)
        return False


class Cubic10Scan(Workload):
    """scripts/scan_cubic10.py --progress 0, executed in this process."""

    def setup(self, modules: dict) -> None:
        self.code = compile(SCAN_SCRIPT.read_text(), str(SCAN_SCRIPT), "exec")
        self.scanned = None

    def operations(self) -> list[Op]:
        return [Op("scan_cubic10", self.scan, self.check)]

    def scan(self) -> Outcome:
        argv, sys.argv = sys.argv, [str(SCAN_SCRIPT), "--progress", "0"]
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                exec(self.code, {"__name__": "__main__", "__file__": str(SCAN_SCRIPT)})
            code = 0
        except SystemExit as exc:
            code = exc.code or 0
        finally:
            sys.argv = argv
        return Outcome(code, out.getvalue(), "")

    def check(self, o: Outcome) -> bool:
        self.scanned = checks.check_scan(o.code, o.out)
        return False

    def summary(self) -> dict:
        return {"graphs_scanned": self.scanned}


WORKLOADS = {"catalog": Catalog, "near_cap": NearCap, "lp_sweep": LpSweep, "cubic10_scan": Cubic10Scan}
