"""Each check of the benchmark accepts a real output and rejects a tampered one.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import copy
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from checks import CheckFailed  # noqa: E402
from expanderlp import build, lp_bound_primal, parse_family, write_graph6  # noqa: E402
from expanderlp.cli import main as cli_main  # noqa: E402


def cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def certify_doc(tmp_path, family: str) -> dict:
    path = tmp_path / "g.g6"
    path.write_bytes(write_graph6(build(parse_family(family))) + b"\n")
    code, out, _ = cli("certify", str(path))
    assert code == 0
    return json.loads(out)


def tampered(doc, **changes):
    doc = copy.deepcopy(doc)
    for key, value in changes.items():
        doc[key] = value
    return doc


@pytest.fixture(scope="module")
def petersen(tmp_path_factory):
    return certify_doc(tmp_path_factory.mktemp("p"), "petersen")


PETERSEN = checks.family_facts("petersen")


class TestCertifyChecks:
    def test_real_report_passes(self, petersen):
        checks.check_measurements(petersen, PETERSEN)
        checks.check_certified(petersen, PETERSEN)

    @pytest.mark.parametrize("key,value", [("v", 11), ("k", 4), ("girth", 6), ("d", 3), ("moore_bound", 11)])
    def test_measurement_tampered(self, petersen, key, value):
        with pytest.raises(CheckFailed):
            checks.check_measurements(tampered(petersen, **{key: value}), PETERSEN)

    def test_multiplicity_tampered(self, petersen):
        spec = [[3.0, 1], [1.0, 4], [-2.0, 5]]
        with pytest.raises(CheckFailed, match="lambda"):
            checks.check_measurements(tampered(petersen, spectrum=spec), PETERSEN)

    def test_eigenvalue_tampered(self, petersen):
        spec = [[3.0, 1], [1.001, 5], [-2.0, 4]]
        with pytest.raises(CheckFailed, match="lambda"):
            checks.check_measurements(tampered(petersen, spectrum=spec), PETERSEN)

    def test_verdict_tampered(self, petersen):
        with pytest.raises(CheckFailed, match="verdict"):
            checks.check_certified(tampered(petersen, verdict="failed"), PETERSEN)

    def test_bound_tampered(self, petersen):
        doc = copy.deepcopy(petersen)
        doc["lp"]["bound"] = 11.0
        with pytest.raises(CheckFailed, match="bound"):
            checks.check_certified(doc, PETERSEN)

    def test_not_tight(self, petersen):
        doc = copy.deepcopy(petersen)
        doc["lp"]["tight"] = False
        with pytest.raises(CheckFailed, match="tight"):
            checks.check_certified(doc, PETERSEN)

    def test_diameter_tampered(self, petersen):
        with pytest.raises(CheckFailed, match="diameter"):
            checks.check_certified(tampered(petersen, diameter=3), PETERSEN)

    def test_relabelling_invariance(self, petersen, tmp_path):
        n, edges = PETERSEN.v, list(build(parse_family("petersen")).edges())
        path = tmp_path / "r.g6"
        path.write_bytes(inputs.graph6_encode(n, inputs.relabel(n, edges, random.Random(7))) + b"\n")
        code, out, _ = cli("certify", str(path))
        ref = checks.invariants(petersen)
        checks.check_invariant(ref, json.loads(out))
        with pytest.raises(CheckFailed, match="relabelling"):
            checks.check_invariant(ref, tampered(petersen, girth=6))


class TestTable2Check:
    NAMES = ["cycle:5", "cycle:7", "complete:4", "complete_bipartite:3", "pg2:2", "pg2:3", "pg2:4",
             "gq:2", "petersen", "hoffman_singleton", "kneser:7,3", "clebsch"]

    @pytest.fixture(scope="class")
    def rows(self):
        code, out, _ = cli("table2", "--json")
        assert code == 0
        return json.loads(out)

    def test_real_table_passes(self, rows):
        checks.check_table2(rows, self.NAMES)

    @pytest.mark.parametrize("key,value", [("bound", 31.0), ("tight", False), ("girth", 6), ("v", 29)])
    def test_row_tampered(self, rows, key, value):
        rows = copy.deepcopy(rows)
        rows[7][key] = value
        with pytest.raises(CheckFailed, match="gq:2"):
            checks.check_table2(rows, self.NAMES)

    def test_row_missing(self, rows):
        with pytest.raises(CheckFailed):
            checks.check_table2(rows[:-1], self.NAMES)


class TestNotCertifiable:
    ERROR = "error: certificate degree 1021 exceeds maximum 64\n"

    def test_known_fault_counts_as_failed(self):
        assert checks.check_not_certifiable(1, "", self.ERROR, 512, 7) is True

    def test_other_error_rejected(self):
        with pytest.raises(CheckFailed, match="unexpected"):
            checks.check_not_certifiable(1, "", "error: something else\n", 512, 7)

    def test_owed_verdict(self, petersen):
        doc = tampered(petersen, girth=3, verdict="failed")
        assert checks.check_not_certifiable(0, json.dumps(doc), "", 10, 3) is False
        with pytest.raises(CheckFailed, match="verdict"):
            checks.check_not_certifiable(0, json.dumps(tampered(doc, verdict="certified")), "", 10, 3)
        with pytest.raises(CheckFailed, match="girth"):
            checks.check_not_certifiable(0, json.dumps(doc), "", 10, 4)


class TestBoundChecks:
    TAUS = (Fraction(1009, 1009), Fraction(-2))

    @pytest.fixture(scope="class")
    def doc(self):
        code, out, _ = cli("bound", "--k", "3", "--eigenvalues=2018/2018,-2", "--json")
        assert code == 0
        return json.loads(out)

    def primal(self, taus=TAUS):
        return float(lp_bound_primal(3, taus, 3).objective)

    def test_real_bound_passes(self, doc):
        assert checks.check_bound(doc, self.primal(), checks.DUALITY_RTOL, 10) == pytest.approx(10)

    def test_dual_tampered(self, doc):
        doc = copy.deepcopy(doc)
        doc["lp"]["bound"] *= 1.001
        with pytest.raises(CheckFailed, match="primal"):
            checks.check_bound(doc, self.primal(), checks.DUALITY_RTOL)

    def test_certificate_below_lp(self, doc):
        doc = copy.deepcopy(doc)
        doc["certificate"]["bound"] = 9.5
        with pytest.raises(CheckFailed, match="certificate"):
            checks.check_bound(doc, self.primal(), checks.DUALITY_RTOL)

    def test_wrong_order(self, doc):
        with pytest.raises(CheckFailed, match="order"):
            checks.check_bound(doc, self.primal(), checks.DUALITY_RTOL, 11)

    def test_infeasible_rejected(self, doc):
        doc = copy.deepcopy(doc)
        doc["lp"].update(status="infeasible", bound=None)
        with pytest.raises(CheckFailed, match="status"):
            checks.check_bound(doc, self.primal(), checks.DUALITY_RTOL)

    def test_exact_float_disagree(self):
        checks.check_exact_float(10.0, 10.0 + 1e-9)
        with pytest.raises(CheckFailed, match="float"):
            checks.check_exact_float(10.0, 10.01)


class TestScanCheck:
    def output(self, graph6: str, lam: str = "1.000000000000", verdict: str = "certified") -> str:
        return (f"graphs scanned: 132930\nminimum lambda_2: {lam}\nwinner girth: 5\n"
                f"winner graph6: {graph6}\nelapsed: 8.0s\nwinner verdict: {verdict}\n")

    @pytest.fixture(scope="class")
    def petersen6(self):
        return write_graph6(build(parse_family("petersen"))).decode()

    def test_real_output_passes(self, petersen6):
        assert checks.check_scan(0, self.output(petersen6)) == 132930

    def test_lambda_tampered(self, petersen6):
        with pytest.raises(CheckFailed, match="lambda_2"):
            checks.check_scan(0, self.output(petersen6, lam="1.000001000000"))

    def test_winner_not_girth_5(self):
        # the pentagonal prism: cubic on 10 vertices, girth 4
        edges = [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
        prism = inputs.graph6_encode(10, edges + [(i, i + 5) for i in range(5)]).decode()
        with pytest.raises(CheckFailed, match="girth"):
            checks.check_scan(0, self.output(prism))

    def test_verdict_and_exit(self, petersen6):
        with pytest.raises(CheckFailed, match="verdict"):
            checks.check_scan(0, self.output(petersen6, verdict="failed"))
        with pytest.raises(CheckFailed, match="exit"):
            checks.check_scan(1, self.output(petersen6))

    def test_truncated_output(self, petersen6):
        with pytest.raises(CheckFailed, match="lacks"):
            checks.check_scan(0, self.output(petersen6).split("winner graph6")[0])


class TestInputs:
    def test_graph6_matches_program(self):
        g = build(parse_family("pg2:3"))
        assert inputs.graph6_encode(g.n, g.edges()) == write_graph6(g)
        n, adj = inputs.graph6_decode(write_graph6(g).decode())
        assert n == g.n and all(sorted(adj[u]) == list(g.neighbors[u]) for u in range(n))

    def test_graph6_long_header(self):
        edges = [(i, (i + 1) % 80) for i in range(80)]
        n, adj = inputs.graph6_decode(inputs.graph6_encode(80, edges).decode())
        assert n == 80 and inputs.girth(adj) == 80

    @pytest.mark.parametrize("q", [2, 3])
    def test_symplectic_quadrangle(self, q):
        n, edges = inputs.symplectic_quadrangle(q)
        adj = inputs.adjacency(n, edges)
        assert n == 2 * (q + 1) * (q * q + 1)
        assert all(len(s) == q + 1 for s in adj)
        assert inputs.girth(adj) == 8 and inputs.is_connected(adj)

    def test_ball_zeros_are_moore_spectra(self):
        assert inputs.ball_poly_zeros(3, 2) == pytest.approx([1.0, -2.0])
        assert inputs.ball_poly_zeros(7, 2) == pytest.approx([2.0, -3.0])


class TestTracer:
    def test_spans_and_counts(self, tmp_path):
        import importlib

        from tracing import Tracer

        for name in [m for m in sys.modules if m == "expanderlp" or m.startswith("expanderlp.")]:
            del sys.modules[name]
        for name in ("expanderlp", "expanderlp.cli", "expanderlp.enumeration"):
            importlib.import_module(name)
        tracer = Tracer()
        tracer.set_phase(("pass", 0), keep=True)
        tracer.install(sys.modules)
        try:
            path = tmp_path / "p.g6"
            path.write_bytes(write_graph6(build(parse_family("petersen"))) + b"\n")
            with redirect_stdout(io.StringIO()):
                assert sys.modules["expanderlp.cli"].main(["certify", str(path)]) == 0
        finally:
            tracer.uninstall()
        totals = tracer.totals(("pass", 0))
        assert totals["certify.certify"][1] == 1
        assert totals["spectral.spectrum"][1] == 2
        assert totals["numpy.linalg.eigvalsh"][1] == 2
        assert all(self_s >= 0 for self_s, _ in totals.values())
        tracer.write(tmp_path / "t.jsonl.gz")
