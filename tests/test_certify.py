import contextlib
import importlib
import io
import json
import random
import sys
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlp import (
    MAX_DEGREE,
    TABLE_SPECS,
    Graph,
    VERDICT_CERTIFIED,
    VERDICT_FAILED,
    VERDICT_NOT_APPLICABLE,
    build,
    certify,
    check_attainment,
    moore_bound,
    moore_polygon_array,
    parse_family,
    sphere_poly_matrices,
    tutte_bound,
    write_graph6,
)
from expanderlp.certify import catalog_row
from expanderlp.lpbound import ATTAINMENT_TOL
from expanderlp.cli import main
from expanderlp.enumeration import random_regular_graph


def family(text):
    return build(parse_family(text))


class TestMooreBound:
    def test_values(self):
        assert moore_bound(3, 2) == 10
        assert moore_bound(7, 2) == 50
        assert moore_bound(57, 2) == 3250
        assert moore_bound(2, 3) == 7
        assert moore_bound(3, 1) == 4
        assert moore_bound(3, 3) == 22

    def test_tutte_agrees_for_odd_girth(self):
        assert tutte_bound(3, 2) == 10
        assert tutte_bound(7, 2) == 50
        assert tutte_bound(2, 2) == 5
        assert tutte_bound(3, 3) == 22

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            moore_bound(1, 2)
        with pytest.raises(ValueError):
            moore_bound(3, 0)
        with pytest.raises(ValueError):
            tutte_bound(3, 0)


class TestMoorePolygonArray:
    def test_heawood(self):
        arr = moore_polygon_array(3, 3, 3)
        assert arr.b == (3, 2, 2)
        assert arr.c == (1, 1, 3)

    def test_cycle6(self):
        arr = moore_polygon_array(2, 3, 2)
        assert arr.b == (2, 1, 1)
        assert arr.c == (1, 1, 2)

    def test_petersen_is_plain_moore(self):
        arr = moore_polygon_array(3, 2, 1)
        assert arr.b == (3, 2)
        assert arr.c == (1, 1)

    def test_c_range(self):
        with pytest.raises(ValueError):
            moore_polygon_array(3, 3, 0)
        with pytest.raises(ValueError):
            moore_polygon_array(3, 3, 4)
        with pytest.raises(ValueError):
            moore_polygon_array(3, 1, 1)


class TestCertifyVerdicts:
    def test_certified_families(self):
        for name in (
            "petersen",
            "cycle:5",
            "cycle:7",
            "complete:4",
            "complete_bipartite:3",
            "pg2:2",
            "gq:2",
            "kneser:7,3",
            "clebsch",
            "hoffman_singleton",
        ):
            rep = certify(family(name))
            assert rep.verdict == VERDICT_CERTIFIED, (name, rep.reason)
            assert rep.reason is None

    def test_is_moore_flags(self):
        assert certify(family("petersen")).is_moore
        assert certify(family("hoffman_singleton")).is_moore
        assert certify(family("cycle:5")).is_moore
        assert certify(family("cycle:7")).is_moore
        assert not certify(family("pg2:2")).is_moore
        assert not certify(family("gq:2")).is_moore

    def test_moore_polygon_weights(self):
        assert certify(family("petersen")).moore_polygon_c == 1
        assert certify(family("pg2:2")).moore_polygon_c == 3
        assert certify(family("cycle:6")).moore_polygon_c == 2
        assert certify(family("gq:2")).moore_polygon_c == 3
        assert certify(family("clebsch")).moore_polygon_c == 2
        # girth 5 < 2d would be needed... K_4 has d = 1, no polygon array
        assert certify(family("complete:4")).moore_polygon_c is None

    def test_failed_low_girth(self):
        prism = Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
        )
        rep = certify(prism)
        assert rep.verdict == VERDICT_FAILED
        assert "girth" in rep.reason

    def test_failed_pentagonal_prism(self):
        # cubic on 10 vertices, girth 4: cannot match the petersen profile
        g = Graph.from_edges(
            10,
            [
                (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                (5, 6), (6, 7), (7, 8), (8, 9), (9, 5),
                (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
            ],
        )
        assert all(len(nb) == 3 for nb in g.neighbors)
        rep = certify(g)
        assert rep.verdict == VERDICT_FAILED
        assert rep.reason

    def test_relabeled_petersen_still_certifies(self):
        # generalized petersen GP(5,2) is the petersen graph in disguise
        g = Graph.from_edges(
            10,
            [
                (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                (5, 6), (6, 7), (7, 8), (8, 9), (9, 5),
                (0, 5), (1, 7), (2, 9), (3, 6), (4, 8),
            ],
        )
        rep = certify(g)
        assert rep.verdict == VERDICT_CERTIFIED
        assert rep.girth == 5

    def test_not_applicable(self):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert certify(path).verdict == VERDICT_NOT_APPLICABLE
        two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        rep = certify(two_triangles)
        assert rep.verdict == VERDICT_NOT_APPLICABLE
        assert "connected" in rep.reason
        single_edge = Graph.from_edges(2, [(0, 1)])
        assert certify(single_edge).verdict == VERDICT_NOT_APPLICABLE
        assert certify(Graph.from_edges(0, [])).verdict == VERDICT_NOT_APPLICABLE


@st.composite
def simple_graphs(draw):
    """Graphs on 0..12 vertices, from empty to complete."""
    n = draw(st.integers(0, 12))
    density = draw(st.sampled_from([0.1, 0.3, 0.5, 0.8, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**31 - 1)))
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])


@st.composite
def regular_graphs(draw):
    """random_regular_graph(n, k) on 1..24 vertices, or its complement.

    k stays at most 5: the pairing model needs about exp((k^2 - 1) / 4)
    draws, which is up to a second per graph at k = 6 and more than
    MAX_PAIRINGS at k = 7.  The complements are the dense regular graphs,
    k = 6 and 7 among them.
    """
    n = draw(st.integers(1, 24))
    k = draw(st.integers(0, min(5, n - 1)))
    k -= n * k % 2  # no k-regular graph has an odd n * k
    g = random_regular_graph(n, k, random.Random(draw(st.integers(0, 2**31 - 1))))
    if draw(st.booleans()):
        g = Graph.from_edges(n, np.argwhere(np.triu(1 - g.adjacency_matrix(), 1)).tolist())
    return g


class TestCertifyContract:
    """certify gives one of its three verdicts on every graph and never raises."""

    @given(st.one_of(simple_graphs(), regular_graphs()))
    @settings(max_examples=300, deadline=None)
    def test_verdict(self, g):
        assert certify(g).verdict in (VERDICT_CERTIFIED, VERDICT_FAILED, VERDICT_NOT_APPLICABLE)


def run_on_stdin(data: bytes, *argv):
    """Exit code, stdout and stderr of the CLI reading data on stdin."""
    stdout, stderr = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, SimpleNamespace(buffer=io.BytesIO(data))
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "-"])
    finally:
        sys.stdin = stdin
    return code, stdout.getvalue(), stderr.getvalue()


class TestCliContract:
    """analyze and certify measure a graph alike, and exit 0-3 on any input."""

    @given(st.one_of(simple_graphs(), regular_graphs()))
    @settings(max_examples=300, deadline=None)
    def test_analyze_agrees_with_certify(self, g):
        word = write_graph6(g) + b"\n"
        code, out, _ = run_on_stdin(word, "certify")
        assert code == 0
        report = json.loads(out)
        if report["verdict"] == VERDICT_NOT_APPLICABLE:
            return
        code, out, _ = run_on_stdin(word, "analyze", "--json")
        assert code == 0
        info = json.loads(out)
        for key in ("v", "k", "girth", "diameter", "d", "spectrum"):
            assert info[key] == report[key], key

    @pytest.mark.parametrize(
        "argv, json_out",
        [(["analyze"], False), (["analyze", "--json"], True), (["certify"], True), (["certify", "--text"], False)],
    )
    @given(data=st.one_of(st.binary(max_size=40), st.one_of(simple_graphs(), regular_graphs()).map(write_graph6)))
    @settings(max_examples=40, deadline=None)
    def test_exit_code_never_raises(self, argv, json_out, data):
        code, out, err = run_on_stdin(data, *argv)
        assert code in (0, 1, 2, 3)
        if code:
            assert out == "" and err.startswith("error: ")
        elif json_out:
            json.loads(out)


class TestCycles:
    """Float certificates of cycles are multiplied out on their binary fractions."""

    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_certified_up_to_47(self, seed):
        for n in range(3, 48):
            g = family(f"cycle:{n}")
            if seed is not None:
                perm = list(range(n))
                random.Random(seed * 1000 + n).shuffle(perm)
                g = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert certify(g).verdict == VERDICT_CERTIFIED, (n, seed)


class TestPastCertificateDegree:
    """Graphs whose certificate degree 2d - 1 exceeds MAX_DEGREE still get a verdict."""

    def certify_cli(self, g, tmp_path, capsys):
        path = tmp_path / "g.g6"
        path.write_bytes(write_graph6(g) + b"\n")
        cli = importlib.import_module("expanderlp.cli")
        assert cli.main(["certify", str(path)]) == 0
        return json.loads(capsys.readouterr().out)

    def test_random_cubic_fails_on_girth(self, tmp_path, capsys):
        g = random_regular_graph(64, 3, random.Random(7))
        doc = self.certify_cli(g, tmp_path, capsys)
        assert 2 * doc["d"] - 1 > MAX_DEGREE
        assert doc["verdict"] == VERDICT_FAILED
        assert doc["reason"] == f"girth {doc['girth']} below 2d = {2 * doc['d']}"
        assert doc["lp"] is None

    def test_long_cycle_not_applicable(self, tmp_path, capsys):
        doc = self.certify_cli(family("cycle:66"), tmp_path, capsys)
        assert (doc["girth"], doc["d"], doc["diameter"]) == (66, 33, 33)
        assert doc["verdict"] == VERDICT_NOT_APPLICABLE
        assert doc["reason"] == f"certificate degree 65 exceeds maximum {MAX_DEGREE}"
        assert doc["lp"] is None


class TestReportSchema:
    def test_keys_and_order(self):
        doc = certify(family("petersen")).to_json_dict()
        assert list(doc.keys()) == [
            "schema",
            "v",
            "k",
            "girth",
            "diameter",
            "d",
            "spectrum",
            "moore_bound",
            "tutte_bound",
            "is_moore",
            "moore_polygon_c",
            "distance_regular",
            "lp",
            "verdict",
            "reason",
        ]
        assert doc["schema"] == 1
        assert list(doc["lp"].keys()) == ["bound", "f_coeffs", "conditions", "tight"]
        assert list(doc["lp"]["conditions"].keys()) == [
            "f_at_k_positive",
            "f_nonpositive_at_eigenvalues",
            "f0_positive",
            "coeffs_nonnegative",
        ]

    def test_json_serializable(self):
        for name in ("petersen", "gq:2", "cycle:6"):
            text = certify(family(name)).to_json()
            doc = json.loads(text)
            assert doc["v"] == family(name).n

    def test_not_applicable_reports_nulls(self):
        doc = certify(Graph.from_edges(3, [(0, 1), (1, 2)])).to_json_dict()
        assert doc["k"] is None
        assert doc["lp"] is None
        assert doc["verdict"] == "not-applicable"
        json.dumps(doc)

    def test_tutte_bound_null_for_even_girth(self):
        doc = certify(family("pg2:2")).to_json_dict()
        assert doc["tutte_bound"] is None
        doc = certify(family("petersen")).to_json_dict()
        assert doc["tutte_bound"] == 10

    def test_petersen_numbers(self):
        doc = certify(family("petersen")).to_json_dict()
        assert doc["v"] == 10
        assert doc["k"] == 3
        assert doc["girth"] == 5
        assert doc["diameter"] == 2
        assert doc["d"] == 2
        assert doc["moore_bound"] == 10
        assert doc["is_moore"] is True
        assert doc["distance_regular"] == {"b": [3, 2], "c": [1, 1]}
        assert doc["lp"]["bound"] == pytest.approx(10.0, abs=1e-9)
        assert doc["lp"]["f_coeffs"] == pytest.approx([5, 5, 3, 1], abs=1e-9)
        assert doc["lp"]["tight"] is True


@pytest.fixture
def distance_calls(monkeypatch):
    """Count level-sweep calls through every module that holds it."""
    calls = []
    graphcore = importlib.import_module("expanderlp.graphcore")
    original = graphcore._level_sweep

    def counted(g):
        calls.append(g.n)
        return original(g)

    for name in ("graphcore", "certify", "cli"):
        module = importlib.import_module(f"expanderlp.{name}")
        monkeypatch.setattr(module, "_level_sweep", counted)
    return calls


class TestOneDistanceMatrix:
    def test_certify(self, distance_calls):
        report = certify(family("gq:2"))
        assert report.diam == 4 and report.intersection_array is not None
        assert distance_calls == [30]

    def test_analyze(self, distance_calls, tmp_path, capsys):
        path = tmp_path / "g.g6"
        path.write_bytes(write_graph6(family("gq:2")) + b"\n")
        cli = importlib.import_module("expanderlp.cli")
        assert cli.main(["analyze", "--json", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["diameter"] == 4 and doc["distance_regular"] is not None
        assert distance_calls == [30]


def matrix_trace_products(g, cert):
    """f_i * tr S_i(A), i = 1..deg f, from one sphere_poly_matrices pass.

    oracles.trace_products enumerates the walks one by one, which takes
    seconds at pg2:8; the matrices are checked against it in test_spectral.
    """
    mats = islice(sphere_poly_matrices(g, cert.poly.degree), 1, None)
    return [c * int(np.trace(m)) for c, m in zip(cert.poly.coeffs[1:], mats)]


class TestTracesFromGirth:
    """Attainment, read from the bound's equality case, agrees with the trace products.

    Past deg f the girth makes every trace 0: a closed non-backtracking walk
    of length i contains a cycle of length at most i.
    """

    @pytest.mark.parametrize(
        "name", [str(s) for s in TABLE_SPECS] + ["pg2:7", "pg2:8", "cycle:18", "cycle:30"]
    )
    def test_agrees_with_matrix_pass(self, name):
        g = family(name)
        report = certify(g)
        assert report.attainment == check_attainment(g, report.certificate, spec=report.spec)
        products = matrix_trace_products(g, report.certificate)
        residuals = report.attainment.eigenvalue_residuals
        assert report.attainment.tight is all(
            abs(x) <= ATTAINMENT_TOL for x in (*residuals, *products)
        )
        if report.verdict == VERDICT_CERTIFIED:
            assert report.girth > report.certificate.poly.degree
            assert all(p == 0 for p in products)

    def test_prism_takes_matrix_pass(self):
        prism = Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
        )
        report = certify(prism)
        assert (report.girth, report.certificate.poly.degree) == (3, 5)
        assert report.attainment.tight is False
        assert matrix_trace_products(prism, report.certificate)[2] != 0


class TestCatalogRow:
    @pytest.mark.parametrize("spec", TABLE_SPECS, ids=str)
    def test_agrees_with_certify(self, spec):
        row = catalog_row(spec)
        report = certify(build(spec))
        assert (row["v"], row["k"], row["girth"]) == (report.v, report.k, report.girth)
        assert row["spectrum"] == [[e, m] for e, m in report.spec.entries]
        assert row["tight"] is report.attainment.tight is True

    def test_table2_measures_each_row_once(self, distance_calls, capsys, monkeypatch):
        eigensolves = []
        original = np.linalg.eigvalsh

        def counted(a):
            eigensolves.append(a.shape[0])
            return original(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        cli = importlib.import_module("expanderlp.cli")
        assert cli.main(["table2", "--json"]) == 0
        orders = [row["v"] for row in json.loads(capsys.readouterr().out)]
        assert len(orders) == len(TABLE_SPECS)
        assert eigensolves == orders
        assert distance_calls == orders
