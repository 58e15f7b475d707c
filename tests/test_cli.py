import contextlib
import importlib
import io
import json
import random
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderlp import Graph, build, cli, graphcore, parse_family, write_graph6
from expanderlp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def graph6_of(capsys, family):
    code, out, _ = run(capsys, "generate", family)
    assert code == 0
    return out.strip()


class TestGenerate:
    def test_cycle5(self, capsys):
        code, out, _ = run(capsys, "generate", "cycle:5")
        assert code == 0
        assert out.strip() == "Dhc"

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "generate", "moebius:7")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("family", [
        "kneser:26,13", "cycle:100000000", "complete_bipartite:100000",
        # at most 100000 vertices, but billions of edges
        "complete:100000", "complete_bipartite:50000", "kneser:447,2", "kneser:100000,1",
    ])
    def test_past_write_cap_is_not_built(self, capsys, monkeypatch, family):
        def unbuilt(spec):
            raise AssertionError(f"{spec} was built")

        monkeypatch.setattr(cli.families, "build", unbuilt)
        code, out, err = run(capsys, "generate", family)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: graph6 writer capped at {graphcore.GRAPH6_WRITE_CAP} vertices")

    def test_edge_cap_is_inclusive(self, capsys, monkeypatch):
        # petersen has 15 edges, clebsch 40
        monkeypatch.setattr(cli, "GENERATE_EDGE_CAP", 15)
        assert run(capsys, "generate", "petersen")[0] == 0
        code, out, err = run(capsys, "generate", "clebsch")
        assert (code, out) == (3, "")
        cap = graphcore.GRAPH6_WRITE_CAP
        assert err == f"error: graph6 writer capped at {cap} vertices and 15 edges, clebsch has 40 edges\n"

    def test_word_written_once_as_bytes(self, monkeypatch):
        # cycle:20000 has a 33 MB word: generate holds it once and writes it,
        # byte for byte write_graph6's word, to the binary stream uncopied
        g = build(parse_family("cycle:20000"))
        written = []

        class Sink:
            def write(self, data):
                written.append((len(data), bytes(data[-8:])))

        monkeypatch.setattr(cli.sys, "stdout", SimpleNamespace(buffer=Sink(), flush=lambda: None))
        tracemalloc.start()
        try:
            assert main(["generate", "cycle:20000"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        word = write_graph6(g)
        assert written == [(len(word), word[-8:]), (1, b"\n")]
        assert peak < 1.2 * len(word) + 64 * g.n


class TestAnalyze:
    def test_petersen_text(self, capsys, tmp_path):
        word = graph6_of(capsys, "petersen")
        path = tmp_path / "p.g6"
        path.write_text(word + "\n")
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert "girth: 5" in out
        assert "spectral gap: 2" in out
        assert "k = 3" in out

    def test_k4_json(self, capsys, tmp_path):
        path = tmp_path / "k4.g6"
        path.write_text("C~\n")
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["v"] == 4
        assert doc["girth"] == 3
        assert doc["girth_trace"] == 3
        assert doc["spectral_gap"] == pytest.approx(4.0)

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"D~")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "byte offset" in err

    def test_size_cap_exit_3(self, capsys, tmp_path):
        word = graph6_of(capsys, "cycle:600")
        path = tmp_path / "big.g6"
        path.write_text(word + "\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 3

    def test_one_eigensolve(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "p.g6"
        path.write_text(graph6_of(capsys, "petersen") + "\n")
        calls = []
        original = np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return original(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        code, _, _ = run(capsys, "analyze", "--json", str(path))
        assert code == 0
        # petersen is distance-regular of diameter 2: its 3 x 3 intersection matrix
        assert calls == [(3, 3)]

    def test_gap_from_measured_spectrum(self, capsys, tmp_path):
        # so tight a tolerance splits the eigenvalue 1 of the petersen graph;
        # the gap must come from that same spectrum
        path = tmp_path / "p.g6"
        path.write_text(graph6_of(capsys, "petersen") + "\n")
        code, out, _ = run(capsys, "analyze", "--json", "--tol-cluster", "1e-17", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["spectral_gap"] == 3 - doc["spectrum"][1][0]

    @pytest.mark.parametrize("family, girth", [("pg2:8", 6), ("kneser:7,2", 3)])
    def test_girth_trace_null_when_clusters_too_wide(self, capsys, tmp_path, family, girth):
        path = tmp_path / "g.g6"
        path.write_text(graph6_of(capsys, family) + "\n")
        code, out, _ = run(capsys, "analyze", "--json", "--tol-cluster", "6.0", str(path))
        assert code == 0
        doc = json.loads(out)
        assert (doc["girth"], doc["girth_trace"]) == (girth, None)
        code, out, _ = run(capsys, "analyze", "--tol-cluster", "6.0", str(path))
        assert code == 0
        assert f"girth: {girth}\n" in out
        assert "girth via traces" not in out
        code, out, _ = run(capsys, "analyze", str(path))
        assert f"girth via traces: {girth}\n" in out

    def test_size_cap_before_sweep(self, capsys, tmp_path, monkeypatch):
        import expanderlp.spectral as spectral

        path = tmp_path / "big.g6"
        path.write_text(graph6_of(capsys, "cycle:600") + "\n")
        monkeypatch.setattr(spectral, "_level_sweep", lambda g: pytest.fail("sweep ran past the cap"))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 3
        assert err == "error: eigensolver capped at 512 vertices, got 600\n"

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/x.g6")
        assert code == 1


class TestBound:
    def test_petersen_numbers(self, capsys):
        code, out, _ = run(capsys, "bound", "--k", "3", "--eigenvalues", "1,-2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"]["bound"] == pytest.approx(10.0)
        assert doc["certificate"]["f_coeffs"] == [5, 5, 3, 1]
        assert doc["lp"]["bound"] == pytest.approx(10.0)

    def test_hoffman_singleton_numbers(self, capsys):
        code, out, _ = run(capsys, "bound", "--k", "7", "--eigenvalues", "2,-3", "--json")
        doc = json.loads(out)
        assert doc["lp"]["bound"] == pytest.approx(50.0)

    def test_method_lp_only(self, capsys):
        code, out, _ = run(capsys, "bound", "--k", "3", "--eigenvalues", "1,-2", "--method", "lp", "--json")
        doc = json.loads(out)
        assert "certificate" not in doc
        assert doc["lp"]["status"] == "optimal"

    def test_invalid_certificate_exit_4(self, capsys):
        code, out, _ = run(capsys, "bound", "--k", "3", "--eigenvalues", "2.9", "--method", "certificate")
        assert code == 4
        assert "VIOLATED" in out

    def test_infeasible_lp_reported(self, capsys):
        code, out, _ = run(capsys, "bound", "--k", "3", "--eigenvalues", "2.9", "--method", "lp", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["lp"]["status"] == "infeasible"
        assert doc["lp"]["bound"] is None

    def test_fraction_input(self, capsys):
        code, out, _ = run(capsys, "bound", "--k", "3", "--eigenvalues", "3/2,-2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["eigenvalues"] == [1.5, -2.0]

    def test_bad_eigenvalue_exit_1(self, capsys):
        code, _, err = run(capsys, "bound", "--k", "3", "--eigenvalues", "4")
        assert code == 1

    def test_zero_denominator_exit_1(self, capsys):
        code, out, err = run(capsys, "bound", "--k", "3", "--eigenvalues", "1/0")
        assert code == 1
        assert out == ""
        assert err == "error: eigenvalue 1/0 has a zero denominator\n"

    @pytest.mark.parametrize("token", ["-inf", "inf", "nan", "-1e400"])
    @pytest.mark.parametrize("method", ["certificate", "lp", "both"])
    def test_non_finite_eigenvalue_exit_1(self, capsys, method, token):
        code, out, err = run(capsys, "bound", "--k", "3", f"--eigenvalues={token},1", "--method", method)
        assert code == 1
        assert out == ""
        assert err.startswith("error: prescribed eigenvalue") and err.endswith("is not finite\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--k", "3", "--eigenvalues=-1e200,1", "--degree", "3"],
            ["--k", "1000000", "--eigenvalues=0.5", "--degree", "64", "--method", "lp"],
            # a subnormal tau: f_1 >= 1/|tau| is past float64's range
            ["--k", "2", "--eigenvalues=-2.225073858507203e-309", "--method", "lp"],
            # there f(k)/f_0 = 2/|tau| is the certificate's bound
            ["--k", "2", "--eigenvalues=-2.225073858507203e-309", "--method", "certificate"],
            ["--k", "2", "--eigenvalues=-2.225073858507203e-309", "--method", "certificate", "--json"],
        ],
        ids=["eigenvalue", "degree", "lp-optimum", "certificate-bound", "certificate-bound-json"],
    )
    def test_past_float_range_exit_1(self, capsys, argv):
        code, out, err = run(capsys, "bound", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "float64's range" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # certificate coefficients, f(k) and the bound near 1e399
            ["--eigenvalues=-1" + "0" * 200 + "/3,1"],
            ["--eigenvalues=-1" + "0" * 200 + "/3,1", "--method", "certificate", "--json"],
            # f_1 = 10**400 is the least f_1 with -f_1 * S_1(-1/10**400) >= 1
            ["--eigenvalues=-1/1" + "0" * 400, "--degree", "1", "--method", "lp"],
            # the eigenvalue itself
            ["--eigenvalues=-1" + "0" * 400 + ",1", "--method", "lp", "--json"],
        ],
        ids=["certificate-both", "certificate", "lp-variable", "eigenvalue"],
    )
    def test_exact_result_past_float_range_exit_1(self, capsys, argv):
        code, out, err = run(capsys, "bound", "--k", "3", *argv)
        assert code == 1
        assert out == ""
        assert err == "error: an exact result exceeds float64's range and cannot be printed\n"

    def test_clustered_floats_optimal(self, capsys):
        # the float tableau alone calls this dual LP unbounded
        eigenvalues = "-0.0999999999218,-0.1000000000814,-0.099999971,-0.099825"
        code, out, _ = run(
            capsys, "bound", "--k", "5", f"--eigenvalues={eigenvalues}", "--degree", "7", "--method", "lp", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lp"]["status"] == "optimal"
        assert doc["lp"]["bound"] == pytest.approx(5.0080160320772, rel=1e-12)

    def test_float_ball8_certificate_valid(self, capsys):
        # zeros of B_8 at k = 4 rounded to multiples of 1/1009, as floats: the
        # certificate is multiplied out on the stored binary fractions, so it
        # is as valid as its exact twin
        eigenvalues = (
            "3.2378592666005948,2.587710604558969,1.6025768087215064,0.41427155599603566,"
            "-0.8186323092170465,-1.9326065411298314,-2.7888999008919724,-3.3012884043607533"
        )
        code, out, _ = run(
            capsys, "bound", "--k", "4", f"--eigenvalues={eigenvalues}", "--method", "certificate", "--json"
        )
        assert code == 0
        doc = json.loads(out)["certificate"]
        assert all(rep["ok"] for rep in doc["conditions"].values())
        assert doc["bound"] == pytest.approx(13267.42, rel=1e-6)

    def test_degree_flag(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--k", "3", "--eigenvalues", "1,-2", "--degree", "1", "--method", "lp", "--json"
        )
        doc = json.loads(out)
        # with only f_1 available the data admits no certificate
        assert doc["lp"]["status"] == "infeasible"


BIG = 10**250 - 1
# eigenvalue tokens: ints, a/b with parts of up to 250 digits, floats, then
# non-finite values and junk
NUMBERS = st.one_of(
    st.integers(-12, 10).map(str),
    st.integers(-BIG, 10).map(str),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-50, 50), st.integers(1, 60)),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-BIG, BIG), st.integers(0, BIG)),
    st.floats(-12, 10).map(repr),
    st.floats(allow_nan=False).map(repr),
)
JUNK = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "", " ", "1/0", "1_0", "0x1", "-", "/", "1/2/3", "2.5/3"]),
    st.text(max_size=5),
)
TOKEN_LISTS = st.one_of(
    st.lists(NUMBERS, min_size=1, max_size=4, unique=True),
    st.lists(st.one_of(NUMBERS, JUNK), min_size=1, max_size=4),
)


class TestParser:
    def test_built_once(self, capsys, monkeypatch):
        # main parses with the module's parser; it never builds another
        builds = []
        build = cli._build_parser

        def counted():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "_build_parser", counted)
        for _ in range(3):
            assert run(capsys, "bound", "--k", "3", "--eigenvalues", "1,-2")[0] == 0
        assert run(capsys, "generate", "petersen")[0] == 0
        assert builds == []


class TestBoundContract:
    # any token list under any --method: a verdict or a clean error, never an exception
    @pytest.mark.parametrize("method", ["certificate", "lp", "both"])
    @given(k=st.integers(2, 8), tokens=TOKEN_LISTS, as_json=st.booleans())
    @example(k=3, tokens=["-1" + "0" * 200 + "/3", "1"], as_json=False)
    @example(k=3, tokens=["-1" + "0" * 250, "-2" + "0" * 250, "-1e300"], as_json=True)
    @example(k=2, tokens=["-2.225073858507203e-309"], as_json=False)
    @settings(max_examples=40, deadline=5000)
    def test_exit_code_never_raises(self, method, k, tokens, as_json):
        argv = ["bound", "--k", str(k), f"--eigenvalues={','.join(tokens)}", "--method", method]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--json"] * as_json)
        out, err = stdout.getvalue(), stderr.getvalue()
        assert code in (0, 1, 4)
        if code == 1:
            assert out == "" and err.startswith("error: ")
            # the program's own message, not the JSON encoder's
            assert "JSON compliant" not in err
        elif as_json:
            json.loads(out)
        if code == 0:
            assert not re.search(r"\b(inf|nan)\b", out)


class TestCertify:
    def test_petersen_json_default(self, capsys, tmp_path):
        word = graph6_of(capsys, "petersen")
        path = tmp_path / "p.g6"
        path.write_text(word + "\n")
        code, out, _ = run(capsys, "certify", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "certified"
        assert doc["schema"] == 1

    def test_text_mode(self, capsys, tmp_path):
        word = graph6_of(capsys, "cycle:7")
        path = tmp_path / "c7.g6"
        path.write_text(word + "\n")
        code, out, _ = run(capsys, "certify", str(path), "--text")
        assert code == 0
        assert "verdict: certified" in out

    def test_not_applicable_path_graph(self, capsys, tmp_path):
        path = tmp_path / "p3.g6"
        path.write_text("Bg\n")  # path on 3 vertices
        code, out, _ = run(capsys, "certify", str(path))
        assert code == 0
        assert json.loads(out)["verdict"] == "not-applicable"

    @pytest.mark.parametrize(
        "edges",
        [
            [(c + i, c + (i + 1) % 300) for c in (0, 300) for i in range(300)],
            [(i, i + 1) for i in range(599)],
        ],
        ids=["two-300-cycles", "path-600"],
    )
    @pytest.mark.parametrize("argv", [[], ["--text"]], ids=["json", "text"])
    def test_size_cap_before_sweep(self, capsys, tmp_path, monkeypatch, edges, argv):
        # a disconnected or irregular graph past the cap is refused, as
        # analyze refuses it, before the O(n^2) sweep measures its girth
        path = tmp_path / "big.g6"
        path.write_bytes(write_graph6(Graph.from_edges(600, edges)) + b"\n")
        for module in (graphcore, importlib.import_module("expanderlp.spectral")):
            monkeypatch.setattr(module, "_level_sweep", lambda g: pytest.fail("sweep ran past the cap"))
        code, out, err = run(capsys, "certify", *argv, str(path))
        assert code == 3
        assert out == ""
        assert err == "error: eigensolver capped at 512 vertices, got 600\n"


class TestSpectrumLine:
    @pytest.mark.parametrize(
        "name, line",
        [
            ("complete_bipartite:3", "spectrum: 3, 0^4, (-3)"),
            ("gq:2", "spectrum: 3, 2^9, 0^10, (-2)^9, (-3)"),
        ],
    )
    def test_independent_of_labelling(self, capsys, tmp_path, name, line):
        # the cluster mean of a zero eigenvalue can be -1e-17 or +1e-17, by
        # labelling; it prints as 0, unbracketed, either way
        g = build(parse_family(name))
        path = tmp_path / "g.g6"
        for seed in range(4):
            perm = list(range(g.n))
            random.Random(seed).shuffle(perm)
            relabelled = Graph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges()))
            path.write_bytes(write_graph6(relabelled) + b"\n")
            code, out, _ = run(capsys, "certify", "--text", str(path))
            assert code == 0
            assert [x for x in out.splitlines() if x.startswith("spectrum:")] == [line]


class TestBadTolerance:
    # a clustering tolerance that is negative, not finite, or so wide that it
    # merges the top eigenvalue away is bad input
    @pytest.mark.parametrize("argv", [("certify", "--tol-cluster", "1.3"),
                                      ("analyze", "--json", "--tol-cluster", "1.3")])
    def test_clean_error(self, capsys, tmp_path, argv):
        path = tmp_path / "c7.g6"
        path.write_text(graph6_of(capsys, "cycle:7") + "\n")
        code, out, err = run(capsys, *argv, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: eigensolver sanity check failed")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["certify", "analyze"])
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_out_of_range(self, capsys, tmp_path, command, tol):
        path = tmp_path / "petersen.g6"
        path.write_text(graph6_of(capsys, "petersen") + "\n")
        code, out, err = run(capsys, command, "--tol-cluster", tol, str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: cluster tolerance must be finite and nonnegative")


class TestTable2:
    def test_all_rows_tight(self, capsys):
        code, out, _ = run(capsys, "table2")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 13  # header + 12 rows
        for ln in lines[1:]:
            assert " yes " in f" {ln} "

    def test_json_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "table2", "--json")
        code2, out2, _ = run(capsys, "table2", "--json")
        assert code1 == code2 == 0
        assert out1 == out2
        rows = json.loads(out1)
        assert len(rows) == 12
        for row in rows:
            assert row["tight"] is True
            assert row["bound"] == pytest.approx(row["v"], abs=1e-6)


    @pytest.mark.parametrize("argv", [[], ["--json"]], ids=["text", "json"])
    def test_loose_row_exit_1(self, capsys, monkeypatch, argv):
        real_row = cli.catalog_row

        def loosened(spec):
            row = real_row(spec)
            return {**row, "tight": False} if str(spec) == "petersen" else row

        monkeypatch.setattr(cli, "catalog_row", loosened)
        code, out, err = run(capsys, "table2", *argv)
        assert code == 1
        assert out
        assert err == "error: bound not attained by petersen\n"


class TestStdin:
    def test_dash_reads_stdin(self, capsys, monkeypatch):
        import io
        import sys

        class FakeStdin:
            buffer = io.BytesIO(b"C~\n")

        monkeypatch.setattr(sys, "stdin", FakeStdin)
        code, out, _ = run(capsys, "analyze", "-", "--json")
        assert code == 0
        assert json.loads(out)["v"] == 4
