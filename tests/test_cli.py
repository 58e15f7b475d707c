import json

import numpy as np
import pytest

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
        assert calls == [(10, 10)]

    def test_gap_from_measured_spectrum(self, capsys, tmp_path):
        # so tight a tolerance splits the eigenvalue 1 of the petersen graph;
        # the gap must come from that same spectrum
        path = tmp_path / "p.g6"
        path.write_text(graph6_of(capsys, "petersen") + "\n")
        code, out, _ = run(capsys, "analyze", "--json", "--tol-cluster", "1e-17", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["spectral_gap"] == 3 - doc["spectrum"][1][0]

    def test_size_cap_before_sweep(self, capsys, tmp_path, monkeypatch):
        import expanderlp.cli as cli

        path = tmp_path / "big.g6"
        path.write_text(graph6_of(capsys, "cycle:600") + "\n")
        monkeypatch.setattr(cli, "_level_sweep", lambda g: pytest.fail("sweep ran past the cap"))
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

    def test_degree_flag(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--k", "3", "--eigenvalues", "1,-2", "--degree", "1", "--method", "lp", "--json"
        )
        doc = json.loads(out)
        # with only f_1 available the data admits no certificate
        assert doc["lp"]["status"] == "infeasible"


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


class TestBadTolerance:
    # a clustering tolerance that merges the top eigenvalue away is bad input
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
