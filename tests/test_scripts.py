import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SCAN = SCRIPTS / "scan_cubic10.py"
SNAPSHOT = SCRIPTS / "snapshot_outputs.py"


def run_scan(monkeypatch, capsys, progress: int) -> list[str]:
    monkeypatch.setattr(sys, "argv", [str(SCAN), "--progress", str(progress)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCAN), run_name="__main__")
    assert exit_info.value.code == 0
    return capsys.readouterr().out.splitlines()


def test_scan_cubic10_finds_certified_petersen(monkeypatch, capsys):
    lines = run_scan(monkeypatch, capsys, 0)
    for want in (
        "graphs scanned: 132930",
        "minimum lambda_2: 1.000000000000",
        "winner girth: 5",
        "winner graph6: IsP@PGXD_",
        "winner verdict: certified",
    ):
        assert want in lines
    assert not any(line.lstrip().startswith("scanned") for line in lines)


def test_scan_cubic10_heartbeat(monkeypatch, capsys):
    lines = run_scan(monkeypatch, capsys, 50000)
    beats = [line for line in lines if line.lstrip().startswith("scanned ")]
    assert len(beats) >= 2


def test_snapshot_outputs_raise_nothing(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "argv", [str(SNAPSHOT), str(tmp_path)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SNAPSHOT), run_name="__main__")
    assert exit_info.value.code == 0
    outputs = sorted(tmp_path.glob("*.txt"))
    assert len(outputs) == 148
    raised = [p.name for p in outputs if p.read_text().startswith("exit: raised")]
    assert raised == []
