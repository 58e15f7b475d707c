import random
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from expanderlp import FamilySpec, build
from expanderlp.enumeration import BLOCK_ROWS, connected_cubic_masks, cubic_masks
from oracles import masks_connected

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SCAN = SCRIPTS / "scan_cubic10.py"
SNAPSHOT = SCRIPTS / "snapshot_outputs.py"
LINE_COVERAGE = SCRIPTS / "line_coverage.py"


def run_scan(monkeypatch, capsys, progress: int) -> list[str]:
    monkeypatch.setattr(sys, "argv", [str(SCAN), "--progress", str(progress)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCAN), run_name="__main__")
    assert exit_info.value.code == 0
    return capsys.readouterr().out.splitlines()


def adjacency(masks: np.ndarray) -> np.ndarray:
    """A (B, n) block of neighbour masks as the scan's (B, n, n) float32 stack."""
    bits = np.arange(masks.shape[1], dtype=np.uint16)
    return ((masks[:, :, None] >> bits) & 1).astype(np.float32)


def exact_walk_keys(stack: np.ndarray) -> np.ndarray:
    """tr A^j for j = 3..10 by int64 matrix powers."""
    exact = stack.astype(np.int64)
    traces = [np.trace(np.linalg.matrix_power(exact, j), axis1=1, axis2=2) for j in range(3, 11)]
    return np.stack(traces, axis=1)


walk_keys = runpy.run_path(str(SCAN))["walk_keys"]


@pytest.mark.parametrize("n, spectra", [(4, 1), (6, 2), (8, 5)])
def test_walk_keys_fix_the_spectrum(n, spectra):
    stack = np.concatenate([adjacency(masks) for masks in connected_cubic_masks(n)])
    keys = walk_keys(stack)
    assert keys.dtype == np.int64
    assert np.array_equal(keys, exact_walk_keys(stack))
    distinct, inverse = np.unique(keys, axis=0, return_inverse=True)
    assert len(distinct) == spectra
    eigenvalues = np.linalg.eigvalsh(stack.astype(np.float64))
    for key in range(len(distinct)):
        mates = eigenvalues[inverse.ravel() == key]
        assert np.abs(mates - mates[0]).max() <= 1e-12


def test_walk_keys_ignore_labels():
    stack = adjacency(next(connected_cubic_masks(10)))
    keys = walk_keys(stack)
    for seed in range(20):
        perm = list(range(10))
        random.Random(seed).shuffle(perm)
        assert np.array_equal(walk_keys(stack[:, perm][:, :, perm]), keys)


def test_walk_keys_exact_in_float32_at_n10():
    # Every closed-walk count of a cubic graph on 10 vertices stays below
    # 2^24, where float32 still holds every integer.
    assert 10 * 3**10 < 2**24
    blocks = connected_cubic_masks(10)
    petersen = build(FamilySpec("petersen")).neighbors
    petersen = np.array([[sum(1 << w for w in ws) for ws in petersen]], dtype=np.uint16)
    for masks in (next(blocks), next(blocks), petersen):
        stack = adjacency(masks)
        assert stack.dtype == np.float32
        assert np.array_equal(walk_keys(stack), exact_walk_keys(stack))



@pytest.mark.parametrize("n, disconnected", [(8, 1), (10, 2)])
def test_walk_keys_fix_connectivity(n, disconnected):
    # the scan decides connectivity once per key, on the key's first graph
    masks = np.concatenate(list(cubic_masks(n)))
    keys = np.concatenate([walk_keys(adjacency(block)) for block in cubic_masks(n)])
    _, inverse = np.unique(keys, axis=0, return_inverse=True)
    per_key = {}
    for key, connected in zip(inverse.ravel().tolist(), masks_connected(masks).tolist()):
        per_key.setdefault(key, set()).add(connected)
    assert all(len(kinds) == 1 for kinds in per_key.values())
    assert list(per_key.values()).count({False}) == disconnected


def test_scan_cubic10_fingerprint_collision_raises(monkeypatch):
    main = runpy.run_path(str(SCAN))["main"]
    monkeypatch.setitem(main.__globals__, "WEIGHTS", (0,) * 8)
    monkeypatch.setattr(sys, "argv", [str(SCAN), "--progress", "0"])
    with pytest.raises(RuntimeError, match="fingerprint"):
        main()


def test_scan_cubic10_rejects_negative_progress(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(SCAN), "--progress", "-5"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCAN), run_name="__main__")
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "--progress must be 0 or more, got -5" in captured.err
    assert captured.out == ""

def test_scan_cubic10_finds_certified_petersen(monkeypatch, capsys):
    eigvalsh = np.linalg.eigvalsh
    solved = []

    def counted(a):
        assert a.dtype == np.float64
        solved.append(a.size // a.shape[-1] ** 2)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    lines = run_scan(monkeypatch, capsys, 0)
    # 19 spectra among the 132930 graphs, plus certify's one eigensolve.
    assert sum(solved) <= 20
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
    beats = [re.fullmatch(r"  scanned (\d+) graphs, running min lambda_2 = (\S+)", line)
             for line in lines if line.lstrip().startswith("scanned ")]
    assert all(beats) and len(beats) == 132930 // 50000
    counts = [int(beat[1]) for beat in beats]
    minima = [float(beat[2]) for beat in beats]
    # A heartbeat comes at the first block boundary at or past each multiple.
    for m, count in enumerate(counts, 1):
        assert m * 50000 <= count < m * 50000 + BLOCK_ROWS
    assert minima == sorted(minima, reverse=True)
    assert beats[-1][2] == "1.000000000"


def test_snapshot_outputs_raise_nothing(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "argv", [str(SNAPSHOT), str(tmp_path)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SNAPSHOT), run_name="__main__")
    assert exit_info.value.code == 0
    outputs = sorted(tmp_path.glob("*.txt"))
    assert len(outputs) == 170
    raised = [p.name for p in outputs if p.read_text().startswith("exit: raised")]
    assert raised == []


def line_of(module: str, text: str) -> str:
    """`src/expanderlp/<module>.py:<n>` for the one line of the module that is text."""
    path = SCRIPTS.parent / "src" / "expanderlp" / f"{module}.py"
    (n,) = [i for i, line in enumerate(path.read_text().splitlines(), 1) if line.strip() == text]
    return f"src/expanderlp/{module}.py:{n}"


def test_line_coverage_lists_unrun_lines():
    # README's example certifies Petersen and checks its attainment; the
    # __main__ guard runs only when the module is a script
    done = subprocess.run(
        [sys.executable, str(LINE_COVERAGE), "-q", "-p", "no:cacheprovider", "tests/test_readme.py"],
        cwd=SCRIPTS.parent, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    summary = re.fullmatch(r"(\d+) of (\d+) executable lines in src/expanderlp never ran", lines[-1])
    assert summary and 0 < int(summary[1]) < int(summary[2])
    unrun = [line for line in lines if line.startswith("src/")]
    assert len(unrun) == int(summary[1])
    assert all(re.fullmatch(r"src/expanderlp/\w+\.py:\d+", line) for line in unrun)
    assert line_of("cli", "sys.exit(main())") in unrun
    assert line_of("lpbound", "return TightnessReport(True, None, tight, residuals)") not in unrun
