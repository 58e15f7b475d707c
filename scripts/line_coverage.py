#!/usr/bin/env python3
"""Print the lines of src/expanderlp that a pytest run never executes.

Usage: line_coverage.py [PYTEST_ARGS...]

Uses the standard library only (`coverage` is not a dependency).  A line
tracer, installed with sys.settrace and threading.settrace and limited to
frames whose code lives under src/expanderlp, watches pytest.main(PYTEST_ARGS)
run in this process.  A line is executable when a code object compiled from
its file lists it in co_lines; every executable line that no traced frame
reached is printed as `src/expanderlp/<module>.py:<line>`, followed by one
summary line.  The exit status is pytest's.

    python3 scripts/line_coverage.py -q tests

A line run only in a subprocess, such as a `__main__` guard, is reported as
never run.
"""

import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "expanderlp"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that some code object compiled from path attributes an instruction to."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def line_tracer(lines: set[int]):
    """A frame's local trace function that adds each line it reaches to lines."""

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    ran: dict[str, set[int]] = {str(path): set() for path in PACKAGE.glob("*.py")}
    # co_filename -> its file's line tracer, or None outside the package
    tracers: dict[str, object] = {}

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            lines = ran.get(str(Path(filename).resolve()))
            tracers[filename] = None if lines is None else line_tracer(lines)
        return tracers[filename]

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = total = 0
    for filename in sorted(ran):
        lines = executable_lines(Path(filename))
        total += len(lines)
        for line in sorted(lines - ran[filename]):
            print(f"{Path(filename).relative_to(ROOT)}:{line}")
            unrun += 1
    print(f"{unrun} of {total} executable lines in src/expanderlp never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
