"""Spans around expanderlp's public functions, installed from outside the package.

`Tracer.install` replaces each traced function, in every namespace of the
loaded package that refers to it, by a wrapper that records a span: start,
end and the enclosing span.  Self time is a span's duration minus the time
covered by its child spans.  Totals are kept per phase (one set-up, one
pass); the spans of the last set-up and the first pass are also kept in
full and written out as a trace file.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from fractions import Fraction

# (module, attribute) of every traced function.  The span name drops the
# package prefix: "graphcore.all_pairs_distances", "numpy.linalg.eigvalsh".
TRACED = (
    ("expanderlp.cli", "main"),
    ("expanderlp.families", "build"),
    ("expanderlp.enumeration", "connected_cubic_graphs"),
    ("expanderlp.enumeration", "random_regular_graph"),
    ("expanderlp.graphcore", "parse_graph6"),
    ("expanderlp.graphcore", "Graph.adjacency_matrix"),
    ("expanderlp.graphcore", "girth_bfs"),
    ("expanderlp.graphcore", "all_pairs_distances"),
    ("expanderlp.graphcore", "is_distance_regular"),
    ("expanderlp.graphcore", "diameter"),
    ("expanderlp.graphcore", "is_connected"),
    ("expanderlp.spectral", "spectrum"),
    ("expanderlp.spectral", "sphere_poly_matrix"),
    ("numpy.linalg", "eigvalsh"),
    ("expanderlp.orthopoly", "to_sphere_basis"),
    ("expanderlp.lpbound", "certificate_from_spectrum"),
    ("expanderlp.lpbound", "check_certificate"),
    ("expanderlp.lpbound", "check_attainment"),
    ("expanderlp.lpbound", "lp_bound_dual"),
    ("expanderlp.certify", "certify"),
)

GENERATORS = {"enumeration.connected_cubic_graphs"}


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('expanderlp.')}.{attr}"


def _rational(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[list] = []
        self.phases: dict[tuple, dict[int, list]] = {}
        self._cur: dict[int, list] = {}
        self._keep = False
        self._phase_code = 0
        self._restore: list[tuple] = []
        # spans kept in full, as parallel columns
        self.kept_name = array("i")
        self.kept_parent = array("q")
        self.kept_phase = array("b")
        self.kept_start = array("d")
        self.kept_end = array("d")

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def set_phase(self, phase: tuple | None, keep: bool = False) -> None:
        """Attribute the following spans to phase, e.g. ("setup", 0) or ("pass", 3)."""
        self._cur = {} if phase is None else self.phases.setdefault(phase, {})
        self._keep = keep and phase is not None
        self._phase_code = 0 if phase is None or phase[0] == "setup" else 1

    def count(self, nid: int, amount: int = 1) -> None:
        acc = self._cur.get(nid)
        if acc is None:
            acc = self._cur[nid] = [0.0, 0]
        acc[1] += amount

    def _enter(self) -> list:
        sid = -1
        if self._keep:
            sid = len(self.kept_name)
            self.kept_name.append(-1)
            self.kept_parent.append(self._stack[-1][2] if self._stack else -1)
            self.kept_phase.append(self._phase_code)
            self.kept_start.append(0.0)
            self.kept_end.append(0.0)
        frame = [0.0, 0.0, sid]
        self._stack.append(frame)
        frame[0] = time.perf_counter()
        return frame

    def _exit(self, nid: int, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        dur = end - frame[0]
        if stack:
            stack[-1][1] += dur
        acc = self._cur.get(nid)
        if acc is None:
            acc = self._cur[nid] = [0.0, 0]
        acc[0] += dur - frame[1]
        acc[1] += 1
        sid = frame[2]
        if sid >= 0:
            self.kept_name[sid] = nid
            self.kept_start[sid] = frame[0]
            self.kept_end[sid] = end

    def wrap(self, name: str, fn):
        if name in GENERATORS:
            return self._wrap_generator(name, fn)
        if name == "lpbound.lp_bound_dual":
            exact, floating = self._id(name + ".exact"), self._id(name + ".float")

            def lp_wrapper(k, eigenvalues, *args, **kwargs):
                nid = exact if all(_rational(t) for t in eigenvalues) else floating
                frame = self._enter()
                try:
                    return fn(k, eigenvalues, *args, **kwargs)
                finally:
                    self._exit(nid, frame)

            return lp_wrapper
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            frame = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(nid, frame)

        return wrapper

    def _wrap_generator(self, name: str, fn):
        nid, yielded = self._id(name), self._id(name + ".yielded")

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(nid, frame)
                self.count(yielded)
                yield item

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every TRACED function in the freshly imported package.

        A function is replaced wherever a package namespace holds it, so
        calls made inside the package through imported names are traced too.
        numpy.linalg.eigvalsh is patched on numpy.linalg and restored by
        uninstall.
        """
        package = [m for name, m in modules.items() if name == "expanderlp" or name.startswith("expanderlp.")]
        for module_name, attr in TRACED:
            owner = modules[module_name]
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, last)
            if getattr(original, "__wrapped_by_bench__", False):
                continue
            wrapper = self.wrap(span_name(module_name, attr), original)
            wrapper.__wrapped_by_bench__ = True
            setattr(owner, last, wrapper)
            if module_name == "numpy.linalg":
                self._restore.append((owner, last, original))
                continue
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in self._restore:
            setattr(owner, attr, original)
        self._restore.clear()

    def totals(self, phase: tuple) -> dict[str, tuple[float, int]]:
        return {self.names[nid]: (acc[0], acc[1]) for nid, acc in self.phases.get(phase, {}).items()}

    def write(self, path) -> None:
        """Kept spans as gzip JSON lines: id, parent, phase, name, start and end in microseconds."""
        origin = self.kept_start[0] if len(self.kept_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "python": sys.version.split()[0]}) + "\n")
            for i in range(len(self.kept_name)):
                phase = '"setup"' if self.kept_phase[i] == 0 else '"pass"'
                start = (self.kept_start[i] - origin) * 1e6
                end = (self.kept_end[i] - origin) * 1e6
                fh.write(f"[{i},{self.kept_parent[i]},{phase},{self.kept_name[i]},{start:.1f},{end:.1f}]\n")
