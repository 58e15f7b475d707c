"""Simple undirected graphs: graph6 serialization and combinatorial metrics."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

import numpy as np

__all__ = [
    "Graph",
    "Graph6Error",
    "SizeCapError",
    "parse_graph6",
    "write_graph6",
    "regularity",
    "is_connected",
    "is_bipartite",
    "girth_bfs",
    "all_pairs_distances",
    "distance_matrix",
    "diameter",
    "nonbacktracking_walk_count",
    "IntersectionArray",
    "is_distance_regular",
    "ExpansionResult",
    "edge_expansion",
]

GRAPH6_HEADER = b">>graph6<<"
GRAPH6_WRITE_CAP = 100_000
EXPANSION_CAP = 24
WALK_LENGTH_CAP = 12


class Graph6Error(ValueError):
    """Malformed graph6 input; offset is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class SizeCapError(ValueError):
    """Input exceeds a documented size cap of this package."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 0..n-1 with sorted adjacency lists."""

    n: int
    neighbors: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n = {n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            adj[u].add(v)
            adj[v].add(u)
        return Graph(n, tuple(tuple(sorted(s)) for s in adj))

    def degree(self, u: int) -> int:
        return len(self.neighbors[u])

    def edge_count(self) -> int:
        return sum(len(s) for s in self.neighbors) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.neighbors[u]:
                if u < v:
                    yield (u, v)

    def adjacency_matrix(self, dtype=np.int64) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=dtype)
        for u in range(self.n):
            for v in self.neighbors[u]:
                a[u, v] = 1
        return a


def _g6_size(body: bytes, base: int) -> tuple[int, int]:
    """Decode the leading size field; returns (n, bytes consumed)."""
    b0 = body[0]
    if not 63 <= b0 <= 126:
        raise Graph6Error(f"byte {b0} outside graph6 range 63..126", base)
    if b0 != 126:
        return b0 - 63, 1
    if len(body) >= 2 and body[1] == 126:
        chunk, pos = body[2:8], 2
        if len(chunk) < 6:
            raise Graph6Error("truncated size field", base + len(body))
    else:
        chunk, pos = body[1:4], 1
        if len(chunk) < 3:
            raise Graph6Error("truncated size field", base + len(body))
    n = 0
    for off, b in enumerate(chunk):
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b} outside graph6 range 63..126", base + pos + off)
        n = (n << 6) | (b - 63)
    return n, pos + len(chunk)


def parse_graph6(data) -> Graph:
    """Parse one graph6 word (optional >>graph6<< header allowed)."""
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error("non-ASCII input", exc.start) from None
    base = 0
    if data.startswith(GRAPH6_HEADER):
        base = len(GRAPH6_HEADER)
        data = data[base:]
    if not data:
        raise Graph6Error("empty graph6 string", base)
    n, pos = _g6_size(data, base)
    bits_needed = n * (n - 1) // 2
    need = (bits_needed + 5) // 6
    if len(data) - pos < need:
        raise Graph6Error("truncated adjacency data", base + len(data))
    if len(data) - pos > need:
        raise Graph6Error("trailing garbage", base + pos + need)
    vals = []
    for off in range(need):
        b = data[pos + off]
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b} outside graph6 range 63..126", base + pos + off)
        vals.append(b - 63)
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if (vals[idx // 6] >> (5 - idx % 6)) & 1:
                edges.append((i, j))
            idx += 1
    if bits_needed % 6:
        mask = (1 << (6 - bits_needed % 6)) - 1
        if vals[-1] & mask:
            raise Graph6Error("nonzero padding bits", base + pos + need - 1)
    return Graph.from_edges(n, edges)


def write_graph6(g: Graph) -> bytes:
    """Encode a graph as a canonical graph6 word (no header)."""
    n = g.n
    if n > GRAPH6_WRITE_CAP:
        raise SizeCapError(f"graph6 writer capped at {GRAPH6_WRITE_CAP} vertices, got {n}")
    out = bytearray()
    if n <= 62:
        out.append(n + 63)
    elif n <= 258047:
        out.append(126)
        for shift in (12, 6, 0):
            out.append(((n >> shift) & 63) + 63)
    else:
        out.append(126)
        out.append(126)
        for shift in (30, 24, 18, 12, 6, 0):
            out.append(((n >> shift) & 63) + 63)
    acc = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (1 if g.has_edge(i, j) else 0)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc, nbits = 0, 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out)


def regularity(g: Graph) -> Optional[int]:
    """Common degree if the graph is regular, else None."""
    if g.n == 0:
        return None
    degs = {len(s) for s in g.neighbors}
    return degs.pop() if len(degs) == 1 else None


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in g.neighbors[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == g.n


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.neighbors[u]:
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def girth_bfs(g: Graph) -> Optional[int]:
    """Length of a shortest cycle; None if acyclic.

    The name is historical: the girth comes out of the all-sources level
    sweep `_level_sweep`, not a BFS from every root.
    """
    return _level_sweep(g)[1]


def all_pairs_distances(g: Graph) -> np.ndarray:
    """Distance matrix by the all-sources level sweep; -1 marks unreachable pairs."""
    return _level_sweep(g)[0]


def distance_matrix(g: Graph, i: int) -> np.ndarray:
    """Boolean matrix of the pairs at distance exactly i; requires connectivity."""
    if not is_connected(g):
        raise ValueError("distance matrix requires a connected graph")
    if i < 0:
        raise ValueError("distance must be nonnegative")
    return all_pairs_distances(g) == i


def diameter(g: Graph) -> int:
    if g.n == 0 or not is_connected(g):
        raise ValueError("diameter requires a nonempty connected graph")
    return int(all_pairs_distances(g).max())


def nonbacktracking_walk_count(g: Graph, u: int, w: int, length: int) -> int:
    """Number of length-i walks u -> w with no immediate backtracking.

    Pure enumeration; serves as the independent oracle for the polynomial
    evaluation route.  Guarded at length <= 12.
    """
    if length < 0:
        raise ValueError("walk length must be nonnegative")
    if length > WALK_LENGTH_CAP:
        raise ValueError(f"walk enumeration capped at length {WALK_LENGTH_CAP}")
    if not (0 <= u < g.n and 0 <= w < g.n):
        raise ValueError("vertex out of range")
    if length == 0:
        return 1 if u == w else 0
    nb = g.neighbors

    def rec(prev: int, cur: int, remaining: int) -> int:
        if remaining == 0:
            return 1 if cur == w else 0
        return sum(rec(cur, nxt, remaining - 1) for nxt in nb[cur] if nxt != prev)

    return sum(rec(u, x, length - 1) for x in nb[u])


@dataclass(frozen=True)
class IntersectionArray:
    """Intersection numbers of a distance-regular graph.

    b holds b_0..b_{D-1} and c holds c_1..c_D; the a-sequence is derived as
    a_i = k - b_i - c_i with b_D = 0 and c_0 = 0.
    """

    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        if len(self.b) != len(self.c):
            raise ValueError("b and c sequences must have equal length")
        if self.b and self.c[0] != 1:
            raise ValueError("c_1 must equal 1")
        if any(x < 0 for x in self.b + self.c):
            raise ValueError("intersection numbers must be nonnegative")

    @property
    def diameter(self) -> int:
        return len(self.b)

    @property
    def a(self) -> tuple[int, ...]:
        if not self.b:
            return (0,)
        k = self.b[0]
        d = len(self.b)
        out = []
        for i in range(d + 1):
            bi = self.b[i] if i < d else 0
            ci = self.c[i - 1] if i >= 1 else 0
            out.append(k - bi - ci)
        return tuple(out)


def is_distance_regular(g: Graph) -> Optional[IntersectionArray]:
    """Intersection array if the graph is distance-regular, else None.

    Requires a connected regular graph; checks every ordered pair, so a
    returned array is a proof, not a heuristic.
    """
    if regularity(g) is None:
        raise ValueError("distance-regularity requires a regular graph")
    if not is_connected(g):
        raise ValueError("distance-regularity requires a connected graph")
    return _level_sweep(g)[2]


def _level_sweep(g: Graph) -> tuple[np.ndarray, Optional[int], Optional[IntersectionArray]]:
    """Distances, girth and intersection array from one all-sources level sweep.

    Level l+1 of every source x is every unreached y with a neighbour at
    level l.  Then down[x, y] and same[x, y] count the neighbours of y at
    distance dist(x, y) - 1 and dist(x, y) from x.  The girth is the least
    2l + 1 over reachable pairs with same > 0 and 2l over those with
    down >= 2: each pattern joins two distinct x-y paths of total length
    2l + 1 or 2l, so it closes a cycle at most that long, and a shortest
    cycle, being isometric, shows one of them from each of its vertices to
    the opposite edge or vertex.  On a connected k-regular graph c_l is down
    and b_l is k - down - same, required constant on each distance class;
    otherwise the array is None.  dist is int16 (int32 from 2**15 vertices
    on), -1 for unreachable pairs.
    """
    n = g.n
    width = max(map(len, g.neighbors), default=0)
    # neighbour lists padded with the sentinel column n
    nbr = np.full((n, width), n, dtype=np.intp)
    for y, row in enumerate(g.neighbors):
        nbr[y, : len(row)] = row
    dist = np.full((n, n + 1), -1, dtype=np.int16 if n < 2**15 else np.int32)
    level = np.eye(n, n + 1, dtype=bool)
    ell = 0
    while level.any():
        dist[level] = ell
        nxt = np.zeros_like(level)
        for j in range(width):
            nxt[:, :n] |= level[:, nbr[:, j]]
        nxt &= dist < 0
        level, ell = nxt, ell + 1
    dist[:, n] = n  # a padded slot lies farther than any vertex: never counted
    d = dist[:, :n]
    down = np.zeros((n, n), dtype=np.min_scalar_type(width))
    same = np.zeros_like(down)
    for j in range(width):
        # a neighbour of y lies at distance dist(x, y) - 1, dist(x, y) or + 1
        nd = dist[:, nbr[:, j]]
        down += nd < d
        same += nd == d
    reach = d >= 0
    odd = int(d.min(where=(same > 0) & reach, initial=n))
    even = int(d.min(where=(down > 1) & reach, initial=n))
    girth = min(2 * odd + 1, 2 * even) if min(odd, even) < n else None
    k = regularity(g)
    if k is None or not reach.all():
        return d, girth, None
    b, c = [], []
    for ell in range(int(d.max()) + 1):
        at = d == ell
        cs = down[at]
        bs = k - cs - same[at]
        if cs.min() != cs.max() or bs.min() != bs.max():
            return d, girth, None
        b.append(int(bs[0]))
        c.append(int(cs[0]))
    return d, girth, IntersectionArray(tuple(b[:-1]), tuple(c[1:]))


@dataclass(frozen=True)
class ExpansionResult:
    """Exact edge expansion h = min |boundary(S)| / |S| and a witness set."""

    h: Fraction
    witness: tuple[int, ...]


def edge_expansion(g: Graph) -> ExpansionResult:
    """Exact edge expansion over all subsets with |S| <= n/2 (n <= 24).

    Subsets are visited in Gray-code order with the boundary size maintained
    incrementally, so the scan is exhaustive but O(2^n * k).
    """
    n = g.n
    if n > EXPANSION_CAP:
        raise SizeCapError(f"edge expansion capped at {EXPANSION_CAP} vertices, got {n}")
    if n < 2:
        raise ValueError("edge expansion needs at least two vertices")
    half = n // 2
    nb = g.neighbors
    degs = [len(s) for s in nb]
    in_set = [False] * n
    in_count = [0] * n
    size = 0
    boundary = 0
    best_num = best_den = 0
    witness: tuple[int, ...] = ()
    for m in range(1, 1 << n):
        bit = (m & -m).bit_length() - 1
        if in_set[bit]:
            boundary -= degs[bit] - 2 * in_count[bit]
            for w in nb[bit]:
                in_count[w] -= 1
            in_set[bit] = False
            size -= 1
        else:
            boundary += degs[bit] - 2 * in_count[bit]
            for w in nb[bit]:
                in_count[w] += 1
            in_set[bit] = True
            size += 1
        if 1 <= size <= half:
            if best_den == 0 or boundary * best_den < best_num * size:
                best_num, best_den = boundary, size
                witness = tuple(v for v in range(n) if in_set[v])
    return ExpansionResult(Fraction(best_num, best_den), witness)
