"""Simple undirected graphs: graph6 serialization and combinatorial metrics."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
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
    "girth_bfs",
    "all_pairs_distances",
    "diameter",
    "IntersectionArray",
    "is_distance_regular",
    "ExpansionResult",
    "edge_expansion",
]

GRAPH6_HEADER = b">>graph6<<"
GRAPH6_WRITE_CAP = 100_000
EXPANSION_CAP = 24


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
        a[_arcs(self)] = 1
        return a


def _arcs(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of the 2|E| arcs (u, v), by u and then v ascending."""
    tails = np.repeat(np.arange(g.n), list(map(len, g.neighbors)))
    heads = np.fromiter(chain.from_iterable(g.neighbors), dtype=np.intp, count=len(tails))
    return tails, heads


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
    """Parse one graph6 word (optional >>graph6<< header allowed).

    The adjacency bytes are decoded as one array: each is range-checked,
    its six bits are unpacked, and each set bit s, counted through the upper
    triangle column by column, is mapped back to its pair (i, j), i < j,
    with s = j(j - 1)/2 + i.  A malformed word raises Graph6Error at the
    offset of its first bad byte.
    """
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
    body = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    bad = np.flatnonzero((body < 63) | (body > 126))
    if bad.size:
        off = int(bad[0])
        raise Graph6Error(f"byte {body[off]} outside graph6 range 63..126", base + pos + off)
    bits = np.unpackbits((body - 63)[:, None], axis=1)[:, 2:].ravel()
    if bits[bits_needed:].any():
        raise Graph6Error("nonzero padding bits", base + pos + need - 1)
    s = np.flatnonzero(bits)
    col_start = np.arange(n) * (np.arange(n) - 1) // 2
    j = np.searchsorted(col_start, s, side="right") - 1
    return Graph.from_edges(n, zip((s - col_start[j]).tolist(), j.tolist()))


def write_graph6(g: Graph) -> bytes:
    """Encode a graph as a canonical graph6 word (no header)."""
    n = g.n
    if n > GRAPH6_WRITE_CAP:
        raise SizeCapError(f"graph6 writer capped at {GRAPH6_WRITE_CAP} vertices, got {n}")
    # GRAPH6_WRITE_CAP < 258048, so the 4-byte size header always suffices
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126] + [((n >> shift) & 63) + 63 for shift in (12, 6, 0)])
    word = np.zeros(len(head) + (n * (n - 1) // 2 + 5) // 6, dtype=np.uint8)
    word[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    body = word[len(head) :]
    # bit p = j(j-1)/2 + i of the upper triangle, read column by column, is
    # bit 5 - p % 6 of body byte p // 6; no array is as long as the bit string
    i, j = _arcs(g)
    up = i < j
    p = j[up] * (j[up] - 1) // 2 + i[up]
    np.bitwise_or.at(body, p // 6, (32 >> p % 6).astype(np.uint8))
    body += 63
    return word.tobytes()


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


def girth_bfs(g: Graph) -> Optional[int]:
    """Length of a shortest cycle; None if acyclic.

    The name is historical: the girth comes out of the all-sources level
    sweep `_level_sweep`, not a BFS from every root.
    """
    return _level_sweep(g)[1]


def all_pairs_distances(g: Graph) -> np.ndarray:
    """Distance matrix by the all-sources level sweep; -1 marks unreachable pairs."""
    return _level_sweep(g)[0]


def diameter(g: Graph) -> int:
    dist = all_pairs_distances(g) if g.n else None
    if dist is None or (dist < 0).any():
        raise ValueError("diameter requires a nonempty connected graph")
    return int(dist.max())


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
    dist, _, array = _level_sweep(g)
    if (dist < 0).any():
        raise ValueError("distance-regularity requires a connected graph")
    return array


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

    Levels and distances are symmetric, so the sweep gathers whole rows,
    level[z] and dist[z] for the j-th neighbour z of every y, rather than
    columns, with row n as the sentinel; down and same come out transposed,
    which neither the girth minima nor the per-class constancy test can
    tell.  Rather than scattering l into each level, every step adds 1 to
    each pair not yet reached, so dist(x, y) counts the levels before y's.
    """
    n = g.n
    width = max(map(len, g.neighbors), default=0)
    # neighbour lists padded with the sentinel row n
    tails, heads = _arcs(g)
    nbr = np.full((n, width), n, dtype=np.intp)
    nbr[tails, np.arange(tails.size) - np.searchsorted(tails, tails)] = heads
    seen = np.eye(n + 1, n, dtype=bool)
    level = seen.copy()
    dist = (~seen).astype(np.int16 if n < 2**15 else np.int32)
    while level.any():
        nxt = np.zeros_like(level)
        for j in range(width):
            nxt[:n] |= level[nbr[:, j]]
        level = nxt & ~seen
        seen |= level
        dist += ~seen
    dist[~seen] = -1
    dist[n] = n  # a padded slot lies farther than any vertex: never counted
    d = dist[:n]
    down = np.zeros((n, n), dtype=np.min_scalar_type(width))
    same = np.zeros_like(down)
    for j in range(width):
        # a neighbour of y lies at distance dist(x, y) - 1, dist(x, y) or + 1
        nd = dist[nbr[:, j]]
        down += nd < d
        same += nd == d
    reach = d >= 0
    odd = int(d.ravel()[np.flatnonzero((same > 0) & reach)].min(initial=n))
    even = int(d.ravel()[np.flatnonzero((down > 1) & reach)].min(initial=n))
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
