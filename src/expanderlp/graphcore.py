"""Simple undirected graphs: graph6 serialization and combinatorial metrics.

Girth, diameter and distance-regularity all come from one all-sources
level sweep, `_level_sweep`, over bit-packed rows: level l holds, for every
vertex y, the sources at distance l from y, one bit per source in uint64
words, and each level costs one gather and OR per neighbour slot (the
multi-source bit-parallel BFS of Then et al., "The More the Merrier", VLDB
2014).  The intersection array is proved on the same packed levels: below
the girth every ball is a tree, so c_i = 1 and a_i = 0 hold for every pair
without counting, and from the girth on the gathered rows are summed in
bit-sliced counters.  The sweep keeps no distances: `all_pairs_distances`
runs one breadth-first search per source, and `is_connected` one.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional

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
    the six bits of each nonzero byte are unpacked, and each set bit s,
    counted through the upper triangle column by column, is mapped back to
    its pair (i, j), i < j, with s = j(j - 1)/2 + i.  The pairs are distinct, so the neighbour
    tuples are slices of their arcs sorted by tail and head, with no
    per-edge set.  A malformed word raises Graph6Error at the offset of its
    first bad byte.
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
    vals = body - 63  # a byte below 63 wraps past 63
    bad = np.flatnonzero(vals > 63)
    if bad.size:
        off = int(bad[0])
        raise Graph6Error(f"byte {body[off]} outside graph6 range 63..126", base + pos + off)
    if need and vals[-1] & ((1 << (6 * need - bits_needed)) - 1):
        raise Graph6Error("nonzero padding bits", base + pos + need - 1)
    # the six bits of each nonzero byte, most significant first
    nz = np.flatnonzero(vals)
    byte, bit = np.nonzero(np.unpackbits(vals[nz, None], axis=1)[:, 2:])
    s = 6 * nz[byte] + bit
    col_start = np.arange(n) * (np.arange(n) - 1) // 2
    j = np.searchsorted(col_start, s, side="right") - 1
    i = s - col_start[j]
    # each pair i < j is both arcs (i, j) and (j, i); sorted by tail, then head
    tails, heads = np.concatenate([i, j]), np.concatenate([j, i])
    heads = heads[np.lexsort((heads, tails))].tolist()
    ends = np.cumsum(np.bincount(tails, minlength=n)).tolist()
    return Graph(n, tuple(tuple(heads[a:b]) for a, b in zip([0] + ends, ends)))


def write_graph6(g: Graph) -> bytes:
    """Encode a graph as a canonical graph6 word (no header)."""
    return _graph6_word(g).tobytes()


def _graph6_word(g: Graph) -> np.ndarray:
    """The graph6 word of `write_graph6` as a uint8 array, which a binary stream writes without a copy."""
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
    return word


def regularity(g: Graph) -> Optional[int]:
    """Common degree if the graph is regular, else None."""
    if g.n == 0:
        return None
    degs = {len(s) for s in g.neighbors}
    return degs.pop() if len(degs) == 1 else None


def _bfs(g: Graph, source: int) -> list[int]:
    """Distances from source by breadth-first search; -1 marks the vertices it does not reach."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.neighbors[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def is_connected(g: Graph) -> bool:
    return g.n == 0 or -1 not in _bfs(g, 0)


def girth_bfs(g: Graph) -> Optional[int]:
    """Length of a shortest cycle; None if acyclic.

    The name is historical: the girth comes out of the all-sources level
    sweep `_level_sweep`, not a BFS from every root.
    """
    return _level_sweep(g).girth


def all_pairs_distances(g: Graph) -> np.ndarray:
    """n x n int16 distances (int32 from 2**15 vertices on) by one BFS per source; -1 marks unreachable pairs."""
    dist = np.empty((g.n, g.n), dtype=np.int16 if g.n < 2**15 else np.int32)
    for s in range(g.n):
        dist[s] = _bfs(g, s)
    return dist


def diameter(g: Graph) -> int:
    diam = _level_sweep(g).diameter if g.n else None
    if diam is None:
        raise ValueError("diameter requires a nonempty connected graph")
    return diam


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

    Requires a connected regular graph.  Every ordered pair is checked, so a
    returned array is a proof, not a heuristic: below the girth g the ball of
    radius l around any vertex is a tree whenever 2l + 1 < g, which forces
    c_l = 1 and a_l = 0 for every pair at once, and from the level that
    shows the girth on, c and a are counted for every pair (`_level_sweep`).
    """
    sweep = _level_sweep(g)
    if sweep.k is None:
        raise ValueError("distance-regularity requires a regular graph")
    if sweep.diameter is None:
        raise ValueError("distance-regularity requires a connected graph")
    return sweep.array


class _Sweep(NamedTuple):
    """What one `_level_sweep` reads from a graph.

    k is the common degree (None if irregular) and width the largest; the
    diameter is None when the graph is disconnected.
    """

    k: Optional[int]
    width: int
    girth: Optional[int]
    diameter: Optional[int]
    array: Optional[IntersectionArray]


def _bit_sum(rows: np.ndarray) -> list[np.ndarray]:
    """Bitwise sum of packed rows as bit-sliced counters: bit b of the sum at each bit position is in sums[b].

    Each row is added with a ripple carry that stops at the highest plane the
    count so far can reach; rows is overwritten.
    """
    sums = [rows[0]]
    for j, row in enumerate(rows[1:], 2):
        carry = row
        for b, plane in enumerate(sums):
            if b + 1 == j.bit_length():  # j rows fit in b + 1 bits: no carry out
                plane ^= carry
                break
            nxt = plane & carry
            plane ^= carry
            carry = nxt
        else:
            sums.append(carry)
    return sums


def _common_sum(sums: list[np.ndarray], pairs: np.ndarray) -> Optional[int]:
    """The sum that every pair in the packed set pairs has, None if they differ; pairs is nonempty."""
    at = int(pairs.argmax())
    word = int(pairs.flat[at])
    bit = word & -word
    value = sum(1 << b for b, plane in enumerate(sums) if int(plane.flat[at]) & bit)
    differ = functools.reduce(np.bitwise_or, (~p if value >> b & 1 else p for b, p in enumerate(sums)))
    return None if (differ & pairs).any() else value


def _level_sweep(g: Graph) -> _Sweep:
    """Degree, girth, diameter and intersection array from one all-sources level sweep.

    Every set of sources is a packed row, one bit per vertex in uint64
    words (bit x of a row is bit x % 8 of its byte x // 8).  level[y] holds
    the sources x with dist(x, y) = l, and row n is the all-zero sentinel:
    the padded neighbour slots of an irregular graph, and the sentinel's own
    slots, point at it.  Levels are symmetric, so one step gathers the rows
    of y's neighbours, one per neighbour slot, and ORs them into once[y]:
    the sources with a neighbour of y at level l.  Level l+1 is
    once & unseen.

    The girth is read on the way.  A level-l vertex with a level-l
    neighbour (once & level) closes a walk of length 2l + 1 from x, and a
    new vertex with two level-l parents (twice, accumulated as
    twice |= once & row before once |= row) one of length 2l + 2; each
    joins two distinct x-y paths, so it closes a cycle at most that long,
    and a shortest cycle, being isometric, shows one of them from each of
    its vertices to the opposite edge or vertex.  The first level with
    either pattern gives the girth; after it, twice is not kept.

    So is the intersection array of a regular graph.  The gathered rows of
    step l, summed per pair, give S(x, y), the number of neighbours of y at
    distance l from x: c_{l+1}(x, y) on the pairs of level l+1 and a_l(x, y)
    on those of level l.  Below the girth every ball of radius l is a tree,
    and the girth tests say so for every pair at once: no once & level
    means a_l = 0, no twice & new means c_{l+1} = 1.  From the step that
    finds the girth on, the rows are summed into bit-sliced counters of
    ceil(log2(k + 1)) bits (`_bit_sum`), and every pair of a level must
    have the sum of one of them (`_common_sum`).  The first pair that
    differs ends the counting and the array is None, while the sweep goes
    on for the diameter.  Since b_l = k - c_l - a_l, equal c and a on every
    level of a connected regular graph is distance-regularity.
    """
    n = g.n
    tails, heads = _arcs(g)
    deg = np.bincount(tails, minlength=n)
    width = int(deg.max(initial=0))
    k = width if n and deg.min() == width else None
    # neighbour slots of every vertex, padded with the sentinel row n, which
    # is also the slot of the sentinel itself; at least one slot
    nbr = np.full((max(width, 1), n + 1), n, dtype=np.intp)
    nbr[np.arange(tails.size) - np.searchsorted(tails, tails), tails] = heads
    words = (n + 63) // 64
    level = np.zeros((n + 1, words), dtype=np.uint64)  # level 0 is x = y
    level.view(np.uint8)[np.arange(n), np.arange(n) // 8] = 1 << np.arange(n) % 8
    unseen = np.packbits(np.arange(64 * words) < n, bitorder="little").view(np.uint64) ^ level[:n]
    girth = None
    # a_0..a_l and c_1..c_{l+1} while the pairs of every level have agreed;
    # c is None for an irregular graph and from the first disagreement on
    a: list[int] = []
    c: Optional[list[int]] = [] if k is not None else None
    ell = 0
    while True:
        rows = level[nbr]
        if girth is None:
            once, twice = rows[0].copy(), np.zeros((n + 1, words), dtype=np.uint64)
            for row in rows[1:]:
                twice |= once & row
                once |= row
            if (once & level).any():
                girth = 2 * ell + 1
        else:
            once = np.bitwise_or.reduce(rows, axis=0)
        new = once[:n]
        new &= unseen
        grown = new.any()
        if girth is None and (twice[:n] & new).any():
            girth = 2 * ell + 2
        if c is not None:
            if girth is None:  # below the girth: a tree ball for every pair
                a_ell, c_next = 0, 1
            else:  # counted from the step that finds the girth on
                sums = _bit_sum(rows)
                a_ell = _common_sum(sums, level)
                c_next = _common_sum(sums, once) if grown else 0
            if a_ell is None or c_next is None:
                c = None
            else:
                a.append(a_ell)
                c.append(c_next)
        if not grown:
            break
        unseen ^= new
        ell += 1
        level = once
    diam = None if unseen.any() else ell
    array = None
    if c is not None and diam is not None:
        b = [k - ci - ai for ci, ai in zip([0] + c, a)]
        array = IntersectionArray(tuple(b[:ell]), tuple(c[:ell]))
    return _Sweep(k, width, girth, diam, array)


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
