"""Generation of regular test graphs: random sampling and exhaustive listing.

The exhaustive cubic listing grows labelled graphs one edge at a time, in
numpy, over rows of neighbour bitmasks.  Each round gives every open graph
one more edge, from u, its first vertex of degree below 3, to some w above
u and above every neighbour of u.  So the edges a leaf received form a
sequence, and the children of a state differ only in its next element: each
leaf is reached by exactly one sequence, and listing the children of a run
of states parent by parent, each parent's in increasing w, keeps them in
lexicographic order of those sequences.  That is the order of a depth-first
search that tries w in increasing order.

The search is that depth-first recursion, taken over chunks of rows rather
than single states: a chunk's children are cut, in order, into chunks of
the next depth, and each chunk's subtree is finished before the next chunk
starts.  So the leaves come out in depth-first order.

The recursion stops TAIL_EDGES edges above the leaves.  There a state's
completions depend only on its residual, made of its degree row and the
least partner its next edge may take (see cubic_masks), and many
states share one: at n = 10, 35,815 states have 1250 distinct residuals.
Each residual is completed once, and its completions are kept as XOR
deltas that every state with that residual ORs onto its masks.

cubic_masks yields every completion, connected or not; connected_cubic_masks
filters its blocks for connectivity and regroups them into full blocks.
"""

from __future__ import annotations

import random
from typing import Iterator

import numpy as np

from .graphcore import Graph, is_connected

__all__ = [
    "random_regular_graph",
    "random_connected_regular",
    "cubic_masks",
    "connected_cubic_masks",
    "connected_cubic_graphs",
]

# Pairings drawn by random_regular_graph before it gives up.  The pairing
# model needs about exp((k^2 - 1) / 4) draws for large n.  For k = 5 on 6 to
# 24 vertices the mean is at most about 2200 draws, so this budget turns such
# a graph down with probability about e^-23; at n = 64, k = 7 (mean about
# exp(12)) it gives up after seconds instead of running for minutes.
MAX_PAIRINGS = 50_000

# Simple graphs drawn by random_connected_regular before it gives up.  For
# k >= 3 almost every draw is connected; for k = 2 only the draws that form a
# single cycle are (about 2.5 / sqrt(n) of them: 0.11 at n = 512), so there
# this budget fails with probability about e^-116.
MAX_DRAWS = 1000

# Rows per block that connected_cubic_masks yields, and the most that
# cubic_masks yields; every chunk they expand has BLOCK_ROWS to
# 2 * BLOCK_ROWS - 1 rows, or all of a shorter run of children.  It caps
# the peak memory of the cubic-10 scan, whose largest arrays are a block's
# float32 stack of 10 x 10 adjacency matrices and their powers: 1024 rows
# take 400 KB per power.
BLOCK_ROWS = 1024

# Edges left to add when cubic_masks stops descending and completes
# each state from its residual.  At n = 10 the memo then holds 1250
# residuals with 2995 completions (60 KB), and _children sees 38,732 rows
# instead of the 888,542 of a descent to the leaves.
TAIL_EDGES = 5

# The degree of a vertex, and 1 plus its largest neighbour, from its
# neighbour mask, for n <= 10.
_DEGREE = np.array([m.bit_count() for m in range(1 << 10)], dtype=np.uint8)
_BIT_LENGTH = np.array([m.bit_length() for m in range(1 << 10)], dtype=np.uint8)


def random_regular_graph(n: int, k: int, rng: random.Random) -> Graph:
    """Uniform-ish random k-regular graph by the pairing model.

    Resamples until the pairing induces a simple graph, at most
    MAX_PAIRINGS times; past that raises ValueError.
    """
    if n * k % 2 or k >= n or k < 0:
        raise ValueError(f"no {k}-regular graph on {n} vertices exists")
    stubs = [v for v in range(n) for _ in range(k)]
    for _ in range(MAX_PAIRINGS):
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if any(u == v for u, v in pairs):
            continue
        if len({(min(u, v), max(u, v)) for u, v in pairs}) != len(pairs):
            continue
        return Graph.from_edges(n, pairs)
    raise ValueError(f"no simple pairing for a {k}-regular graph on {n} vertices in {MAX_PAIRINGS} attempts")


def random_connected_regular(n: int, k: int, rng: random.Random) -> Graph:
    """Random connected k-regular graph (rejection on connectivity).

    Raises ValueError up front when no connected k-regular graph on n
    vertices exists, and after MAX_DRAWS disconnected draws.
    """
    if n * k % 2 or not 0 <= k < n or (k < 2 and (n, k) not in ((1, 0), (2, 1))):
        raise ValueError(f"no connected {k}-regular graph on {n} vertices exists")
    for _ in range(MAX_DRAWS):
        g = random_regular_graph(n, k, rng)
        if is_connected(g):
            return g
    raise ValueError(f"no connected {k}-regular graph on {n} vertices in {MAX_DRAWS} draws")


def _check_cubic_order(n: int) -> None:
    if n % 2 or not 4 <= n <= 10:
        raise ValueError(f"cubic enumeration supports even n in 4..10, got {n}")


def _connected(masks: np.ndarray) -> np.ndarray:
    """Rows of neighbour bitmasks whose graph is connected, as a boolean vector."""
    bits = np.arange(masks.shape[1], dtype=np.uint16)
    reach = masks[:, 0] | np.uint16(1)
    while True:
        inside = (reach[:, None] >> bits) & 1 == 1
        grown = np.bitwise_or.reduce(np.where(inside, masks, 0), axis=1) | reach
        if (grown == reach).all():
            return reach == (1 << masks.shape[1]) - 1
        reach = grown


def _children(masks: np.ndarray, deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every child of the rows, parent by parent, each parent's in increasing w.

    deg holds the rows' degrees, _DEGREE[masks].  Returns the children's
    masks and the row of each one's parent.  u is the first unsaturated
    vertex of each row, and np.nonzero over the (rows, n) candidate matrix
    lists the (parent, w) pairs in that order.
    """
    vertices = np.arange(masks.shape[1], dtype=np.uint16)
    open_ = deg < 3
    u = open_.argmax(axis=1)
    rows = np.arange(len(masks))
    candidates = open_ & (vertices > u[:, None]) & (masks[rows, u][:, None] >> vertices == 0)
    parent, w = np.nonzero(candidates)
    u = u[parent]
    masks = masks[parent]
    rows = np.arange(len(parent))
    masks[rows, u] |= (1 << w).astype(np.uint16)
    masks[rows, w] |= (1 << u).astype(np.uint16)
    return masks, parent


def _descend(
    masks: np.ndarray, edges: int, origin: np.ndarray | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """The states `edges` edges below the rows, in depth-first order, in chunks.

    Yields (masks, origin) pairs.  origin, when given, has one entry per
    input row, and each output row gets the entry of the row it descends
    from.  Each depth's children are cut, in order, into chunks of BLOCK_ROWS
    to 2 * BLOCK_ROWS - 1 rows (or one shorter chunk), and each chunk is
    taken to the last depth before the next starts.  Only masks are held
    from depth to depth; degrees are looked up per chunk.
    """
    if not len(masks):
        return
    if edges == 0:
        yield masks, origin
        return
    masks, parent = _children(masks, _DEGREE[masks])
    parts = max(1, len(masks) // BLOCK_ROWS)
    origins = [None] * parts if origin is None else np.array_split(origin[parent], parts)
    del parent  # not held through the subtrees
    for chunk, chunk_origin in zip(np.array_split(masks, parts), origins):
        yield from _descend(chunk, edges - 1, chunk_origin)


def _residuals(masks: np.ndarray) -> np.ndarray:
    """Each row's residual as one int64: its degree row and the least partner u may take.

    Bits 2v and 2v + 1 hold the degree of v; the bits from 2n up hold 1 plus
    the larger of u and u's largest neighbour, u the first unsaturated
    vertex.
    """
    n = masks.shape[1]
    deg = _DEGREE[masks]
    u = (deg < 3).argmax(axis=1)
    least = _BIT_LENGTH[masks[np.arange(len(masks)), u] | 1 << u]
    return (deg.astype(np.int64) << 2 * np.arange(n)).sum(axis=1) | least.astype(np.int64) << 2 * n


class _Tails:
    """The completions of the residuals met so far in one enumeration.

    keys holds those residuals, sorted.  Residual keys[j] has spans[j] =
    (start, count): the completions of a state with that residual are its
    masks OR deltas[start:start + count], in depth-first order.
    """

    def __init__(self, n: int, edges: int):
        self.edges = edges
        self.keys = np.zeros(0, dtype=np.int64)
        self.spans = np.zeros((0, 2), dtype=np.intp)
        self.deltas = np.zeros((0, n), dtype=np.uint16)

    def slots(self, states: np.ndarray) -> np.ndarray:
        """The index in keys of each state's residual, learning the residuals not met before."""
        keys, first, inverse = np.unique(_residuals(states), return_index=True, return_inverse=True)
        # residuals are nonnegative, so the -1 past the end matches none
        new = np.append(self.keys, -1)[np.searchsorted(self.keys, keys)] != keys
        if new.any():
            self.learn(states[first[new]], keys[new])
        return np.searchsorted(self.keys, keys)[inverse]

    def learn(self, reps: np.ndarray, keys: np.ndarray) -> None:
        """Completes the states reps, one per new residual in keys, and files the completions.

        The completions come from _descend and are kept as XOR deltas against
        the state they grew from.
        """
        count = np.zeros(len(reps), dtype=np.intp)
        parts = [self.deltas]
        for leaves, origin in _descend(reps, self.edges, np.arange(len(reps))):
            parts.append(leaves ^ reps[origin])
            count += np.bincount(origin, minlength=len(reps))
        start = len(self.deltas) + np.cumsum(count) - count
        place = np.searchsorted(self.keys, keys)
        self.keys = np.insert(self.keys, place, keys)
        self.spans = np.insert(self.spans, place, np.stack([start, count], axis=1), axis=0)
        self.deltas = np.concatenate(parts)

    def complete(self, states: np.ndarray) -> Iterator[np.ndarray]:
        """The completions of the states, in order, BLOCK_ROWS at a time."""
        slot = self.slots(states)  # before reading spans, which it may extend
        start, count = self.spans[slot].T
        ends = np.cumsum(count)
        # completion i of the run lies in delta row i + shift[state]
        shift = start - ends + count
        for lo in range(0, int(ends[-1]), BLOCK_ROWS):
            i = np.arange(lo, min(lo + BLOCK_ROWS, int(ends[-1])))
            state = np.searchsorted(ends, i, side="right")
            yield states[state] | self.deltas[i + shift[state]]


def cubic_masks(n: int) -> Iterator[np.ndarray]:
    """Every cubic graph on n vertices with N(0) = {1, 2, 3}, connected or not, as mask blocks.

    Yields uint16 arrays of shape (B, n), 1 <= B <= BLOCK_ROWS, whose row
    holds one graph: bit w of entry u is set when u and w are adjacent.  The
    rows come in depth-first order.  Blocks are cut per chunk of states, so
    the last block of each chunk may be short.

    _descend takes the root to the states TAIL_EDGES edges above the leaves,
    a chunk at a time, and _Tails completes each state from its residual:
    its degree row and t, 1 plus the larger of u and u's largest neighbour,
    u its first unsaturated vertex.  The next edge joins u to an unsaturated
    w >= t, so the residual fixes the choices of the next edge, and it fixes
    the child's residual too.  The child's degree row is the parent's with
    u and w raised by one.  If u is still unsaturated, w is its largest
    neighbour and the child's t is w + 1.  Otherwise the child's u' lies
    above u, and each neighbour of u' was joined to it as the first
    unsaturated vertex of its time, so lies at or below u: the child's t is
    u' + 1.  So by induction on the edges left, the residual fixes which
    edges each completion adds, and in what order.  The memo lives in this
    call only.
    """
    _check_cubic_order(n)
    masks = np.zeros((1, n), dtype=np.uint16)
    masks[0, 0] = 0b1110
    masks[0, 1:4] = 1
    leaf_depth = 3 * n // 2 - 3
    tails = _Tails(n, min(TAIL_EDGES, leaf_depth))
    for states, _ in _descend(masks, leaf_depth - tails.edges):
        yield from tails.complete(states)


def connected_cubic_masks(n: int) -> Iterator[np.ndarray]:
    """The graphs of connected_cubic_graphs(n), in its order, as mask blocks.

    The connected rows of cubic_masks(n), in its order and in its mask
    layout, regrouped so that every block has B = BLOCK_ROWS rows but the
    last, which has 1 to BLOCK_ROWS.  The connectivity filter sits here,
    above the one enumeration, so a caller that can decide connectivity
    more cheaply (as the cubic-10 scan does, once per spectrum) reads
    cubic_masks instead.
    """
    _check_cubic_order(n)
    pending = np.zeros((0, n), dtype=np.uint16)
    for leaves in cubic_masks(n):
        pending = np.concatenate([pending, leaves[_connected(leaves)]])
        while len(pending) >= BLOCK_ROWS:
            yield pending[:BLOCK_ROWS]
            pending = pending[BLOCK_ROWS:]
    if len(pending):
        yield pending


def connected_cubic_graphs(n: int) -> Iterator[Graph]:
    """All connected labeled cubic graphs on n vertices with N(0) = {1, 2, 3}.

    Fixing the neighborhood of vertex 0 breaks part of the labeling symmetry
    while still visiting every isomorphism class at least once, so spectral
    extremality scans over the output cover all connected cubic graphs on n
    vertices.  Guarded at n <= 10.  Decodes the blocks of
    connected_cubic_masks(n), in their order.
    """
    _check_cubic_order(n)
    neighbors = [tuple(v for v in range(n) if m >> v & 1) for m in range(1 << n)]
    for block in connected_cubic_masks(n):
        for row in block.tolist():
            yield Graph(n, tuple(neighbors[m] for m in row))
