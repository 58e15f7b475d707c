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
"""

from __future__ import annotations

import random
from typing import Iterator

import numpy as np

from .graphcore import Graph, is_connected

__all__ = [
    "random_regular_graph",
    "random_connected_regular",
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

# Rows per block that connected_cubic_masks yields; every chunk it expands
# has BLOCK_ROWS to 2 * BLOCK_ROWS - 1 rows, or all of a shorter run of
# children.  It caps the peak memory of the cubic-10 scan, whose largest array
# is a block's float32 stack of 10 x 10 adjacency matrices and their powers:
# 1024 rows take 400 KB per power.
BLOCK_ROWS = 1024


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
    """Every child of the (masks, deg) rows, parent by parent, each parent's in increasing w.

    u is the first unsaturated vertex of each row, and np.nonzero over the
    (rows, n) candidate matrix lists the (parent, w) pairs in that order.
    """
    vertices = np.arange(masks.shape[1], dtype=np.uint16)
    open_ = deg < 3
    u = open_.argmax(axis=1)
    rows = np.arange(len(masks))
    candidates = open_ & (vertices > u[:, None]) & (masks[rows, u][:, None] >> vertices == 0)
    parent, w = np.nonzero(candidates)
    u = u[parent]
    masks, deg = masks[parent], deg[parent]
    rows = np.arange(len(parent))
    masks[rows, u] |= (1 << w).astype(np.uint16)
    masks[rows, w] |= (1 << u).astype(np.uint16)
    deg[rows, u] += 1
    deg[rows, w] += 1
    return masks, deg


def connected_cubic_masks(n: int) -> Iterator[np.ndarray]:
    """The graphs of connected_cubic_graphs(n), in its order, as mask blocks.

    Yields uint16 arrays of shape (B, n) whose row holds one graph: bit w of
    entry u is set when u and w are adjacent.  Every block has B = BLOCK_ROWS
    rows but the last, which has 1 to BLOCK_ROWS.

    grow expands one chunk of rows of one depth.  At the leaf depth it yields
    the connected children; above it, it cuts the children, in order, into
    chunks of BLOCK_ROWS to 2 * BLOCK_ROWS - 1 rows (or one shorter chunk)
    and grows each to the leaves before the next.  The leaves are then
    regrouped into blocks.
    """
    _check_cubic_order(n)
    masks = np.zeros((1, n), dtype=np.uint16)
    masks[0, 0] = 0b1110
    masks[0, 1:4] = 1
    deg = np.zeros((1, n), dtype=np.uint8)
    deg[0, 0] = 3
    deg[0, 1:4] = 1
    leaf_depth = 3 * n // 2 - 3

    def grow(masks: np.ndarray, deg: np.ndarray, depth: int) -> Iterator[np.ndarray]:
        masks, deg = _children(masks, deg)
        if depth + 1 == leaf_depth:
            yield masks[_connected(masks)]
            return
        parts = max(1, len(masks) // BLOCK_ROWS)
        for chunk in zip(np.array_split(masks, parts), np.array_split(deg, parts)):
            yield from grow(*chunk, depth + 1)

    pending = masks[:0]
    for leaves in grow(masks, deg, 0):
        pending = np.concatenate([pending, leaves])
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
