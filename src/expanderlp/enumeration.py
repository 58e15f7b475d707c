"""Generation of regular test graphs: random sampling and exhaustive listing.

The exhaustive cubic listing grows labelled graphs one edge at a time, in
numpy, over rows of neighbour bitmasks.  Each round gives every open graph
one more edge, from u, its first vertex of degree below 3, to some w above
u and above every neighbour of u.  So the edges a leaf received form a
sequence, and the children of a state differ only in its next element: each
leaf is reached by exactly one sequence, and listing the children of each
state in increasing w, parent by parent, lists every level in lexicographic
order of those sequences.  That is the order of a depth-first search that
tries w in increasing order.  Every leaf sits at the same depth, 3n/2 - 3
edges after the three at vertex 0, so the leaves come out in depth-first
order whichever way the levels are walked.
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

# Most rows held in one block of connected_cubic_masks.  Whole levels of the
# search do not fit: at n = 10 one level holds 310845 states.
BLOCK_ROWS = 512


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
    """Random connected k-regular graph (rejection on connectivity)."""
    while True:
        g = random_regular_graph(n, k, rng)
        if is_connected(g):
            return g


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


def connected_cubic_masks(n: int) -> Iterator[np.ndarray]:
    """The graphs of connected_cubic_graphs(n), in its order, as mask blocks.

    Yields uint16 arrays of shape (B, n), 1 <= B <= BLOCK_ROWS, whose row
    holds one graph: bit w of entry u is set when u and w are adjacent.

    The search keeps a stack of blocks of states at one depth each.  A block
    above the leaves is expanded by one round: u is the first unsaturated
    vertex of each row, and np.nonzero over the (rows, n) candidate matrix
    lists the children parent by parent, each parent's in increasing w, so
    the next level keeps the depth-first order (see the module docstring).
    The children are cut into pieces of at most BLOCK_ROWS rows, pushed in
    reverse so that the first piece is popped first.  A block of leaves is
    filtered for connectivity and yielded.
    """
    _check_cubic_order(n)
    masks = np.zeros((1, n), dtype=np.uint16)
    masks[0, 0] = 0b1110
    masks[0, 1:4] = 1
    deg = np.zeros((1, n), dtype=np.uint8)
    deg[0, 0] = 3
    deg[0, 1:4] = 1
    leaf_depth = 3 * n // 2 - 3
    vertices = np.arange(n, dtype=np.uint16)
    stack = [(masks, deg, 0)]
    while stack:
        masks, deg, depth = stack.pop()
        if depth == leaf_depth:
            masks = masks[_connected(masks)]
            if len(masks):
                yield masks
            continue
        open_ = deg < 3
        u = open_.argmax(axis=1)
        rows = np.arange(len(masks))
        candidates = (
            open_
            & (vertices > u[:, None])
            & (masks[rows, u][:, None] >> vertices == 0)
        )
        parent, w = np.nonzero(candidates)
        u = u[parent]
        masks, deg = masks[parent], deg[parent]
        rows = np.arange(len(parent))
        masks[rows, u] |= (1 << w).astype(np.uint16)
        masks[rows, w] |= (1 << u).astype(np.uint16)
        deg[rows, u] += 1
        deg[rows, w] += 1
        for start in reversed(range(0, len(rows), BLOCK_ROWS)):
            piece = slice(start, start + BLOCK_ROWS)
            stack.append((masks[piece], deg[piece], depth + 1))


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
