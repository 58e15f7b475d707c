#!/usr/bin/env python3
"""Exhaustive scan of connected cubic graphs on 10 vertices.

Enumerates every labeled connected 3-regular graph on 10 vertices (with the
neighborhood of vertex 0 pinned to {1,2,3} to cut label symmetry), tracks the
minimum second-largest adjacency eigenvalue, and certifies the winner.  The
minimum is attained by the petersen graph at lambda_2 = 1.

The graphs arrive as blocks of neighbour bitmasks from cubic_masks, which
completes the last five edges of each graph from a memo of 1250 residuals
and yields the 133105 cubic completions, connected or not.  Each graph's key
is its closed-walk counts tr A^j for j = 3..10, exact integers.  By Newton's
identities the power sums tr A^j, j = 1..n, fix the characteristic
polynomial of an n x n matrix, and every cubic graph on 10 vertices has
tr A = 0 and tr A^2 = 30, so two graphs with one key have one spectrum.  The
spectrum of a k-regular graph fixes its number of components, the
multiplicity of the eigenvalue k, so the key fixes connectivity too.  The
completions have 21 keys: 19 spectra of connected graphs, and K4 + K3,3 and
K4 + prism.  So the scan does its per-graph work once per key: the first
graph with a new key is tested by breadth-first search, a connected one is
solved by eigvalsh on a float64 copy of its matrix, and a disconnected key
gets lambda_2 = inf, so its graphs are neither counted nor able to win.

Per block, the adjacency stack is gathered from a 1024 x 10 float32 row
table into a buffer made once per scan, and walk_keys forms the three
powers it needs in buffers made once per scan too; the keys are exact in
float32 (see walk_keys).  Each key is looked up by its fingerprint, a fixed
odd-weighted sum of its traces mod 2^64, in a table of the keys met so far,
sorted by fingerprint; one gather then reads every graph's lambda_2.  Every
row's full key is compared with its table entry, so two keys with one
fingerprint raise RuntimeError rather than share a spectrum.  The scan's
input is fixed, so a run that passes once cannot collide later.

Relabelled graphs share one float lambda_2, and the winner is the first
graph, in enumeration order, with the least lambda_2.  A heartbeat is
printed at the first block boundary at or past each multiple of N graphs.
"""

import argparse
import sys
import time

import numpy as np

from expanderlp import Graph, certify, girth_bfs, is_connected, write_graph6
from expanderlp.enumeration import BLOCK_ROWS, cubic_masks

N = 10

# Odd weights of a walk key's fingerprint, sum(WEIGHTS[j] * key[j]) mod 2^64.
WEIGHTS = (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xD6E8FEB86659FD93,
    0xA0761D6478BD642F, 0xE7037ED1A0B428DB, 0x8EBC6AF09C88C6E3, 0x589965CC75374CC3,
)


def walk_keys(adjacency: np.ndarray, powers: np.ndarray | None = None) -> np.ndarray:
    """tr A^j for j = 3..10 of each matrix in a (B, n, n) float stack, as int64.

    A^2, A^4 = A^2 A^2 and A^5 = A A^4 are formed in powers, a (3, B, n, n)
    buffer of the stack's dtype, allocated here when not given.  tr A^4 and
    tr A^5 are diagonal sums; the other traces are tr A^(a+b) = <A^a, A^b>,
    the sum of the entries of A^a * A^b, since the powers are symmetric.
    For a cubic graph on at most 10 vertices every entry of A^j, j <= 5, is
    at most 3^5, and every trace at most 10 * 3^10 = 590490 < 2^24.  Each
    product and partial sum is a nonnegative integer no larger than the
    entry or trace it adds up to, so even a float32 stack, whose integers
    are exact below 2^24, gives exact keys.
    """
    if powers is None:
        powers = np.empty((3, *adjacency.shape), adjacency.dtype)
    a2, a4, a5 = powers
    np.matmul(adjacency, adjacency, out=a2)
    np.matmul(a2, a2, out=a4)
    np.matmul(adjacency, a4, out=a5)
    inner = [np.einsum("bij,bij->b", x, y)
             for x, y in ((adjacency, a2), (a2, a4), (a2, a5), (a4, a4), (a4, a5), (a5, a5))]
    diagonal = [np.einsum("bii->b", x) for x in (a4, a5)]
    return np.stack(inner[:1] + diagonal + inner[1:], axis=1).astype(np.int64)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--progress", type=int, default=25000, metavar="N",
                        help="print a heartbeat every N graphs (0 disables)")
    args = parser.parse_args()
    if args.progress < 0:
        parser.error(f"--progress must be 0 or more, got {args.progress}")

    start = time.monotonic()
    rows = ((np.arange(1 << N)[:, None] >> np.arange(N)) & 1).astype(np.float32)
    stack = np.empty((BLOCK_ROWS, N, N), np.float32)
    powers = np.empty((3, BLOCK_ROWS, N, N), np.float32)
    weights = np.array(WEIGHTS, dtype=np.uint64)
    # the keys met so far, sorted by fingerprint, and their lambda_2
    prints = np.zeros(0, dtype=np.uint64)
    keys = np.zeros((0, 8), dtype=np.int64)
    lambda2 = np.zeros(0)
    best = np.inf
    best_adjacency = None
    count = 0
    for block in cubic_masks(N):
        adjacency = np.take(rows, block, axis=0, out=stack[:len(block)], mode="clip")
        walks = walk_keys(adjacency, powers[:, :len(block)])
        found = walks.view(np.uint64) @ weights
        slot = np.searchsorted(prints, found)
        known = slot < len(prints)
        known[known] = prints[slot[known]] == found[known]
        if not known.all():
            fresh, first = np.unique(found[~known], return_index=True)
            first = np.flatnonzero(~known)[first]
            reps = adjacency[first]
            connected = np.array([is_connected(Graph.from_edges(N, np.argwhere(a).tolist())) for a in reps])
            solved = np.full(len(fresh), np.inf)
            solved[connected] = np.linalg.eigvalsh(reps[connected].astype(np.float64))[:, -2]
            place = np.searchsorted(prints, fresh)
            prints = np.insert(prints, place, fresh)
            keys = np.insert(keys, place, walks[first], axis=0)
            lambda2 = np.insert(lambda2, place, solved)
            slot = np.searchsorted(prints, found)
        if (keys[slot] != walks).any():
            raise RuntimeError("two walk keys share a fingerprint")
        second = lambda2[slot]
        i = int(np.argmin(second))
        if second[i] < best:
            best = second[i]
            best_adjacency = adjacency[i].copy()
        before, count = count, count + int(np.isfinite(second).sum())
        if args.progress and count // args.progress > before // args.progress:
            print(f"  scanned {count} graphs, running min lambda_2 = {best:.9f}")
    best_graph = Graph.from_edges(N, np.argwhere(best_adjacency).tolist())
    elapsed = time.monotonic() - start

    print(f"graphs scanned: {count}")
    print(f"minimum lambda_2: {best:.12f}")
    print(f"winner girth: {girth_bfs(best_graph)}")
    print(f"winner graph6: {write_graph6(best_graph).decode('ascii')}")
    print(f"elapsed: {elapsed:.1f}s")

    report = certify(best_graph)
    print(f"winner verdict: {report.verdict}")
    return 0 if report.verdict == "certified" else 1


if __name__ == "__main__":
    sys.exit(main())
