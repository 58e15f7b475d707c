"""Inputs the benchmark builds with its own code, independent of expanderlp.

Graphs are plain (n, edges) pairs.  Nothing here imports the package under
test, so the relabellings, graph6 words, W(q) incidence graphs and eigenvalue
sets handed to the program, and the facts the checks compare its outputs
against, do not depend on the code being measured.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from itertools import product


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    """The same graph under a uniformly random vertex permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def graph6_encode(n: int, edges) -> bytes:
    """graph6 word of a simple graph on fewer than 258048 vertices."""
    if n <= 62:
        out = bytearray([n + 63])
    else:
        out = bytearray([126] + [((n >> s) & 63) + 63 for s in (12, 6, 0)])
    bits = bytearray(n * (n - 1) // 2)
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        bits[j * (j - 1) // 2 + i] = 1
    bits.extend(b"\0" * (-len(bits) % 6))
    for p in range(0, len(bits), 6):
        b = bits[p : p + 6]
        out.append(63 + (b[0] << 5 | b[1] << 4 | b[2] << 3 | b[3] << 2 | b[4] << 1 | b[5]))
    return bytes(out)


def graph6_decode(word: str) -> tuple[int, list[set[int]]]:
    data = word.strip().encode("ascii")
    if data[0] != 126:
        n, pos = data[0] - 63, 1
    else:
        n, pos = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63), 4
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if (data[pos + idx // 6] - 63) >> (5 - idx % 6) & 1:
                edges.append((i, j))
            idx += 1
    return n, adjacency(n, edges)


def girth(adj: list[set[int]]) -> float:
    """Shortest cycle length by BFS from every vertex (inf if acyclic)."""
    best = math.inf
    for root in range(len(adj)):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            if 2 * dist[x] + 1 >= best:
                break
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif parent[x] != y:
                    best = min(best, dist[x] + dist[y] + 1)
    return best


def is_connected(adj: list[set[int]]) -> bool:
    seen = {0}
    queue = deque([0])
    while queue:
        for v in adj[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(adj)


def symplectic_quadrangle(q: int) -> tuple[int, list[tuple[int, int]]]:
    """Point-line incidence graph of the symplectic quadrangle W(q), q prime.

    Points are the points of PG(3, q); lines are the lines totally isotropic
    for x0*y1 - x1*y0 + x2*y3 - x3*y2.  W(q) is a generalised quadrangle of
    order (q, q), so the graph is (q+1)-regular on 2(q+1)(q^2+1) vertices
    with girth 8.
    """
    if q < 2 or any(q % p == 0 for p in range(2, q)):
        raise ValueError(f"W(q) is built here for prime q only, got {q}")

    def normal(vec):
        lead = next(x for x in vec if x)
        inv = pow(lead, -1, q)
        return tuple(x * inv % q for x in vec)

    points = sorted({normal(v) for v in product(range(q), repeat=4) if any(v)})
    index = {p: i for i, p in enumerate(points)}

    def form(x, y) -> int:
        return (x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2]) % q

    lines = set()
    for i, p in enumerate(points):
        for r in points[i + 1 :]:
            if form(p, r) == 0:
                span = frozenset(
                    index[normal(tuple((a * x + b * y) % q for x, y in zip(p, r)))]
                    for a in range(q) for b in range(q) if a or b
                )
                lines.add(span)
    n = len(points)
    edges = [(p, n + j) for j, line in enumerate(sorted(sorted(l) for l in lines)) for p in line]
    return n + len(lines), edges


def ball_poly_zeros(k: int, d: int) -> list[float]:
    """The d zeros of B_d = S_0 + ... + S_d for the k-regular tree, descending.

    B_d(A) = J for a Moore graph of degree k and diameter d, so these are the
    nontrivial eigenvalues such a graph would have.  The zeros are real,
    simple and inside [-2 sqrt(k-1), 2 sqrt(k-1)]; they are bracketed on a
    grid and bisected.
    """

    def ball(x: float) -> float:
        prev, cur, total = 1.0, x, 1.0 + x
        for m in range(2, d + 1):
            prev, cur = cur, x * cur - (k if m == 2 else k - 1) * prev
            total += cur
        return total

    edge = 2 * math.sqrt(k - 1)
    steps = 40 * d * d
    grid = [-edge + 2 * edge * i / steps for i in range(steps + 1)]
    zeros = []
    for lo, hi in zip(grid, grid[1:]):
        if ball(lo) * ball(hi) < 0:
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if ball(lo) * ball(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            zeros.append(0.5 * (lo + hi))
    if len(zeros) != d:
        raise RuntimeError(f"found {len(zeros)} zeros of B_{d} for k = {k}, expected {d}")
    return sorted(zeros, reverse=True)


def rational_near(x: float, denominator: int) -> Fraction:
    return Fraction(round(x * denominator), denominator)
