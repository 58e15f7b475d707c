"""Independent brute-force oracles used to cross-check the package implementations.

Everything here is deliberately naive: direct enumeration, schoolbook
polynomial arithmetic, no shared code paths with the library.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import reduce
from itertools import combinations

import numpy as np

from expanderlp import Graph, Graph6Error, SphereBasisPoly


def is_bipartite(g: Graph) -> bool:
    """Whether a connected k-regular graph is bipartite: iff -k is an adjacency eigenvalue."""
    least = np.linalg.eigvalsh(g.adjacency_matrix(dtype=np.float64))[0]
    return bool(abs(least + len(g.neighbors[0])) < 1e-9)


def eigenvalue_clusters(g: Graph, gap: float = 1e-6) -> list:
    """Distinct adjacency eigenvalues, descending, with multiplicities.

    One n x n eigvalsh; consecutive eigenvalues within gap form one value,
    their mean.
    """
    groups = []
    for x in np.linalg.eigvalsh(g.adjacency_matrix(dtype=np.float64))[::-1].tolist():
        if groups and groups[-1][-1] - x <= gap:
            groups[-1].append(x)
        else:
            groups.append([x])
    return [(sum(grp) / len(grp), len(grp)) for grp in groups]


def walk_count_matrix(g: Graph, length: int) -> np.ndarray:
    """Counts of non-backtracking walks of each ordered endpoint pair.

    Enumerates every walk explicitly from each start vertex.
    """
    n = g.n
    out = np.zeros((n, n), dtype=object)
    if length == 0:
        for u in range(n):
            out[u, u] = 1
        return out
    for u in range(n):
        frontier = [(u, v) for v in g.neighbors[u]]
        if length == 1:
            for _, v in frontier:
                out[u, v] += 1
            continue
        for _ in range(length - 1):
            nxt = []
            for prev, cur in frontier:
                for w in g.neighbors[cur]:
                    if w != prev:
                        nxt.append((cur, w))
            frontier = nxt
        for _, v in frontier:
            out[u, v] += 1
    return out



def trace_products(g: Graph, cert):
    """f_i * tr S_i(A) for i = 1..deg f, lazily, each trace counted walk by walk.

    tr S_i(A) is the number of closed non-backtracking walks of length i.
    """
    return (
        c * int(np.trace(walk_count_matrix(g, i)))
        for i, c in enumerate(cert.poly.coeffs[1:], start=1)
    )

def bfs_distances(g: Graph) -> np.ndarray:
    """Distance matrix by a plain BFS from each vertex; -1 marks unreachable pairs."""
    dist = np.full((g.n, g.n), -1, dtype=np.int64)
    for start in range(g.n):
        row = dist[start]
        row[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.neighbors[u]:
                if row[v] < 0:
                    row[v] = row[u] + 1
                    queue.append(v)
    return dist


def masks_connected(masks: np.ndarray) -> np.ndarray:
    """Whether each row of neighbour bitmasks is a connected graph, by a plain BFS from vertex 0."""
    full = (1 << masks.shape[1]) - 1
    connected = []
    for row in masks.tolist():
        seen, queue = 1, deque([0])
        while queue:
            fresh = row[queue.popleft()] & ~seen
            seen |= fresh
            while fresh:
                queue.append((fresh & -fresh).bit_length() - 1)
                fresh &= fresh - 1
        connected.append(seen == full)
    return np.array(connected, dtype=bool)

def girth_brute(g: Graph):
    """Shortest cycle length, or None if acyclic: for each edge uv, 1 + the shortest u-v path without uv."""
    best = None
    for u, v in g.edges():
        dist = {u: 0}
        queue = deque([u])
        while queue and v not in dist:
            w = queue.popleft()
            for z in g.neighbors[w]:
                if z not in dist and (w, z) != (u, v):
                    dist[z] = dist[w] + 1
                    queue.append(z)
        if v in dist and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


def intersection_array_brute(g: Graph):
    """(b, c) of a connected regular graph by the definition, or None.

    For every ordered pair (x, y) at distance l, counts the neighbours of y
    at distance l - 1 (c_l) and l + 1 (b_l) from x and requires each count
    to depend on l alone.
    """
    dist = bfs_distances(g)
    diam = int(dist.max())
    b: dict = {}
    c: dict = {}
    for x in range(g.n):
        for y in range(g.n):
            ell = int(dist[x, y])
            down = sum(1 for z in g.neighbors[y] if dist[x, z] == ell - 1)
            up = sum(1 for z in g.neighbors[y] if dist[x, z] == ell + 1)
            if b.setdefault(ell, up) != up or c.setdefault(ell, down) != down:
                return None
    return tuple(b[i] for i in range(diam)), tuple(c[i] for i in range(1, diam + 1))


def cubic_graphs_brute(n: int):
    """All connected 3-regular labeled graphs on n vertices with N(0) = {1,2,3}.

    Chooses the remaining edge set among vertices >= 1 by raw subset
    enumeration; usable up to n = 6.
    """
    fixed = [(0, 1), (0, 2), (0, 3)]
    rest = [e for e in combinations(range(1, n), 2)]
    need = 3 * n // 2 - 3
    for subset in combinations(rest, need):
        deg = {v: 0 for v in range(n)}
        deg[0] = 3
        for v in (1, 2, 3):
            deg[v] = 1
        ok = True
        for a, b in subset:
            deg[a] += 1
            deg[b] += 1
            if deg[a] > 3 or deg[b] > 3:
                ok = False
                break
        if not ok or any(deg[v] != 3 for v in range(n)):
            continue
        edges = fixed + list(subset)
        adj = {v: set() for v in range(n)}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == n:
            yield Graph.from_edges(n, edges)


def cubic_graphs_dfs(n: int):
    """connected_cubic_graphs(n), order included, by a recursive set-based search.

    Pins N(0) = {1, 2, 3}, then joins the first vertex of degree below 3 to
    each combination, in lexicographic order, of the later unsaturated
    vertices it still needs, depth first, and yields each connected
    completion.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    deg = [0] * n
    for v in (1, 2, 3):
        adj[0].add(v)
        adj[v].add(0)
        deg[0] += 1
        deg[v] += 1

    def complete():
        u = next((v for v in range(n) if deg[v] < 3), None)
        if u is None:
            g = Graph(n, tuple(tuple(sorted(s)) for s in adj))
            if (bfs_distances(g) >= 0).all():
                yield g
            return
        need = 3 - deg[u]
        candidates = [w for w in range(u + 1, n) if deg[w] < 3 and w not in adj[u]]
        for combo in combinations(candidates, need):
            for w in combo:
                adj[u].add(w)
                adj[w].add(u)
                deg[u] += 1
                deg[w] += 1
            yield from complete()
            for w in combo:
                adj[u].remove(w)
                adj[w].remove(u)
                deg[u] -= 1
                deg[w] -= 1

    yield from complete()


def divide_by_linear(coeffs, root):
    """Synthetic division of an ascending-coefficient polynomial by (x - root).

    Returns (quotient ascending, remainder).
    """
    desc = list(reversed(coeffs))
    out = [desc[0]]
    for c in desc[1:]:
        out.append(c + root * out[-1])
    rem = out[-1]
    quot = out[:-1]
    return tuple(reversed(quot)), rem


def eval_poly(coeffs, x):
    """Horner evaluation of ascending coefficients, exact on Fractions."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def mul_poly(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def from_roots(roots):
    """prod (x - r) over roots, as ascending coefficients."""
    return reduce(mul_poly, [(-r, 1) for r in roots], (1,))


def monomial_table(k: int, n: int) -> list:
    """S_0..S_n expanded in ascending powers of x, from the three-term recurrence on coefficient tuples."""
    table = [(1,), (0, 1)]
    for m in range(2, n + 1):
        c = k if m == 2 else k - 1
        prev = table[-2] + (0, 0)
        table.append(tuple(a - c * b for a, b in zip((0,) + table[-1], prev)))
    return table[: n + 1]


def sphere_poly_monomial(k: int, i: int) -> tuple:
    """S_i expanded in the monomial basis; coefficients are exact ints."""
    return monomial_table(k, i)[i]


def to_monomial(poly: SphereBasisPoly) -> tuple:
    """A sphere-basis polynomial expanded in the monomial basis, term by term."""
    out = [0] * (poly.degree + 1)
    for c, s in zip(poly.coeffs, monomial_table(poly.k, poly.degree)):
        for j, a in enumerate(s):
            out[j] += c * a
    return tuple(out)


def solve_gauss_jordan(M, rhs):
    """Solution of M x = rhs by Gauss-Jordan elimination over Fraction, or None if M is singular."""
    n = len(M)
    a = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(M, rhs)]
    for col in range(n):
        p = next((i for i in range(col, n) if a[i][col] != 0), None)
        if p is None:
            return None
        a[col], a[p] = a[p], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[col])]
    return [row[n] for row in a]


def list_bland(A: list, b: list, cost: list, unit: list, exact: bool) -> tuple[str, list, list]:
    """Minimize cost.z subject to A z = b, z >= 0, b >= 0, on Python lists.

    The list tableau that the numpy one in lpbound replaced, step for step:
    two phases with Bland's rule from the unit columns and one artificial
    per row without one; Fractions when exact, float64 with a pivot
    tolerance otherwise.  Returns the status and, when optimal, the final
    basis and its values, one per row left.
    """
    if exact:
        zero, one = Fraction(0), Fraction(1)
        tol = Fraction(0)
    else:
        zero, one = 0.0, 1.0
        tol = 1e-9
    m = len(A)
    real_cols = ncols = len(cost)
    art_col = {}
    for r in range(m):
        if unit[r] is None:
            art_col[r] = ncols
            ncols += 1
    tableau = [list(row) + [zero] * (ncols - real_cols) + [rhs] for row, rhs in zip(A, b)]
    basis = list(unit)
    for r, col in art_col.items():
        tableau[r][col] = one
        basis[r] = col

    def nonzero(a) -> bool:
        return a != zero if exact else abs(a) > tol

    def pivot(r: int, col: int) -> None:
        piv = tableau[r][col]
        tableau[r] = [a / piv for a in tableau[r]]
        for rr in range(len(tableau)):
            if rr != r and tableau[rr][col] != zero:
                f = tableau[rr][col]
                tableau[rr] = [a - f * b for a, b in zip(tableau[rr], tableau[r])]
        basis[r] = col

    def run(cost: list) -> str:
        width = len(tableau[0]) - 1
        z = list(cost[:width]) + [zero]
        for r in range(len(tableau)):
            cb = cost[basis[r]]
            if cb != zero:
                for j in range(width + 1):
                    z[j] = z[j] - cb * tableau[r][j]
        while True:
            enter = -1
            for j in range(width):
                if z[j] < -tol:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            best_ratio = None
            for r in range(len(tableau)):
                a = tableau[r][enter]
                if a > tol:
                    ratio = tableau[r][-1] / a
                    if best_ratio is None or ratio < best_ratio - tol or (
                        not ratio > best_ratio + tol and basis[r] < basis[leave]
                    ):
                        best_ratio = ratio
                        leave = r
            if leave < 0:
                return "unbounded"
            f = z[enter]
            pivot(leave, enter)
            if f != zero:
                for j in range(width + 1):
                    z[j] = z[j] - f * tableau[leave][j]

    if art_col:
        phase1 = [zero] * ncols
        for col in art_col.values():
            phase1[col] = one
        run(phase1)
        art_set = set(art_col.values())
        infeas = sum(tableau[r][-1] for r in range(len(tableau)) if basis[r] in art_set)
        if (infeas > zero) if exact else (infeas > 1e-7):
            return "infeasible", [], []
        drop = []
        for r in range(len(tableau)):
            if basis[r] in art_set:
                for j in range(real_cols):
                    if nonzero(tableau[r][j]):
                        pivot(r, j)
                        break
                else:
                    drop.append(r)
        if drop:
            tableau = [row for r, row in enumerate(tableau) if r not in drop]
            basis = [b for r, b in enumerate(basis) if r not in drop]
        tableau = [row[:real_cols] + [row[-1]] for row in tableau]
    status = run(cost) if tableau else "optimal"
    if status != "optimal":
        return status, [], []
    return "optimal", basis, [row[-1] for row in tableau]


def expansion_brute(g: Graph) -> Fraction:
    """Edge expansion by direct subset enumeration, no Gray-code tricks."""
    n = g.n
    best = None
    for size in range(1, n // 2 + 1):
        for sub in combinations(range(n), size):
            inside = set(sub)
            boundary = 0
            for v in sub:
                for w in g.neighbors[v]:
                    if w not in inside:
                        boundary += 1
            val = Fraction(boundary, size)
            if best is None or val < best:
                best = val
    return best


def graph6_decode(data) -> Graph:
    """graph6 word to Graph by a bit-at-a-time loop, raising Graph6Error like parse_graph6.

    Checks, in order: header, empty word, size field (range, truncation),
    adjacency length (truncation, trailing garbage), the range of each
    adjacency byte, then the padding bits of the last one.
    """
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error("non-ASCII input", exc.start) from None
    base = 0
    if data.startswith(b">>graph6<<"):
        base = len(b">>graph6<<")
        data = data[base:]
    if not data:
        raise Graph6Error("empty graph6 string", base)

    def value(off: int) -> int:
        b = data[off]
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b} outside graph6 range 63..126", base + off)
        return b - 63

    if data[0] != 126:
        n, pos = value(0), 1
    else:
        width, pos = (6, 2) if data[1:2] == b"~" else (3, 1)
        if len(data) < pos + width:
            raise Graph6Error("truncated size field", base + len(data))
        n = 0
        for off in range(pos, pos + width):
            n = (n << 6) | value(off)
        pos += width
    bits_needed = n * (n - 1) // 2
    need = (bits_needed + 5) // 6
    if len(data) - pos < need:
        raise Graph6Error("truncated adjacency data", base + len(data))
    if len(data) - pos > need:
        raise Graph6Error("trailing garbage", base + pos + need)
    vals = [value(pos + off) for off in range(need)]
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if (vals[idx // 6] >> (5 - idx % 6)) & 1:
                edges.append((i, j))
            idx += 1
    if bits_needed % 6 and vals[-1] & ((1 << (6 - bits_needed % 6)) - 1):
        raise Graph6Error("nonzero padding bits", base + pos + need - 1)
    return Graph.from_edges(n, edges)


def packbits_graph6(g: Graph) -> bytes:
    """graph6 word by a uint8 array of one entry per upper-triangle bit, packed six at a time.

    The writer's encoding before it set bits in the output bytes directly;
    it allocates n(n-1)/2 bytes, so keep n small.
    """
    n = g.n
    head = bytes([n + 63]) if n <= 62 else bytes([126] + [((n >> shift) & 63) + 63 for shift in (12, 6, 0)])
    bits = np.zeros(6 * ((n * (n - 1) // 2 + 5) // 6), dtype=np.uint8)
    for i, j in g.edges():
        i, j = min(i, j), max(i, j)
        bits[j * (j - 1) // 2 + i] = 1
    return head + ((np.packbits(bits.reshape(-1, 6), axis=1)[:, 0] >> 2) + 63).tobytes()


def graph6_encode(g: Graph) -> bytes:
    """graph6 word of a graph with at most 258047 vertices, six bits at a time."""
    n = g.n
    if n <= 62:
        out = bytearray([n + 63])
    else:
        out = bytearray([126] + [((n >> shift) & 63) + 63 for shift in (12, 6, 0)])
    acc = nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (1 if g.has_edge(i, j) else 0)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out)
