"""Spectra of graphs and exact evaluation of sphere polynomials at adjacency matrices.

`measure` reads a graph once: the size cap, one level sweep for girth,
diameter and intersection array, then the spectrum, which a distance-regular
graph takes from its intersection array, a (D+1) x (D+1) eigenproblem with
Biggs' multiplicities, and every other graph from one n x n eigensolve of
its adjacency matrix.  `spectrum` is that measurement's spectrum, so every
entry point reads one spectrum for one graph.

Every matrix S_i(A) comes from one pass of the tree recurrence,
`sphere_poly_matrices`, which also decides once whether float64 products are
exact for the whole pass or Python-int products are needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .graphcore import Graph, IntersectionArray, SizeCapError, _level_sweep, is_connected, regularity
from .orthopoly import MAX_DEGREE, sphere_sequence

__all__ = [
    "SPECTRAL_SIZE_CAP",
    "Measurement",
    "Spectrum",
    "measure",
    "spectrum",
    "sphere_poly_matrices",
    "sphere_poly_matrix",
    "girth_spectral",
]

SPECTRAL_SIZE_CAP = 512

# float64 holds every integer below this exactly.
_FLOAT_SAFE = 2**53


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues with multiplicities, sorted descending."""

    entries: tuple[tuple[float, int], ...]

    @property
    def d(self) -> int:
        """Number of distinct eigenvalues below the largest."""
        return len(self.entries) - 1

    @property
    def top(self) -> float:
        return self.entries[0][0]

    @property
    def nontrivial(self) -> tuple[float, ...]:
        """Distinct eigenvalues other than the largest, descending."""
        return tuple(e for e, _ in self.entries[1:])


class Measurement(NamedTuple):
    """What `measure` reads from one nonempty graph."""

    k: Optional[int]
    girth: Optional[int]
    diameter: Optional[int]
    array: Optional[IntersectionArray]
    spectrum: Spectrum


def spectrum(g: Graph, tol: Optional[float] = None) -> Spectrum:
    """Eigenvalues of the adjacency matrix clustered into distinct values: `measure(g, tol).spectrum`."""
    return measure(g, tol).spectrum


def measure(g: Graph, tol: Optional[float] = None) -> Measurement:
    """Degree, girth, diameter, intersection array and clustered spectrum of a nonempty graph.

    The first four are None when the graph is irregular, acyclic,
    disconnected or not distance-regular.  A graph past the spectral size
    cap is a SizeCapError before any O(n^2) work; one `_level_sweep` then
    gives degree, girth, diameter and array from packed BFS levels, and its
    packed distances are freed before the eigensolve: no n x n distance
    matrix is held.
    With an array of degree k >= 2 the graph is distance-regular, and its
    D + 1 distinct eigenvalues and their multiplicities come from the array
    (`_array_spectrum`), with no n x n eigensolve; every other graph takes
    `eigvalsh` of its adjacency matrix, one value per vertex.
    Eigenvalues whose consecutive gaps are at most tol are merged into one
    entry whose value is the multiplicity-weighted mean of the cluster.
    Default tol is 1e-8 * max(1, max degree); a negative or non-finite tol
    is ValueError.  The top eigenvalue of a k-regular graph,
    connected or not, is exactly k; a tol so wide that the top cluster no
    longer sits at k is bad input: ValueError.
    """
    if g.n == 0:
        raise ValueError("spectrum of the empty graph is undefined")
    if g.n > SPECTRAL_SIZE_CAP:
        raise SizeCapError(f"eigensolver capped at {SPECTRAL_SIZE_CAP} vertices, got {g.n}")
    if tol is not None and not 0 <= tol < np.inf:
        raise ValueError(f"cluster tolerance must be finite and nonnegative, got {tol}")
    sweep = _level_sweep(g)
    k, girth, diameter, array = sweep.k, sweep.girth, sweep.diameter, sweep.array
    if tol is None:
        tol = 1e-8 * max(1, sweep.width)
    del sweep  # its packed distances go before any eigensolve
    if array is not None and k >= 2:
        eig, mult = _array_spectrum(array, g.n)
    else:
        eig = np.linalg.eigvalsh(g.adjacency_matrix(dtype=np.float64))[::-1]
        mult = np.ones(g.n, dtype=np.int64)
    ends = (np.flatnonzero(eig[:-1] - eig[1:] > tol) + 1).tolist() + [len(eig)]
    values, counts = eig.tolist(), mult.tolist()
    entries = []
    for start, stop in zip([0] + ends, ends):
        if stop - start == 1:
            entries.append((values[start], counts[start]))
        else:
            m = mult[start:stop]
            entries.append((float((eig[start:stop] * m).sum() / m.sum()), int(m.sum())))
    if k is not None:
        if abs(entries[0][0] - k) > 1e-6:
            raise ValueError("eigensolver sanity check failed: top eigenvalue far from k")
        entries[0] = (float(k), entries[0][1])
    return Measurement(k, girth, diameter, array, Spectrum(tuple(entries)))


def _array_spectrum(array: IntersectionArray, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct eigenvalues, descending, and multiplicities of a distance-regular graph on v vertices.

    The eigenvalues are the roots of the tridiagonal matrix L with rows
    (c_i, a_i, b_i), taken by `eigvalsh` of its symmetric form T, diagonal
    a_i and off-diagonals beta_i = sqrt(b_i c_{i+1}).  T's eigenvector with
    w_0 = 1 is w_i = sqrt(k_i) u_i for the standard sequence u of the root,
    so Biggs' formula m = v / sum_i k_i u_i^2 reads m = v / |w|^2
    (Biggs, Algebraic Graph Theory, ch. 21).  The multiplicities must round
    to integers >= 1 that sum to v.  A root within 1e-6 of an integer r at
    which the integer continuant det(rI - L) vanishes is exactly r.
    """
    a, b, c = array.a, array.b, array.c
    beta = np.sqrt(np.multiply(b, c, dtype=np.float64))
    roots = np.linalg.eigvalsh(np.diag(a).astype(np.float64) + np.diag(beta, 1) + np.diag(beta, -1))[::-1]
    # w_{i+1} = ((theta - a_i) w_i - beta_{i-1} w_{i-1}) / beta_i, with beta_{-1} = 0
    w_prev, w, beta_prev = 0.0, np.ones_like(roots), 0.0
    norm = np.ones_like(roots)
    for a_i, beta_i in zip(a, beta.tolist()):
        w_prev, w, beta_prev = w, ((roots - a_i) * w - beta_prev * w_prev) / beta_i, beta_i
        norm += w * w
    ratio = v / norm
    mult = np.rint(ratio)
    if (np.abs(ratio - mult) > 1e-6).any() or mult.min() < 1 or mult.sum() != v:
        raise ValueError("eigensolver sanity check failed: intersection-array multiplicities are not integers")
    for i, theta in enumerate(roots.tolist()):
        r = round(theta)
        if abs(theta - r) <= 1e-6:
            p_prev, p = 1, r - a[0]
            for j in range(1, len(a)):
                p_prev, p = p, (r - a[j]) * p - b[j - 1] * c[j - 1] * p_prev
            if p == 0:
                roots[i] = r
    return roots, mult.astype(np.int64)


def sphere_poly_matrices(g: Graph, upto: int) -> Iterator[np.ndarray]:
    """S_0(A), ..., S_upto(A) at the adjacency matrix A of a regular graph, lazily.

    Entry (u, w) of S_i(A) counts non-backtracking walks of length i from u
    to w, so the entries are nonnegative integers and the rows of A*S_i(A)
    sum to k*S_i(k).  Every value the recurrence forms is therefore at most
    k * max(S_0(k), ..., S_{upto-1}(k)), which is k*S_{upto-1}(k) for k >= 2:
    below 2**53 the products run in float64 (BLAS) and are exact, otherwise
    they run on Python ints.  This one decision, taken before the first
    product, is the package's only exactness guard.  Matrices are yielded as
    int64 arrays, or object arrays of Python ints.
    """
    k = regularity(g)
    if k is None:
        raise ValueError("polynomial evaluation requires a regular graph")
    dtype = np.float64 if k * max(sphere_sequence(k, k, upto - 1)) < _FLOAT_SAFE else object
    mats = sphere_sequence(
        k, g.adjacency_matrix(dtype=dtype), upto, one=np.eye(g.n, dtype=dtype), mul=np.dot
    )
    return (m.astype(np.int64) for m in mats) if dtype is np.float64 else mats


def sphere_poly_matrix(g: Graph, i: int) -> np.ndarray:
    """S_i evaluated at the adjacency matrix, entrywise exact integers.

    Entry (u, w) counts non-backtracking walks of length i from u to w.
    """
    if i < 0 or i > MAX_DEGREE:
        raise ValueError(f"index must lie in 0..{MAX_DEGREE}, got {i}")
    return next(islice(sphere_poly_matrices(g, i), i, None))


def girth_spectral(g: Graph) -> int:
    """Girth as the first index with a nonzero trace of S_i at the adjacency matrix."""
    k = regularity(g)
    if k is None:
        raise ValueError("spectral girth requires a regular graph")
    if not is_connected(g):
        raise ValueError("spectral girth requires a connected graph")
    if k < 2:
        raise ValueError("graph has no cycle")
    # While 2r + 1 < girth every radius-r ball is a tree on B_r(k) vertices,
    # so the first r with B_r(k) > n bounds the girth by 2r + 1.
    r = next(r for r, ball in enumerate(accumulate(sphere_sequence(k, k, g.n))) if ball > g.n)
    for i, mat in enumerate(sphere_poly_matrices(g, 2 * r + 1)):
        if i and np.trace(mat):
            return i
    raise RuntimeError("no nonzero trace up to the girth bound")

