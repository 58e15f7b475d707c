"""Spectra of graphs and exact evaluation of sphere polynomials at adjacency matrices.

Every matrix S_i(A) comes from one pass of the tree recurrence,
`sphere_poly_matrices`, which also decides once whether float64 products are
exact for the whole pass or Python-int products are needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterator, Optional

import numpy as np

from .graphcore import Graph, SizeCapError, is_connected, regularity
from .orthopoly import MAX_DEGREE, sphere_sequence

__all__ = [
    "SPECTRAL_SIZE_CAP",
    "Spectrum",
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
    tol: float
    v: int

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


def spectrum(g: Graph, tol: Optional[float] = None) -> Spectrum:
    """Eigenvalues of the adjacency matrix clustered into distinct values.

    Eigenvalues whose consecutive gaps are at most tol are merged into one
    entry whose value is the mean of the cluster.  Default tol is
    1e-8 * max(1, max degree); a negative or non-finite tol is ValueError.
    The top eigenvalue of a k-regular graph,
    connected or not, is exactly k; a tol so wide that the top cluster no
    longer sits at k is bad input: ValueError.
    """
    if g.n == 0:
        raise ValueError("spectrum of the empty graph is undefined")
    if g.n > SPECTRAL_SIZE_CAP:
        raise SizeCapError(f"eigensolver capped at {SPECTRAL_SIZE_CAP} vertices, got {g.n}")
    if tol is None:
        tol = 1e-8 * max(1, max(len(s) for s in g.neighbors))
    elif not 0 <= tol < np.inf:
        raise ValueError(f"cluster tolerance must be finite and nonnegative, got {tol}")
    eig = np.linalg.eigvalsh(g.adjacency_matrix(dtype=np.float64))[::-1]
    ends = (np.flatnonzero(eig[:-1] - eig[1:] > tol) + 1).tolist() + [len(eig)]
    entries = []
    for start, stop in zip([0] + ends, ends):
        value = eig[start] if stop - start == 1 else eig[start:stop].mean()
        entries.append((float(value), stop - start))
    k = regularity(g)
    if k is not None:
        if abs(entries[0][0] - k) > 1e-6:
            raise ValueError("eigensolver sanity check failed: top eigenvalue far from k")
        entries[0] = (float(k), entries[0][1])
    return Spectrum(tuple(entries), tol, g.n)


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

