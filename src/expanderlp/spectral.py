"""Spectra of graphs and exact evaluation of sphere polynomials at adjacency matrices.

`measure` reads a graph once: the size cap, one level sweep for girth,
diameter and intersection array, then the spectrum, which a distance-regular
graph takes from its intersection array, a (D+1) x (D+1) eigenproblem with
Biggs' multiplicities, and every other graph from one n x n eigensolve of
its adjacency matrix.  `spectrum` is that measurement's spectrum, so every
entry point reads one spectrum for one graph.

On a k-regular graph tr S_i(A) is the sum of m(theta) S_i(theta), so
`girth_spectral` reads the girth from a measurement with no matrix;
`sphere_poly_matrix` is the one n x n evaluation, S_i(A) in exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, Optional

import numpy as np

from .graphcore import Graph, IntersectionArray, SizeCapError, _level_sweep, regularity
from .orthopoly import MAX_DEGREE, sphere_sequence

__all__ = [
    "SPECTRAL_SIZE_CAP",
    "Measurement",
    "Spectrum",
    "measure",
    "spectrum",
    "sphere_poly_matrix",
    "girth_spectral",
]

SPECTRAL_SIZE_CAP = 512

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
    """What `measure` reads from one nonempty graph, and the tolerance it clustered with."""

    k: Optional[int]
    girth: Optional[int]
    diameter: Optional[int]
    array: Optional[IntersectionArray]
    spectrum: Spectrum
    tol: float


def spectrum(g: Graph, tol: Optional[float] = None) -> Spectrum:
    """Eigenvalues of the adjacency matrix clustered into distinct values: `measure(g, tol).spectrum`."""
    return measure(g, tol).spectrum


def measure(g: Graph, tol: Optional[float] = None) -> Measurement:
    """Degree, girth, diameter, intersection array and clustered spectrum of a nonempty graph.

    The first four are None when the graph is irregular, acyclic,
    disconnected or not distance-regular.  A graph past the spectral size
    cap is a SizeCapError before any O(n^2) work; one `_level_sweep` then
    gives degree, girth, diameter and array from packed BFS levels, and its
    packed distances are freed before the eigensolve.  No n x n distance
    matrix is formed for any graph: below the girth the array's c_i = 1
    and a_i = 0 follow from the girth tests themselves, and from the girth
    on they are counted on the packed levels.
    With an array of degree k >= 2 the graph is distance-regular, and its
    D + 1 distinct eigenvalues and their multiplicities come from the array
    (`_array_spectrum`), with no n x n eigensolve; every other graph takes
    `eigvalsh` of its adjacency matrix, one value per vertex.
    Eigenvalues whose consecutive gaps are at most tol are merged into one
    entry whose value is the multiplicity-weighted mean of the cluster.
    Default tol is 1e-8 * max(1, max degree); the measurement records the
    tol it used.  A negative or non-finite tol is ValueError.  The top
    eigenvalue of a k-regular graph, connected or not, is exactly k; a tol
    so wide that the top cluster no longer sits at k is bad input: ValueError.
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
    return Measurement(k, girth, diameter, array, Spectrum(tuple(entries)), tol)


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


def sphere_poly_matrix(g: Graph, i: int) -> np.ndarray:
    """S_i at the adjacency matrix A of a regular graph, in exact integers.

    Entry (u, w) counts non-backtracking walks of length i from u to w.  No
    value the recurrence forms exceeds k * max(S_j(k) for j < i), a row sum
    of A*S_j(A), so below 2**53 it runs exactly in float64 (BLAS), otherwise
    on Python ints: the package's one exactness guard.
    """
    if i < 0 or i > MAX_DEGREE:
        raise ValueError(f"index must lie in 0..{MAX_DEGREE}, got {i}")
    k = regularity(g)
    if k is None:
        raise ValueError("polynomial evaluation requires a regular graph")
    dtype = np.float64 if k * max(sphere_sequence(k, k, i - 1)) < 2**53 else object
    mats = sphere_sequence(k, g.adjacency_matrix(dtype=dtype), i, one=np.eye(g.n, dtype=dtype), mul=np.dot)
    mat = next(islice(mats, i, None))
    return mat.astype(np.int64) if dtype is np.float64 else mat


def girth_spectral(m: Measurement) -> Optional[int]:
    """Girth of a connected k-regular graph from its measurement, or None.

    tr S_i(A) = sum of m(theta) S_i(theta) over the spectrum (Biggs 1974)
    counts closed non-backtracking walks of length i: 0 below the girth g,
    at least 2g at it.  So g is the first i >= 1 whose computed trace t_i
    exceeds i, while |t_i - tr S_i(A)| <= E_i = i**2 (k-1)**(i-1) F < i.
    i**2 (k-1)**(i-1) bounds |S_i'| on [-k, k] (Markov; |S_i| <= S_i(k) there)
    and F = sum of m(theta) (c-1) tol + (m(k)-1) 1e-6 + 16 n N k eps bounds
    the eigenvalues' distances from their cluster means, where a cluster
    merged c <= min(m(theta), N - d) of the N values `measure` clustered,
    plus the eigensolver's error (4 N k eps each) and the float rounding.
    When E_i >= i, or t_i is farther than E_i from every integer, the result
    is None.  tol is the one `measure` clustered with.
    """
    k, spec = m.k, m.spectrum
    if k is None:
        raise ValueError("spectral girth requires a regular graph")
    if m.diameter is None:
        raise ValueError("spectral girth requires a connected graph")
    if k < 2:
        raise ValueError("graph has no cycle")
    theta, mult = np.array(spec.entries).T
    n = int(mult.sum())
    solved = n if m.array is None else len(m.array.a)
    spread = m.tol * mult @ (np.minimum(mult, solved - spec.d) - 1) + (mult[0] - 1) * 1e-6
    floor = spread + 16 * n * solved * k * np.finfo(np.float64).eps
    for i, values in islice(enumerate(sphere_sequence(k, theta.clip(-k, k), n)), 1, None):
        bound = i * i * (k - 1) ** (i - 1) * floor
        t = float(mult @ values)
        if bound >= i or abs(t - round(t)) > bound:
            return None
        if t > i:
            return i
