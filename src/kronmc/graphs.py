"""Undirected weighted graphs and their Laplacians.

Graphs here are plain dense adjacency matrices: symmetric, nonnegative,
zero diagonal.  They seed the spectral kernels in :mod:`kronmc.kernels`
and the benchmark dataset recipes in :mod:`kronmc.bench`.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _blas
from .errors import InvalidInputError, check_integer, check_number
from .kernels import _reject_non_finite

__all__ = [
    "Graph",
    "Laplacian",
    "build_laplacian",
    "erdos_renyi",
    "knn_symmetric",
    "geodesic_distances",
    "heat_adjacency",
]


def _symmetric_nonnegative(m, what):
    """``m`` as a float array, checked square, finite, symmetric and
    nonnegative; ``what`` names it in the errors."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"{what} must be square, got shape {a.shape}")
    _reject_non_finite(a, what)
    if not np.array_equal(a, a.T):
        raise InvalidInputError(f"{what} must be symmetric")
    if np.any(a < 0):
        raise InvalidInputError(f"{what} entries must be nonnegative")
    return a


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph given by its dense adjacency matrix."""

    adjacency: np.ndarray

    def __post_init__(self):
        a = _symmetric_nonnegative(self.adjacency, "adjacency")
        if np.any(np.diag(a) != 0):
            raise InvalidInputError("adjacency diagonal must be zero (no self loops)")
        object.__setattr__(self, "adjacency", a)


@dataclass(frozen=True)
class Laplacian:
    """Combinatorial graph Laplacian, L = diag(A 1) - A."""

    matrix: np.ndarray

    @property
    def side(self):
        return self.matrix.shape[0]

    @cached_property
    def spectrum(self):
        """Eigenvalues (ascending) and eigenvectors, from one eigh on first use."""
        return _blas.eigh(self.matrix)


def build_laplacian(graph):
    """Form the combinatorial Laplacian of ``graph``.

    Row sums of the result are exactly zero and the matrix is positive
    semidefinite for any valid adjacency.
    """
    a = graph.adjacency
    # one n x n array: -A, then the degrees added on its zero diagonal
    lap = np.subtract(0.0, a)
    lap.flat[::len(a) + 1] += a.sum(axis=1)
    return Laplacian(lap)


def erdos_renyi(n, p, seed):
    """Random graph on ``n`` vertices; each pair is joined with probability ``p``.

    Edges are unweighted (weight 1).  Deterministic for a fixed ``seed``.
    """
    check_number("edge probability p", p, "nonnegative")
    if p > 1:
        raise InvalidInputError(f"edge probability p must lie in [0, 1], got {p}")
    check_integer("vertex count n", n, 1)
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    adj = (upper | upper.T).astype(float)
    return Graph(adj)


def knn_symmetric(distances, k):
    """Symmetrized k-nearest-neighbour graph from a distance matrix.

    Each vertex is first joined to its ``k`` closest neighbours (directed,
    ties broken by index); the result is the unweighted symmetrization
    sign(P + P^T) with zero diagonal.
    """
    d = _symmetric_nonnegative(distances, "distance matrix")
    n = d.shape[0]
    if np.any(np.diag(d) != 0):
        raise InvalidInputError("distance matrix must have a zero diagonal")
    check_integer("k", k, 0)
    if k >= n:
        raise InvalidInputError(f"k must satisfy 0 <= k < n, got k={k}, n={n}")
    # no sort: the k nearest others of row i are those closer than kth[i],
    # its k-th distance to another vertex, then the lowest indices at kth[i];
    # the row's own 0 is its least entry, so kth[i] is the row's (k + 1)-th.
    # Rows go in blocks of about 128 KB: n x n temporaries raised the peak
    # memory of the 800-station bundle by 9 MB
    p = np.zeros((n, n))
    step = max(1, (1 << 17) // (8 * n))
    for lo in range(0, n, step):
        block = d[lo:lo + step]
        kth = np.partition(block, k, axis=1)[:, [k]]
        near, tied = block < kth, block == kth
        own = np.arange(len(block))
        near[own, lo + own] = tied[own, lo + own] = False
        need = k - near.sum(axis=1, keepdims=True)
        p[lo:lo + step] = near | (tied & (np.cumsum(tied, axis=1) <= need))
    adj = np.sign(p + p.T)
    np.fill_diagonal(adj, 0.0)
    return Graph(adj)


def geodesic_distances(graph):
    """All-pairs shortest-path hop counts on ``graph``.

    The graph is treated as unweighted: any nonzero adjacency entry is one
    hop.  Raises for disconnected graphs, naming an unreachable pair.
    """
    # imported here, so that importing kronmc does not load SciPy's csgraph
    from scipy.sparse.csgraph import shortest_path

    a = (graph.adjacency > 0).astype(float)
    d = shortest_path(a, method="D", unweighted=True, directed=False)
    if np.any(np.isinf(d)):
        i, j = np.argwhere(np.isinf(d))[0]
        raise InvalidInputError(
            f"graph is disconnected: no path between vertices {i + 1} and {j + 1}"
        )
    return d


def heat_adjacency(distances, n):
    """Heat-weighted adjacency exp(-n^2 d_ij / sum(d)) with zero diagonal."""
    d = _symmetric_nonnegative(distances, "distance matrix")
    total = d.sum()
    if total <= 0:
        raise InvalidInputError("distance matrix sums to zero; weights are undefined")
    adj = np.exp(-(n**2) * d / total)
    np.fill_diagonal(adj, 0.0)
    return Graph(adj)
