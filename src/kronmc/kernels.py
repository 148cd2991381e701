"""Kernel matrices, the lazy Kronecker product kernel, and low-rank feature maps.

The product kernel over row-column index pairs is held as its two factors
and never materialized: with column-major vectorization the (i', j') entry
of the big kernel is kappa_x(i, n) * kappa_y(j, l) for the decoded factor
indices.  Feature maps are rank-d factorizations phi with phi @ phi.T
approximating the product kernel, built from factor eigen- or singular
decompositions and held as one N x d and one L x d factor.

Eigendecompositions and kernel products run on SciPy's LAPACK and BLAS,
through ``kronmc._blas``.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from . import _blas
from .errors import InvalidInputError, NumericalError, check_integer, check_number

__all__ = [
    "KernelMatrix",
    "Diffusion",
    "RegularizedLaplacian",
    "Bandlimited",
    "KroneckerKernel",
    "FeatureMap",
    "spectral_kernel",
    "linear_kernel",
    "gaussian_kernel",
    "pearson_kernel",
    "kron_submatrix",
    "features_from_eig",
    "features_from_svd",
]

PSD_TOL = 1e-8
SYM_TOL = 1e-8
# size of one row block of the sampled S x S gather in kron_submatrix
GATHER_BLOCK_BYTES = 1 << 20


def _reject_non_finite(a, what):
    """Raise naming the first non-finite entry of the 2-D array ``a``, 1-based."""
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0] + 1
        raise InvalidInputError(f"{what} entry ({i}, {j}) is not finite")


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric positive semidefinite similarity matrix.  A spectral kernel
    also carries its eigenpairs in ``_spectrum`` (see spectral_kernel).  The
    PSD check keeps its eigenvalues in ``_eigenvalues``, from which solvers
    price their solves, and ``_eig`` holds the eigenpairs that feature maps
    and preconditioners read."""

    matrix: np.ndarray
    _spectrum: tuple = field(default=None, repr=False, compare=False)
    _eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = np.asarray(self.matrix, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise InvalidInputError(f"kernel matrix must be square, got shape {k.shape}")
        _reject_non_finite(k, "kernel matrix")
        scale = max(1.0, np.abs(k).max()) if k.size else 1.0
        # one n x n buffer holds |k - k^T|, then the symmetrized kernel, so
        # the check needs no more memory than the product that built k
        sym = np.subtract(k, k.T)
        if np.abs(sym, out=sym).max() > SYM_TOL * scale:
            raise InvalidInputError("kernel matrix must be symmetric")
        k = np.add(k, k.T, out=sym)
        k /= 2.0
        eigs = _blas.eigvalsh(k) if self._spectrum is None else self._spectrum[0]
        if eigs.min() < -PSD_TOL * max(1.0, eigs.max()):
            raise InvalidInputError(
                f"kernel matrix is not positive semidefinite (min eigenvalue {eigs.min():g})"
            )
        object.__setattr__(self, "matrix", k)
        object.__setattr__(self, "_eigenvalues", eigs)

    @property
    def side(self):
        return self.matrix.shape[0]

    @cached_property
    def _eig(self):
        """(eigenvalues, eigenvectors): the carried spectrum, else one eigh
        on first use, kept for every later one."""
        return self._spectrum or _blas.eigh(self.matrix)


@dataclass(frozen=True)
class Diffusion:
    """Spectral weighting with r(lambda) = exp(eta * lambda)."""

    eta: float

    def __post_init__(self):
        check_number("eta", self.eta)

    def inverse_weights(self, eigenvalues):
        # an overflow is reported by spectral_kernel's finiteness check
        with np.errstate(over="ignore"):
            return np.exp(-self.eta * eigenvalues)


@dataclass(frozen=True)
class RegularizedLaplacian:
    """Spectral weighting with r(lambda) = 1 + eta * lambda."""

    eta: float

    def __post_init__(self):
        check_number("eta", self.eta)

    def inverse_weights(self, eigenvalues):
        r = 1.0 + self.eta * eigenvalues
        if np.any(r == 0):
            raise NumericalError("spectral weight r(lambda) vanished; kernel undefined")
        return 1.0 / r


@dataclass(frozen=True)
class Bandlimited:
    """Keep only the frequencies whose (ascending, 1-based) indices lie in the pass band."""

    pass_band: frozenset

    def __init__(self, pass_band):
        try:
            indices = list(pass_band)
        except TypeError:
            raise InvalidInputError("pass band must be a collection of 1-based indices, "
                                    f"got {pass_band!r}") from None
        # each index is checked before the set would merge True into 1
        for i in indices:
            check_integer("pass band index", i, 1)
        object.__setattr__(self, "pass_band", frozenset(indices))
        if not self.pass_band:
            raise InvalidInputError("pass band must be nonempty")

    def inverse_weights(self, eigenvalues):
        n = len(eigenvalues)
        if max(self.pass_band) > n:
            raise InvalidInputError(
                f"pass band index {max(self.pass_band)} exceeds spectrum size {n}"
            )
        w = np.zeros(n)
        w[[i - 1 for i in sorted(self.pass_band)]] = 1.0
        return w


def spectral_kernel(lap, weighting):
    """Kernel Q r^-1(Lambda) Q^T from the Laplacian eigendecomposition (Lambda, Q).

    Eigenvalues are sorted ascending; each is mapped through the weighting's
    inverse response (suppressed frequencies map to zero).  The kernel
    carries the pair (r^-1(Lambda), Q), Q being the Laplacian's cached array.
    """
    eigvals, q = lap.spectrum
    w = weighting.inverse_weights(eigvals)
    if not np.all(np.isfinite(w)):
        raise NumericalError("non-finite spectral weight; kernel undefined")
    return KernelMatrix(_blas.gemm(q * w, q.T), _spectrum=(w, q))


def linear_kernel(x):
    """Gram matrix of the rows of ``x`` under the Euclidean dot product."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] < 1:
        raise InvalidInputError("feature matrix needs at least one column")
    return KernelMatrix(_blas.gemm(x, x.T))


def gaussian_kernel(x, eta):
    """Gaussian similarity exp(-||x_i - x_j||^2 / (2 eta)) between rows of ``x``."""
    check_number("eta", eta)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    sq = np.sum(x**2, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * _blas.gemm(x, x.T), 0.0)
    return KernelMatrix(np.exp(-d2 / (2.0 * eta)))


def pearson_kernel(x):
    """Pearson correlation between rows of ``x``; PSD with unit diagonal."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    centered = x - x.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    if np.any(norms == 0):
        row = int(np.flatnonzero(norms == 0)[0]) + 1
        raise InvalidInputError(f"row {row} is constant; correlation is undefined")
    u = centered / norms[:, None]
    k = _blas.gemm(u, u.T)
    np.fill_diagonal(k, 1.0)
    return KernelMatrix(k)


@dataclass(frozen=True)
class KroneckerKernel:
    """Product kernel over an N x L grid, stored as its two factors.

    Entry (i', j') of the implied NL x NL matrix is
    kx[i, n] * ky[j, l] with i' = (j - 1) N + i and j' = (l - 1) N + n.
    """

    kx: KernelMatrix
    ky: KernelMatrix

    @property
    def n_rows(self):
        return self.kx.side

    @property
    def n_cols(self):
        return self.ky.side


def kron_submatrix(kk, sampling):
    """S x S block of the product kernel at the sampled positions.

    Cost is O(S^2); the full product matrix is never formed.  Row/column
    order follows the sampling order.  The block is filled in place, one row
    block of about GATHER_BLOCK_BYTES at a time, from the factor rows of
    that block, so it is the only array whose size grows with S^2.
    """
    rows = sampling.row_indices0
    cols = sampling.col_indices0
    s = len(rows)
    g = np.empty((s, s))
    step = max(1, min(s, GATHER_BLOCK_BYTES // (8 * max(s, 1))))
    scratch = np.empty((step, s))
    for start in range(0, s, step):
        block = g[start:start + step]
        # mode="clip" lets np.take write into out directly ("raise" buffers
        # it); no index is clipped, since each one is also row-gathered in
        # its own block, which raises when it lies outside the factor
        np.take(kk.kx.matrix[rows[start:start + step]], rows, axis=1, out=block,
                mode="clip")
        block *= np.take(kk.ky.matrix[cols[start:start + step]], cols, axis=1,
                         out=scratch[:len(block)], mode="clip")
    return g


@dataclass(frozen=True)
class FeatureMap:
    """Rank-d product feature map held as its two factors.

    ``x`` is the N x d row factor, with the column weights folded in, and
    ``y`` the L x d column factor.  Grid entry (i, j) has the feature row
    x[i] * y[j], so the implied NL x d matrix phi, whose rows follow the
    column-major vectorization order, has phi @ phi.T approximating the
    product kernel.  phi itself is never stored: memory is O((N + L) d).

    A map built from factor decompositions also keeps, in ``_factors``, the
    factorization that x and y are built from (see _factored_map).
    """

    x: np.ndarray
    y: np.ndarray
    _factors: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=float)
        y = np.ascontiguousarray(self.y, dtype=float)
        if x.ndim != 2 or y.ndim != 2:
            raise InvalidInputError(
                f"feature factors must be 2-D, got shapes {x.shape} and {y.shape}")
        if x.shape[1] != y.shape[1]:
            raise InvalidInputError(
                f"feature factors disagree on d: {x.shape[1]} and {y.shape[1]} columns")
        _reject_non_finite(x, "row feature factor")
        _reject_non_finite(y, "column feature factor")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n_rows(self):
        return self.x.shape[0]

    @property
    def n_cols(self):
        return self.y.shape[0]

    @property
    def dim(self):
        return self.x.shape[1]

    @property
    def phi(self):
        """The dense NL x d feature matrix, built anew on each call.

        For tests, dense oracles and small grids: it costs O(NLd) time and
        memory, which no method of the package needs.
        """
        phi = np.empty((self.n_rows * self.n_cols, self.dim))
        # row j * N + i is y[j] * x[i]
        np.multiply(self.y[:, None, :], self.x[None, :, :],
                    out=phi.reshape(self.n_cols, self.n_rows, self.dim))
        return phi

    def rows(self, rows0, cols0, out=None):
        """Feature rows y[cols0] * x[rows0] of the 0-based entries (rows0, cols0).

        Writes into ``out`` (len(rows0) x d) when given, else into a new
        array.  The indices must lie on this grid, as those of a sampling of
        the same grid do; they are not validated (mode="clip" lets np.take
        write into ``out`` without buffering it).
        """
        out = np.take(self.y, cols0, axis=0, out=out, mode="clip")
        out *= self.x[rows0]
        return out

    def row(self, i, j):
        """Feature vector of grid entry (i, j), 1-based."""
        check_integer("i", i, 1)
        check_integer("j", j, 1)
        if i > self.n_rows or j > self.n_cols:
            raise InvalidInputError(
                f"entry ({i}, {j}) outside {self.n_rows} x {self.n_cols} grid")
        return self.rows(i - 1, j - 1)


def _ranked_pairs(values_x, values_y, d):
    """Top-d (a, b) factor-index pairs by product values_x[a] * values_y[b].

    Ties break toward the smallest composite vector index
    b * len(values_x) + a, so the selection is deterministic.  Returns the
    index arrays a and b and the ranked products.

    When the d-th largest product is positive, every product at or above it
    pairs two values that are among their side's d largest or d most
    negative, ties included: a value v outside both has d values of its
    sign further from zero on its side, whose products with v's partner all
    exceed v's.  So those pairs alone are ranked, and all N L pairs only
    when the d-th largest of them is not positive.
    """
    def extremes(v):
        if 2 * d >= len(v):
            return np.arange(len(v))
        part = np.partition(v, (d - 1, len(v) - d))
        return np.flatnonzero((v <= part[d - 1]) | (v >= part[len(v) - d]))

    ia, ib = extremes(values_x), extremes(values_y)
    # position k of products is the pair (ia[k % len(ia)], ib[k // len(ia)]),
    # so positions follow the composite index
    products = np.outer(values_y[ib], values_x[ia]).ravel()
    if not (len(products) >= d and np.partition(products, -d)[-d] > 0):
        ia, ib = np.arange(len(values_x)), np.arange(len(values_y))
        products = np.outer(values_y, values_x).ravel()
    # the top d, ties included, are the products >= the d-th largest; a
    # stable sort of those alone, in index order, ranks them as a stable
    # sort of all would
    keys = -products
    candidates = np.flatnonzero(keys <= np.partition(keys, d - 1)[d - 1])
    order = candidates[np.argsort(keys[candidates], kind="stable")[:d]]
    return ia[order % len(ia)], ib[order // len(ia)], products[order]


def _factored_map(ux, a, uy, b, w):
    """Feature map whose column c is ux[:, a[c]] * w[c] kron uy[:, b[c]].

    It keeps the factorization as ``_factors = (ux, ia, uy, ib, w)``: ``ux``
    and ``uy`` hold only the distinct basis columns, and ``ia`` and ``ib``
    index them, so x = ux[:, ia] * w and y = uy[:, ib] exactly.
    """
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    ux, uy = ux[:, ua], uy[:, ub]
    return FeatureMap(ux[:, ia] * w, uy[:, ib], _factors=(ux, ia, uy, ib, w))


def features_from_eig(kx, ky, d):
    """Feature map from the top-d eigenvalue products of the two factors.

    Only the factor matrices are eigendecomposed, once per kernel (see
    KernelMatrix._eig).  Column c carries sqrt(sigma_pair) times the Kronecker
    product of the paired eigenvectors; zero eigenvalues yield zero columns.
    """
    n, l = kx.side, ky.side
    check_integer("feature dimension d", d, 1)
    if d > n * l:
        raise InvalidInputError(f"feature dimension must lie in 1..{n * l}, got {d}")
    sx, qx = kx._eig
    sy, qy = ky._eig
    a, b, products = _ranked_pairs(sx, sy, d)
    return _factored_map(qx, a, qy, b, np.sqrt(np.maximum(products, 0.0)))


def features_from_svd(x, y, d):
    """Feature map from the top-d singular-value products of two factor SVDs.

    Approximates the column space of the Kronecker product of ``y`` and ``x``
    (rows of ``x`` index grid rows, rows of ``y`` grid columns).  Column c is
    the paired singular value times the Kronecker product of the paired left
    singular vectors.  d is at most the number of products ranked,
    min(N, tx) min(L, ty) for an N x tx ``x`` and an L x ty ``y``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    (n, tx), (l, ty) = x.shape, y.shape
    ranked = min(n, tx) * min(l, ty)
    check_integer("feature dimension d", d, 1)
    if d > ranked:
        raise InvalidInputError(f"feature dimension d must lie in 1..{ranked} "
                                f"(min(N, tx) min(L, ty)), got {d}")
    _reject_non_finite(x, "row feature matrix")
    _reject_non_finite(y, "column feature matrix")
    ux, dx, _ = scipy.linalg.svd(x, full_matrices=False, check_finite=False)
    uy, dy, _ = scipy.linalg.svd(y, full_matrices=False, check_finite=False)
    a, b, products = _ranked_pairs(dx, dy, d)
    return _factored_map(ux, a, uy, b, products)
