"""Independent oracles shared across test modules.

Everything here deliberately recomputes quantities by a different route
than the library (dense Kronecker products, full NL x NL solves, explicit
selector matrices, dynamic-programming shortest paths) so the two sides
of each check stay independent.  ``csv_round_trip`` runs a writer and its
reader on one object.
"""

import tempfile
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri

from kronmc import InvalidInputError, KernelMatrix


def make_spd_kernel(rng, n, ridge=0.5):
    """Random symmetric positive definite kernel, eigenvalues >= ridge."""
    b = rng.normal(size=(n, n))
    return KernelMatrix(b @ b.T / n + ridge * np.eye(n))


def dense_kron(kk):
    """Dense product-kernel oracle under the column-major vec convention."""
    return np.kron(kk.ky.matrix, kk.kx.matrix)


def vec_index(i, j, n_rows):
    """Column-major vector index of entry (i, j), all 1-based."""
    if not 1 <= i <= n_rows:
        raise InvalidInputError(f"row index {i} outside 1..{n_rows}")
    if j < 1:
        raise InvalidInputError(f"column index {j} must be >= 1")
    return (j - 1) * n_rows + i


def _decode(index, n_rows, size):
    if not 1 <= index <= size:
        raise InvalidInputError(f"vector index {index} outside 1..{size}")
    return (index - 1) % n_rows, (index - 1) // n_rows


def kron_entry(kk, iprime, jprime):
    """Single entry of the product kernel at 1-based vector indices."""
    size = kk.n_rows * kk.n_cols
    i, j = _decode(iprime, kk.n_rows, size)
    n, l = _decode(jprime, kk.n_rows, size)
    return float(kk.kx.matrix[i, n] * kk.ky.matrix[j, l])


def selector_matrix(sampling):
    """Explicit S x NL binary selector of ``sampling``."""
    s = np.zeros((len(sampling), sampling.n_rows * sampling.n_cols))
    s[np.arange(len(sampling)), sampling.vec_indices0] = 1.0
    return s


def full_dual_vector(model):
    """Length-NL coefficient vector of a fitted KkmcexModel; exactly zero
    off the sampled indices."""
    gamma = np.zeros(model.kernel.n_rows * model.kernel.n_cols)
    gamma[model.sampling.vec_indices0] = model.dual_coeffs
    return gamma


def dense_krr_gamma(kz, sampling, values, mu):
    """Full-size regularized solve oracle: (S^T S Kz + mu I)^{-1} S^T m."""
    s = selector_matrix(sampling)
    nl = kz.shape[0]
    return np.linalg.solve(s.T @ s @ kz + mu * np.eye(nl), s.T @ values)


def unvec(v, n, l):
    return np.reshape(v, (n, l), order="F")


def bayes_nmse_floor(kx, ky, sampling, nu_sq, block=1024):
    """Least expected NMSE of any estimator of F = Kx G Ky, G iid N(0, 1).

    Under that ensemble vec F ~ N(0, C) with C = Ky^2 kron Kx^2.  From the
    sampled entries plus iid N(0, nu_sq) noise, the posterior mean
    C_{:,S} A^{-1} y with A = C_SS + nu_sq I has the least expected squared
    error of all estimators, tr C - tr(A^{-1} (C^2)_SS) (Rasmussen and
    Williams, Gaussian Processes for Machine Learning, 2006, section 2.2).
    The floor is that error over E||F||^2 = tr C.

    A jitter of 1e-10 times the mean prior variance tr C / NL is added to
    the diagonal of A so that the noiseless case (nu_sq = 0) factorizes.  It
    acts as extra noise, so it can only raise the floor: on the 250 x 250
    synthetic bundle at S = 6250, jitters of 1e-8 and 1e-12 give noiseless
    floors within 3e-6 of each other.

    Both S x S blocks are gathered entrywise from the squared and
    fourth-power factor kernels with ``np.ix_``; (C^2)_SS is gathered one row
    block of ``block`` rows at a time, so only A is held at full size.
    """
    kx2 = kx.matrix @ kx.matrix
    ky2 = ky.matrix @ ky.matrix
    kx4, ky4 = kx2 @ kx2, ky2 @ ky2
    trace_c = np.trace(kx2) * np.trace(ky2)
    rows, cols = sampling.row_indices0, sampling.col_indices0
    a = kx2[np.ix_(rows, rows)] * ky2[np.ix_(cols, cols)]
    a[np.diag_indices_from(a)] += nu_sq + 1e-10 * trace_c / kx.side / ky.side
    # a is symmetric, so its transpose is the same matrix in Fortran order
    # and LAPACK can factor and invert it in place; only the lower triangle
    # of the inverse is filled
    chol, info = dpotrf(a.T, lower=1, overwrite_a=1)
    assert info == 0, f"dpotrf info {info}"
    inv, info = dpotri(chol, lower=1, overwrite_c=1)
    assert info == 0, f"dpotri info {info}"
    # tr(A^{-1} (C^2)_SS) is the entrywise product summed over the lower
    # triangle, off-diagonal entries counted twice
    explained = -float(np.sum(np.diag(inv) * kx4[rows, rows] * ky4[cols, cols]))
    for lo in range(0, len(rows), block):
        hi = min(lo + block, len(rows))
        b = kx4[np.ix_(rows[lo:hi], rows[:hi])] * ky4[np.ix_(cols[lo:hi], cols[:hi])]
        explained += 2.0 * float(np.sum(np.tril(inv[lo:hi, :hi], k=lo) * b))
    return (trace_c - explained) / trace_c


def floyd_warshall_hops(adjacency):
    """All-pairs hop counts by dynamic programming."""
    n = adjacency.shape[0]
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    d[adjacency > 0] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return d


def knn_loop(distances, k):
    """Symmetrized k-nearest-neighbour adjacency, one stable sort per row."""
    n = distances.shape[0]
    p = np.zeros((n, n))
    for i in range(n):
        order = np.argsort(distances[i], kind="stable")
        p[i, order[order != i][:k]] = 1.0
    adj = np.sign(p + p.T)
    np.fill_diagonal(adj, 0.0)
    return adj


def plain_als(values, rows0, cols0, n, l, p, mu, w0, h0, iters):
    """Exact alternating minimization of the plain ridge factorization.

    Independent route for the identity-kernel reduction: every row solves
    its own p x p ridge system, no cross-row coupling.
    """
    w = w0.copy()
    h = h0.copy()

    def objective():
        resid = values - np.sum(w[rows0] * h[cols0], axis=1)
        return float(resid @ resid + mu * (np.sum(w**2) + np.sum(h**2)))

    objectives = [objective()]
    for _ in range(iters):
        for i in range(n):
            mask = rows0 == i
            hj = h[cols0[mask]]
            a = hj.T @ hj + mu * np.eye(p)
            w[i] = np.linalg.solve(a, hj.T @ values[mask])
        for j in range(l):
            mask = cols0 == j
            wi = w[rows0[mask]]
            a = wi.T @ wi + mu * np.eye(p)
            h[j] = np.linalg.solve(a, wi.T @ values[mask])
        objectives.append(objective())
    return w, h, objectives


def csv_round_trip(save, load, obj):
    """What ``load`` reads back from the file ``save(path, obj)`` writes,
    after checking that saving it again writes the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.csv", Path(tmp) / "second.csv"
        save(first, obj)
        loaded = load(first)
        save(second, loaded)
        assert second.read_bytes() == first.read_bytes()
    return loaded
