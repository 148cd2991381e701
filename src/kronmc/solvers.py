"""Completion estimators: the closed-form product-kernel solver, its
reduced-dimension ridge variant (batch and streaming), and the two
factorization baselines (exact alternating minimization and row-wise SGD).

All linear systems are symmetric positive definite by construction
(PSD Gram plus mu I with mu > 0) and are solved by Cholesky factorization,
except the closed-form system, which may be solved matrix-free by
conjugate gradients.  That CG runs its kernel products in float32 and
keeps its iterate, its residuals and its stopping test in float64.  It is
preconditioned by mu I plus the system's part on the top rx x ry rectangle
of factor eigenpairs, inverted exactly by Woodbury: the preconditioned
condition number is at most 1 + lam_out / mu, lam_out the largest
eigenvalue product left out.  One plan, _plan, priced from the factors'
eigenvalues alone, picks the Cholesky, plain CG or a rectangle, whichever
costs the fewest flops in the worst case.  On exact-250's draws it picks
21 x 13 and halves the products of a fit.  The ridge fit decides its Gram
once too, in _pairing.  The two SGD fits share one epoch loop, _sgd_run.
A failed solve of any fit, and a diverging SGD fit, raise a NumericalError
that names mu and S.

Every product, factorization and solve runs on SciPy's BLAS and LAPACK,
through ``kronmc._blas`` (which says why) and ``scipy.linalg``, the CG
solve's inner products included.  Only the ``@`` of the two
per-observation SGD updates, ``_orrmcex_update`` and
``_factor_sgd_update``, the one home of each SGD method's arithmetic, runs
on numpy's.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import spotrf, spotri

from . import _blas
from .errors import InvalidInputError, NumericalError, check_integer, check_number
from .kernels import kron_submatrix

# relative residual tolerance tau of the closed-form CG solve, and the bound
# on kappa * tau, hence on the relative error of the CG coefficients, that
# admits CG at all (criterion 1's tolerance)
CG_RTOL = 1e-12
CG_COEFF_TOL = 1e-8
# factor by which the recursive residual of _kkmcex_cg's float32 steps
# falls between two replacements by the true, float64 one.  The two drift
# apart by up to about kappa times float32's unit roundoff, at most
# 1e4 * 6e-8 = 6e-4 of the residual at the last replacement (measured:
# 3e-7 to 2.5e-5 at kappa 1e3), so the factor must stay well above that.
# On 20 draws at 250 x 250, S = 6250, mu = 1e-3, factors from 1e-1 to 1e-3
# took on average 57.1 to 58.5 float32 and 11.5 to 4 float64 products; at
# 0.53 of a float64 product's time per float32 one (0.21 against 0.39 ms a
# GEMM), 1e-2 (57.4 + 6, each step with its apply) costs within 3 % of
# 1e-3, which sits too near the drift
CG_REPLACE = 1e-2
# size of one block of gathered feature rows in _feature_blocks, which
# ORRMCEX and the dsyrk path of rrmcex_fit run.  Over sizes of 64 KB to
# 1 MB, interleaved (2 cores, OpenBLAS), the dsyrk Gram at criterion 7's
# d = 250, S = 6250 took 19.0, 14.6, 12.5, 11.4 and 11.9 ms (min of 30),
# and orrmcex_run at criterion 9's settings (d = 50, S = 6250, 20 epochs)
# 0.52-0.54 s at every size (min of 6): its per-observation updates, not
# its gathers, set its time
FEATURE_BLOCK_BYTES = 1 << 18
# cost of one (pair, sample) step of _grouped_gram, in flops of _syrk_gram:
# on the 800 x 1250 station grid at S = 250000 (2 cores, OpenBLAS), one
# pair's two gathers, product and weighted bincount took 2.0-2.7 ms
# (8-11 ns a sample), and _syrk_gram at d = 50 took 41-65 ms for its
# S d^2 = 6.25e8 flops (66-104 ps a flop), a ratio of 100-125
GROUPED_PAIR_COST = 100
# cost of one flop of _woodbury's build and apply, in flops of a float32
# kernel product of _kkmcex_cg: at 250 x 250, S = 6250 (exact-250's
# kernels, 2 cores, OpenBLAS), a product took 463 us (7.4 ps a flop), and
# rectangles from 10 x 10 to 25 x 15 took 3.2-4.9 times that a flop to
# apply (82-207 us) and 3.0-3.7 times to build (0.4-4.8 ms)
PRECOND_FLOP_COST = 4

__all__ = [
    "KkmcexModel",
    "RrmcexModel",
    "FactorModel",
    "StepSchedule",
    "kkmcex_fit",
    "kkmcex_predict",
    "rrmcex_fit",
    "rrmcex_predict",
    "orrmcex_step",
    "orrmcex_run",
    "als_fit",
    "factor_sgd_fit",
    "factor_predict",
    "save_model",
    "load_kkmcex_model",
    "load_rrmcex_model",
    "load_factor_model",
]


def _spd_solve(a, b, where, check_finite=True):
    """Solve a x = b for symmetric positive-definite ``a``, read from its
    lower triangle; a failure raises a NumericalError that ends with the
    caller's context ``where``.

    Consumes ``a``: a Fortran-ordered ``a`` is overwritten by its Cholesky
    factor, so callers pass an array they no longer need; any other layout
    is copied before the factorization.  ``check_finite=False`` skips
    SciPy's scan of ``a``, which allocates a boolean mask of its size, for
    a caller whose ``a`` is finite by construction.
    """
    try:
        factor = cho_factor(a, lower=True, overwrite_a=True, check_finite=check_finite)
    except ValueError as exc:
        # a LinAlgError (not positive definite) is a ValueError, as is
        # SciPy's report of a non-finite entry
        raise NumericalError(f"positive-definite solve failed: {exc} ({where})") from exc
    # cho_factor has checked a; SciPy's own check would rescan the whole factor
    if not np.all(np.isfinite(b)):
        raise NumericalError(f"positive-definite solve: right-hand side is not finite ({where})")
    return cho_solve(factor, b, check_finite=False)


@dataclass(frozen=True)
class KkmcexModel:
    """Fitted closed-form model: dual coefficients on the observed entries only."""

    kernel: object
    sampling: object
    mu: float
    dual_coeffs: np.ndarray


@dataclass(frozen=True)
class RrmcexModel:
    """Fitted ridge model in feature space: d primal coefficients."""

    features: object
    mu: float
    xi: np.ndarray


@dataclass(frozen=True)
class FactorModel:
    """Rank-p factorization: an N x p and an L x p factor."""

    w: np.ndarray
    h: np.ndarray
    mu: float

    @property
    def rank(self):
        return self.w.shape[1]


@dataclass(frozen=True)
class StepSchedule:
    """Step-size rule: a constant step or the decay c / (n + n0)."""

    rule: str
    c: float
    n0: float = 0.0

    def __post_init__(self):
        if self.rule not in ("constant", "decay"):
            raise InvalidInputError(f"step_rule must be 'constant' or 'decay', got {self.rule!r}")
        check_number("step_c", self.c)
        if self.rule == "decay":
            check_number("step_n0", self.n0)

    @classmethod
    def constant(cls, t):
        return cls("constant", t)

    @classmethod
    def decay(cls, c, n0):
        return cls("decay", c, n0)

    def steps(self, first, count):
        """Step sizes of the 1-based iterations first, ..., first + count - 1,
        as one float64 array: c, or c / (n + n0) computed as the Python
        scalar would be, bit for bit while c, n and n0 stay below 2**53."""
        if self.rule == "constant":
            return np.full(count, self.c, dtype=float)
        n = np.arange(first, first + count, dtype=float)
        n += self.n0
        return np.divide(self.c, n, out=n)


def _check_fit_inputs(obs, mu, grid):
    """Reject an empty sampling, a ridge weight ``mu`` that is not positive
    and finite, a non-finite observation, or a sampling of another grid
    than ``grid``, the model's (N, L).  Returns the fit's context, "mu=...,
    S=...", for its error messages."""
    sampling = obs.sampling
    if len(sampling) == 0:
        raise InvalidInputError("sampling is empty (S = 0)")
    check_number("mu", mu)
    bad = ~np.isfinite(obs.values)
    if bad.any():
        k = np.argmax(bad)
        raise InvalidInputError(
            f"observation {k + 1}, at grid entry ({sampling.row_indices0[k] + 1}, "
            f"{sampling.col_indices0[k] + 1}), is not finite")
    if (sampling.n_rows, sampling.n_cols) != grid:
        raise InvalidInputError(
            f"sampling grid {sampling.n_rows} x {sampling.n_cols} does not match "
            f"model grid {grid[0]} x {grid[1]}")
    return f"mu={mu:g}, S={len(sampling)}"


def _kkmcex_cholesky(kernel, sampling, values, mu, where):
    """Dual coefficients from the gathered S x S block, factored in place;
    ``where`` as in _spd_solve."""
    g = kron_submatrix(kernel, sampling)
    g[np.diag_indices_from(g)] += mu
    # g is exactly symmetric, so g.T is the same matrix as a Fortran-ordered
    # view, which LAPACK factors in place.  It is finite: |G_ij| is at most
    # the product of the factors' top eigenvalues, which kkmcex_fit checks
    # is finite, as are the kernels and mu
    return _spd_solve(g.T, values, where, check_finite=False)


def _plan(kernel, s, mu):
    """How kkmcex_fit solves its S x S system, as (top, plan): top = lx[0]
    ly[0], and plan None for the Cholesky, else (ox, oy, budget), the
    indices of the eigenpairs of Kx and Ky on the rectangle that _kkmcex_cg
    preconditions with, and its budget of products.  It reads mu, S, N, L
    and the factors' eigenvalues alone, never their eigenvectors.

    lx and ly are the factors' positive eigenvalues, descending (ties in
    index order), zero past them.  CG is admitted only when kappa CG_RTOL
    <= CG_COEFF_TOL, kappa = (top + mu) / mu the plain condition bound,
    since ||c - c*|| / ||c*|| <= kappa ||r|| / ||m|| must hold the
    coefficients to CG_COEFF_TOL.  The top rx x ry rectangle of factor
    eigenpairs (_woodbury) leaves out eigenvalue products of at most
    lam_out = max(lx[rx] ly[0], lx[0] ly[ry]), so it bounds the
    preconditioned condition number by k = 1 + lam_out / mu, and CG's
    residual falls below CG_RTOL ||m|| within ceil(sqrt(k) / 2 ln(2 sqrt(k)
    / CG_RTOL)) steps.  A step is one product, 2 N L (N + L) flops, and one
    apply, 2 N L (rx + ry) + 2 d (N + L) + 2 d^2 flops, d = rx ry; the
    build is 2 N L ry^2 + 2 N d^2 + d^3 flops.  The flops of apply and
    build are priced at PRECOND_FLOP_COST, so no side is longer than
    (N + L) / PRECOND_FLOP_COST, where one apply would cost a product.  The
    grid of those costs, whose (0, 0) is plain CG at kappa, gives the
    cheapest plan, and the Cholesky's S^3 / 3 flops are chosen unless that
    plan costs less.  Its worst-case step count is its budget.
    """
    n, l = kernel.n_rows, kernel.n_cols
    cap = int((n + l) / PRECOND_FLOP_COST)
    wx, wy = kernel.kx._eigenvalues, kernel.ky._eigenvalues
    ox, oy = (np.argsort(-w, kind="stable")[:np.count_nonzero(w > 0)] for w in (wx, wy))
    # lx[rx] for rx = 0 .. min(len(ox), cap)
    lx, ly = (np.append(w[o], 0.0)[:cap + 1] for w, o in ((wx, ox), (wy, oy)))
    # Python floats: an overflowing product is inf
    top = float(lx[0]) * float(ly[0])
    if not (top + mu) / mu * CG_RTOL <= CG_COEFF_TOL:
        return top, None
    rx = np.arange(len(lx), dtype=float)[:, None]
    ry = np.arange(len(ly), dtype=float)[None, :]
    d = rx * ry
    apply = (2 * n * l * (rx + ry) + 2 * d * (n + l) + 2 * d * d) * (d > 0)
    build = (2 * n * l * ry * ry + 2 * n * d * d + d**3) * (d > 0)
    root = np.sqrt(1.0 + np.maximum(lx[:, None] * ly[0], lx[0] * ly[None, :]) / mu)
    steps = 0.5 * root * np.log(2.0 * root / CG_RTOL)
    cost = (steps * (2 * n * l * (n + l) + PRECOND_FLOP_COST * apply)
            + PRECOND_FLOP_COST * build)
    # a side of 0 costs what (0, 0) does, which comes first
    a, b = np.unravel_index(np.argmin(cost), cost.shape)
    if not cost[a, b] < s**3 / 3:
        return top, None
    return top, (ox[:a], oy[:b], math.ceil(steps[a, b]))


def _woodbury(kernel, flat, grid, out, mu, ox, oy):
    """The float32 apply r -> P^-1 r of _kkmcex_cg's preconditioner on the
    rectangle of eigenpairs ox of Kx and oy of Ky that _plan picked, or
    None for an empty rectangle or a failed factorization.

    P = mu I + Phi_R Lam_R Phi_R^T is G's part on that rx x ry rectangle,
    plus mu I: column (a, b) of the S x d matrix Phi_R, d = rx ry, holds
    the sampled entries of ux[:, a] uy[:, b]^T, ux and uy the eigenvectors
    ox and oy, and Lam_R the products lx[a] ly[b] of their eigenvalues.
    By Woodbury, P^-1 r = (r - Phi_R W Phi_R^T r) / mu with W =
    (Phi_R^T Phi_R + mu Lam_R^-1)^-1, and Phi_R^T r is ux^T R uy for R the
    residual scattered into ``grid``; Phi_R W v is gathered from ux V uy^T,
    written into ``out``.  The Gram Phi_R^T Phi_R is sum_i (x_i x_i^T) kron
    B_i, x_i row i of ux and B_i the sum of y_j y_j^T over the sampled
    columns j of row i: the B_i are one product by the sample mask, and
    the Gram one product of them by the x_i x_i^T, so no S x d array is
    formed.  Gram, Cholesky and inverse run in float32 in the one d x d
    array kept as W; only W, ux and uy are kept.

    ``grid`` is the float32 product's scatter grid, zero off the sampled
    cells ``flat``; each scatter writes all of them, so it stays so.
    """
    rx, ry = len(ox), len(oy)
    if rx * ry == 0:
        return None
    (n, l), d = grid.shape, rx * ry
    lam = np.outer(kernel.kx._eigenvalues[ox], kernel.ky._eigenvalues[oy]).ravel()
    ux = kernel.kx._eig[1][:, ox].astype(np.float32)
    uy = kernel.ky._eig[1][:, oy].astype(np.float32)
    cells = grid.ravel()
    cells[flat] = 1.0
    b = _blas.gemm(grid, (uy[:, :, None] * uy[:, None, :]).reshape(l, ry * ry))
    # (a, a') x (b, b') -> (a, b) x (a', b'), copied into the C-ordered
    # array that is factored and inverted
    w = _blas.gemm((ux[:, :, None] * ux[:, None, :]).reshape(n, rx * rx).T, b)
    w = w.reshape(rx, rx, ry, ry).transpose(0, 2, 1, 3).reshape(d, d)
    del b
    w.flat[::d + 1] += mu / lam
    # w is symmetric, so w.T is a Fortran-ordered view that LAPACK factors
    # and inverts in place, in its lower triangle: the upper one of w
    factor, info = spotrf(w.T, lower=1, overwrite_a=1)
    if info == 0:
        _, info = spotri(factor, lower=1, overwrite_c=1)
    if info != 0:
        return None
    lower = np.tri(d, k=-1, dtype=bool)
    w[lower] = w.T[lower]

    def apply(r):
        cells[flat] = r
        v = _blas.gemm(_blas.gemm(ux.T, grid), uy).reshape(d, 1)
        _blas.gemm(_blas.gemm(ux, _blas.gemm(w, v).reshape(rx, ry)), uy.T, out=out)
        return (r - out.ravel()[flat]) / mu

    return apply


def _kkmcex_cg(kernel, sampling, values, mu, plan):
    """Dual coefficients by preconditioned CG from zero, or None when the
    true residual misses CG_RTOL ||m|| or is not finite.

    A product scatters p into an N x L grid, zero off the sample, multiplies
    it by Kx on the left and Ky on the right, and gathers the sampled cells:
    2 N L (N + L) flops and three N x L grids, no S x S array.  The CG steps
    run it in float32, on float32 copies of Kx and Ky, in about half the
    time, and add mu p in float64; x, r and p stay float64.  That is safe
    because CG is admitted only for kappa <= CG_COEFF_TOL / CG_RTOL = 1e4,
    so kappa times float32's unit roundoff (6e-8) is at most 6e-4: the
    products stay accurate enough for CG to converge.  Exactness comes from
    float64: each time r has fallen by CG_REPLACE, and before any stop or
    when the budget is spent, r is replaced by the true residual
    m - (G + mu I) x from a float64 product, and CG stops only on a true
    residual of at most CG_RTOL / 2 ||m||.  ``plan`` is _plan's (ox, oy,
    budget), and products of both precisions count against its budget.

    The top of the product spectrum is what sets kappa, so the steps are
    preconditioned by P = mu I + G's part on the top rx x ry rectangle of
    factor eigenpairs, applied exactly in float32 by _woodbury.  P <= G +
    mu I <= P + lam_out I, lam_out the largest eigenvalue product outside
    the rectangle, so the preconditioned condition number is at most 1 +
    lam_out / mu; _plan picks the rectangle from that bound and the
    costs, and its (0, 0) runs plain CG through the same loop.  At
    exact-250's settings (250 x 250, S = 6250, mu = 1e-3) it picks 21 x 13,
    which bounds the condition number by 109 instead of 1001, and a budget
    of 161 products: over 20 draws a fit took 57.4 float32 products on
    average (at most 64) and 6 float64 ones.  An apply costs about a third
    of a product and the build about 2 ms.
    """
    n, l = kernel.n_rows, kernel.n_cols
    flat = sampling.row_indices0 * l + sampling.col_indices0
    kx, ky = kernel.kx.matrix, kernel.ky.matrix
    kx32, ky32 = kx.astype(np.float32), ky.astype(np.float32)
    grid = np.zeros((n, l), np.float32)
    left, full = np.empty_like(grid), np.empty_like(grid)

    def single(c):
        grid.ravel()[flat] = c
        _blas.gemm(kx32, grid, out=left)
        _blas.gemm(left, ky32, out=full)
        return full.ravel()[flat] + mu * c

    def double(c):
        g = np.zeros((n, l))
        g.ravel()[flat] = c
        return _blas.gemm(_blas.gemm(kx, g), ky, out=g).ravel()[flat] + mu * c

    ox, oy, budget = plan
    precondition = _woodbury(kernel, flat, grid, full, mu, ox, oy) or (lambda r: r)
    x, p = np.zeros(len(flat)), np.zeros(len(flat))
    r = values.copy()
    rz = 1.0
    true_rr = anchor = _blas.dot(r, r)
    stop = (0.5 * CG_RTOL) ** 2 * true_rr
    products = 0
    while true_rr > stop and products < budget:
        z = precondition(r)
        rz, rz_old = _blas.dot(r, z), rz
        p = z + (rz / rz_old) * p
        q = single(p)
        products += 1
        pq = _blas.dot(p, q)
        if not pq > 0.0:
            return None
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        rr = _blas.dot(r, r)
        if rr <= max(CG_REPLACE**2 * anchor, stop) or products == budget:
            r = values - double(x)
            products += 1
            true_rr = anchor = _blas.dot(r, r)
    return x if true_rr <= CG_RTOL**2 * _blas.dot(values, values) else None


def kkmcex_fit(kernel, obs, mu):
    """Solve the S x S regularized system on the sampled kernel block.

    The dual coefficients solve (G + mu I) c = m with G the sampled S x S
    product-kernel block; the full NL x NL kernel is never formed.  The
    condition number of G + mu I is at most kappa = (lx ly + mu) / mu, lx
    and ly the factors' top eigenvalues.  When _plan picks CG, the system is
    solved matrix-free, in O(S + NL) memory; a CG solve that misses its
    residual falls back to the Cholesky path.  That path gathers
    G as the only S x S array, adds mu to its diagonal and factors it in
    place, so its peak memory is about one S x S block.
    """
    where = _check_fit_inputs(obs, mu, (kernel.n_rows, kernel.n_cols))
    sampling = obs.sampling
    top, plan = _plan(kernel, len(sampling), mu)
    where += f", condition bound {(top + mu) / mu:.3g}"
    if not math.isfinite(top + mu):
        raise NumericalError(f"kernel eigenvalue product overflows ({where})")
    coeffs = None if plan is None else _kkmcex_cg(kernel, sampling, obs.values, mu, plan)
    if coeffs is None:
        try:
            coeffs = _kkmcex_cholesky(kernel, sampling, obs.values, mu, where)
        except MemoryError as exc:
            raise NumericalError(f"the S x S block of {8 * len(sampling)**2} bytes "
                                 f"cannot be allocated ({where})") from exc
    return KkmcexModel(kernel, sampling, mu, coeffs)


def kkmcex_predict(model):
    """Full N x L estimate from the fitted dual coefficients.

    The product-kernel times scattered-coefficients product collapses to
    Kx @ C @ Ky with C the coefficients placed at their grid positions, so
    prediction costs two small dense multiplies.
    """
    kk = model.kernel
    c = np.zeros((kk.n_rows, kk.n_cols))
    c[model.sampling.row_indices0, model.sampling.col_indices0] = model.dual_coeffs
    return _blas.gemm(_blas.gemm(kk.kx.matrix, c), kk.ky.matrix)


def _feature_blocks(features, rows0, cols0):
    """Yield (start, block): the feature rows of the entries (rows0, cols0)
    from ``start`` on, about FEATURE_BLOCK_BYTES at a time.

    Every block is written into one reused buffer, so a block is valid only
    until the next one is yielded.
    """
    d = features.dim
    step = max(1, FEATURE_BLOCK_BYTES // (8 * max(d, 1)))
    buf = np.empty((min(step, len(rows0)), d))
    for start in range(0, len(rows0), step):
        stop = min(start + step, len(rows0))
        yield start, features.rows(rows0[start:stop], cols0[start:stop],
                                   out=buf[:stop - start])


def _syrk_gram(features, rows0, cols0, values):
    """Lower triangle of the Gram Phi_S^T Phi_S, Fortran-ordered, and
    Phi_S^T m, from the feature rows gathered one block at a time.

    Each block adds a rank-k symmetric update (half the flops of a full
    multiply) to the Gram and its product with the block's observations to
    the right-hand side: S d^2 flops, and memory beyond the inputs of one
    block plus the d x d Gram.
    """
    d = features.dim
    a = np.zeros((d, d), order="F")
    rhs = np.zeros(d)
    for start, block in _feature_blocks(features, rows0, cols0):
        # block.T is Fortran-ordered, so the update reads the block in place,
        # and a Fortran-ordered a is updated in place
        a = dsyrk(1.0, block.T, beta=1.0, c=a, trans=0, lower=1, overwrite_c=1)
        rhs += _blas.gemv(block.T, values[start:start + len(block)])
    return a, rhs


def _pairing(features, s):
    """The side of a factored map (see kernels._factored_map) with fewer
    distinct basis columns m, on which _grouped_gram builds the Gram of S
    sampled rows, as (on_cols, basis, groups, z): whether it is the column
    side, its basis columns, the basis column of each feature, and the
    other side's factor with the weights folded in.  None for a map without
    factors, or when _syrk_gram's S d^2 flops cost less than grouping:
    GROUPED_PAIR_COST a sample for each of the m (m + 1) / 2 pairs, plus
    at most 2 L' d^2 flops for the products of its blocks, L' the other
    side's length.
    """
    if features._factors is None:
        return None
    ux, ia, uy, ib, w = features._factors
    on_cols = ux.shape[1] > uy.shape[1]
    basis, groups, other = (uy, ib, ux.shape[0]) if on_cols else (ux, ia, uy.shape[0])
    m, d = basis.shape[1], features.dim
    if not GROUPED_PAIR_COST * (m * (m + 1) // 2) * s + 2 * other * d * d < s * d * d:
        return None
    return on_cols, basis, groups, features.x if on_cols else features.y * w


def _grouped_gram(pairing, rows0, cols0, values):
    """The Gram Phi_S^T Phi_S, Fortran-ordered, and Phi_S^T m of a factored
    map, with no S x d array.

    Say the row side pairs (``_pairing``): feature c is w[c] ux[:, a] kron
    y[:, c], a = ia[c], so the features of group a share ux[:, a].  For
    groups a <= a', the weight c[j] = sum of ux[i, a] ux[i, a'] over the
    samples (i, j) is one bincount over the S samples, and the Gram block
    of the two groups is Z_a^T diag(c) Z_a', Z_a = (y * w)[:, group a], one
    product over the L grid columns.  The right-hand side of group a is
    Z_a^T times the bincount of ux[i, a] m.  The column side pairs the same
    way with Z_b = x[:, group b].
    """
    on_cols, basis, groups, z = pairing
    pair0, other0 = (cols0, rows0) if on_cols else (rows0, cols0)
    other, d = z.shape
    basis_rows = np.ascontiguousarray(basis.T)
    members = [np.flatnonzero(groups == g) for g in range(basis.shape[1])]
    gram = np.zeros((d, d), order="F")
    rhs = np.zeros(d)
    left, right = np.empty(len(pair0)), np.empty(len(pair0))
    for g, mine in enumerate(members):
        # mode="clip" lets np.take write into out directly; the indices
        # of a sampling of this grid lie on it
        np.take(basis_rows[g], pair0, out=left, mode="clip")
        zg = z[:, mine]
        np.multiply(left, values, out=right)
        rhs[mine] = _blas.gemv(zg.T, np.bincount(other0, right, minlength=other))
        for h in range(g, len(members)):
            theirs = members[h]
            np.take(basis_rows[h], pair0, out=right, mode="clip")
            right *= left
            weight = np.bincount(other0, right, minlength=other)
            block = _blas.gemm(zg.T, z[:, theirs] * weight[:, None])
            gram[np.ix_(mine, theirs)] = block
            gram[np.ix_(theirs, mine)] = block.T
    return gram, rhs


def rrmcex_fit(features, obs, mu):
    """Ridge regression on the sampled feature rows.

    Solves (Phi_S^T Phi_S + mu I) xi = Phi_S^T m where Phi_S holds the
    feature rows at the sampled entries; Phi_S is never formed.  A map
    built by features_from_eig or features_from_svd keeps its Kronecker
    factors.  When grouping pays (_pairing), the Gram is summed over the P
    index pairs of the side with fewer distinct basis columns
    (_grouped_gram): O(P S + L' d^2), L' the other side's length, in
    length-S temporaries.  Otherwise, and for a map built from x and y
    alone, the rows are gathered in blocks into dsyrk (_syrk_gram):
    O(d^2 S), in one block.  The Cholesky solve reads only the lower
    triangle and factors it in place.
    """
    where = _check_fit_inputs(obs, mu, (features.n_rows, features.n_cols))
    s = obs.sampling
    pairing = _pairing(features, len(s))
    a, rhs = (_syrk_gram(features, s.row_indices0, s.col_indices0, obs.values)
              if pairing is None else
              _grouped_gram(pairing, s.row_indices0, s.col_indices0, obs.values))
    a[np.diag_indices_from(a)] += mu
    return RrmcexModel(features, mu, _spd_solve(a, rhs, where))


def rrmcex_predict(model):
    """Full N x L estimate: entry (i, j) is (x[i] * xi) @ y[j], one N x d by
    d x L product of the feature factors."""
    f = model.features
    return _blas.gemm(f.x * model.xi, f.y.T)


def _orrmcex_update(xi, phi_row, m, t, mu):
    """Step ``xi`` in place by ``t`` along the gradient phi (phi^T xi - m)
    + mu xi of the half-scaled instantaneous objective
    (residual^2 + mu ||xi||^2) / 2 of the observation m with feature row phi."""
    resid = phi_row @ xi - m
    xi -= t * (phi_row * resid + mu * xi)


def orrmcex_step(model, i, j, m, t, mu):
    """One streaming update from the observation m at grid entry (i, j),
    returned as a new model.  A zero step size leaves the model unchanged.
    """
    check_number("step size t", t, "nonnegative")
    check_number("mu", mu)
    check_number("observation m", m, "any")
    xi = np.array(model.xi, dtype=float)
    _orrmcex_update(xi, model.features.row(i, j), m, t, mu)
    return RrmcexModel(model.features, mu, xi)


def _sgd_run(method, obs, grid, mu, schedule, epochs, seed, eval_hook, eval_every,
             init, sweep, snapshot):
    """Run ``epochs`` (at least 1) epochs of SGD from ``init()``, a tuple of
    arrays made once the arguments pass, and return ``snapshot(*iterate)``.

    Each epoch draws a fresh permutation of the observations from ``seed``.
    ``sweep(*iterate, visits, steps)`` updates the iterate in place once per
    index of ``visits``; update n, counted from 1 over all epochs, takes
    step size schedule.steps(n, 1).  With ``eval_hook``, the order is cut
    every ``eval_every`` updates (default: at each epoch's end), and each
    cut calls ``eval_hook(n, snapshot(*iterate))``.  Updates and hooks run
    with numpy's overflow warnings off; the iterate is checked finite at
    each cut and each epoch's end, so a diverging fit raises a
    NumericalError naming ``method``, the iteration and its step size.  An
    evaluation of a finite iterate too large to square reads inf.
    """
    check_integer("epochs", epochs, 1)
    check_integer("seed", seed, 0)
    where = _check_fit_inputs(obs, mu, grid)
    if eval_every is not None:
        check_integer("eval_every", eval_every, 1)
    count = len(obs.values)
    stride = count if eval_hook is None or eval_every is None else eval_every
    rng = np.random.default_rng(seed)
    iterate = init()
    n = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = rng.permutation(count)
            cuts = [*range(stride - n % stride, count, stride), count]
            for start, stop in zip([0, *cuts], cuts):
                steps = schedule.steps(n + 1, stop - start)
                sweep(*iterate, order[start:stop], steps)
                n += stop - start
                if not all(np.isfinite(a).all() for a in iterate):
                    raise NumericalError(
                        f"{method} diverged: the iterate after iteration {n}, "
                        f"step size {steps[-1]:g}, is not finite ({where})")
                if eval_hook is not None and n % stride == 0:
                    eval_hook(n, snapshot(*iterate))
    return snapshot(*iterate)


def orrmcex_run(features, obs, schedule, mu, epochs, eval_hook=None, seed=0,
                eval_every=None):
    """Streaming SGD from xi = 0 over the observations, ``epochs`` times in
    seeded orders; the schedule, hook and divergence as in _sgd_run."""
    rows0, cols0, values = obs.sampling.row_indices0, obs.sampling.col_indices0, obs.values

    def sweep(xi, visits, steps):
        for start, block in _feature_blocks(features, rows0[visits], cols0[visits]):
            for k, t, phi_row in zip(visits[start:], steps[start:], block):
                _orrmcex_update(xi, phi_row, values[k], t, mu)

    return _sgd_run("orrmcex", obs, (features.n_rows, features.n_cols), mu, schedule,
                    epochs, seed, eval_hook, eval_every, lambda: (np.zeros(features.dim),),
                    sweep, lambda xi: RrmcexModel(features, mu, xi.copy()))


def _factor_init(n, l, p, seed):
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(p)
    return rng.normal(scale=scale, size=(n, p)), rng.normal(scale=scale, size=(l, p))


def _kernel_inverse(kernel, name):
    try:
        factor = cho_factor(kernel.matrix, lower=True)
    except LinAlgError as exc:
        raise InvalidInputError(f"{name} kernel is singular; its inverse-regularized "
                                f"subproblems are undefined") from exc
    return cho_solve(factor, np.eye(kernel.side))


def _als_objective(m_vals, rows, cols, w, h, mu, kxinv, kyinv):
    resid = m_vals - np.sum(w[rows] * h[cols], axis=1)
    fit = _blas.dot(resid, resid)
    reg = mu * (float(np.sum(w * _blas.gemm(kxinv, w)))
                + float(np.sum(h * _blas.gemm(kyinv, h))))
    return fit + reg


def _als_half_step(m_vals, own_idx, other_idx, other, n_own, p, mu, kinv, where):
    """Exact minimization over one factor with the other held fixed;
    ``where`` as in _spd_solve.

    The normal equations couple the rows of the updated factor through the
    inverse-kernel regularizer, so all n_own * p unknowns are solved at once.
    """
    size = n_own * p
    # at is the system's transpose: LAPACK factors at.reshape(size, size).T, a
    # Fortran-ordered view, in place.  kinv is not exactly symmetric, so the .T
    # goes on kinv; the diagonal blocks are exactly (v[s] * v[r] == v[r] * v[s])
    at = np.zeros((n_own, p, n_own, p))
    for r in range(p):
        at[:, r, :, r] = mu * kinv.T
    diag = np.arange(n_own)
    blocks = at[diag, :, diag, :]
    v = other[other_idx]
    np.add.at(blocks, own_idx, v[:, :, None] * v[:, None, :])
    at[diag, :, diag, :] = blocks
    rhs = np.zeros(size)
    np.add.at(rhs.reshape(n_own, p), own_idx, m_vals[:, None] * v)
    return _spd_solve(at.reshape(size, size).T, rhs, where).reshape(n_own, p)


def als_fit(obs, kx, ky, p, mu, max_iters=500, rel_tol=1e-6, seed=0,
            return_objectives=False):
    """Alternating exact minimization of the kernel-regularized factorization,
    from the factors _factor_init draws from ``seed``.

    Each half step solves its coupled normal equations exactly, so the
    objective is non-increasing; an increase beyond 1e-10 signals a solver
    bug and raises.  Stops on relative objective decrease below ``rel_tol``
    or after ``max_iters`` pairs of half steps.
    """
    check_integer("rank bound", p, 1)
    check_integer("max_iters", max_iters, 1)
    check_number("rel_tol", rel_tol, "nonnegative")
    where = _check_fit_inputs(obs, mu, (kx.side, ky.side))
    sampling = obs.sampling
    n, l = sampling.n_rows, sampling.n_cols
    w, h = _factor_init(n, l, p, seed)
    kxinv = _kernel_inverse(kx, "row")
    kyinv = _kernel_inverse(ky, "column")
    rows = sampling.row_indices0
    cols = sampling.col_indices0
    m_vals = obs.values
    # an overflow reaches _spd_solve as a non-finite system, which it names
    with np.errstate(over="ignore", invalid="ignore"):
        objectives = [_als_objective(m_vals, rows, cols, w, h, mu, kxinv, kyinv)]
        for _ in range(max_iters):
            w = _als_half_step(m_vals, rows, cols, h, n, p, mu, kxinv, where)
            h = _als_half_step(m_vals, cols, rows, w, l, p, mu, kyinv, where)
            obj = _als_objective(m_vals, rows, cols, w, h, mu, kxinv, kyinv)
            prev = objectives[-1]
            if obj > prev + 1e-10:
                raise NumericalError(f"alternating minimization objective increased "
                                     f"({prev:g} -> {obj:g}; {where})")
            objectives.append(obj)
            if prev - obj < rel_tol * max(abs(prev), 1e-30):
                break
    model = FactorModel(w, h, mu)
    return (model, objectives) if return_objectives else model


def _factor_sgd_update(w, h, i, j, m, t, reg_w, reg_h):
    """Step rows w[i] and h[j] in place by ``t`` along the gradient of the
    summand (m - w[i] @ h[j])^2 + reg_w ||w[i]||^2 + reg_h ||h[j]||^2."""
    wi, hj = w[i], h[j]
    err = m - wi @ hj
    gw = -2.0 * err * hj + (2.0 * reg_w) * wi
    gh = -2.0 * err * wi + (2.0 * reg_h) * hj
    w[i] = wi - t * gw
    h[j] = hj - t * gh


def factor_sgd_fit(obs, p, mu, schedule, epochs, seed, eval_hook=None,
                   eval_every=None):
    """Row-wise SGD on the entrywise factorization objective, from the
    factors _factor_init draws from ``seed``; the rest as in orrmcex_run.

    Each observed entry contributes its squared residual plus per-row ridge
    terms weighted by mu over the number of observations touching that row
    or column; updates follow the exact gradient of that summand.
    """
    check_integer("rank bound", p, 1)
    sampling = obs.sampling
    n, l = sampling.n_rows, sampling.n_cols
    rows, cols, m_vals = sampling.row_indices0, sampling.col_indices0, obs.values
    row_counts = np.bincount(rows, minlength=n).astype(float)
    col_counts = np.bincount(cols, minlength=l).astype(float)

    def sweep(w, h, visits, steps):
        for k, t in zip(visits, steps):
            i, j = rows[k], cols[k]
            _factor_sgd_update(w, h, i, j, m_vals[k], t,
                               mu / row_counts[i], mu / col_counts[j])

    return _sgd_run("factor_sgd", obs, (n, l), mu, schedule, epochs, seed, eval_hook,
                    eval_every, lambda: _factor_init(n, l, p, seed), sweep,
                    lambda w, h: FactorModel(w.copy(), h.copy(), mu))


def factor_predict(model):
    """Full N x L estimate as the factor product."""
    return _blas.gemm(model.w, model.h.T)


def save_model(path, model):
    """Serialize a fitted model as a CSV bundle: a header line
    ``kind,N,L,k,mu`` over a body that is a triplets file (kkmcex), a
    one-column matrix (rrmcex) or a ``p``-column matrix (factor)."""
    from .bench import _triplet_rows, _write_csv, save_matrix_csv

    mu = float(model.mu)
    if isinstance(model, KkmcexModel):
        s = model.sampling
        _write_csv(path, _triplet_rows(s, model.dual_coeffs),
                   ("kkmcex", s.n_rows, s.n_cols, len(s), mu))
    elif isinstance(model, RrmcexModel):
        f = model.features
        _write_csv(path, ([v] for v in model.xi.tolist()),
                   ("rrmcex", f.n_rows, f.n_cols, f.dim, mu))
    elif isinstance(model, FactorModel):
        n, l = model.w.shape[0], model.h.shape[0]
        _write_csv(path, (), ("factor", n, l, model.rank, mu))
        with open(path, "a") as fh:
            save_matrix_csv(fh, np.vstack((model.w, model.h)))
    else:
        raise InvalidInputError(f"cannot serialize model of type {type(model)!r}")


def _read_bundle(path, kind, grid=None):
    """Header ``kind,N,L,k,mu`` on line 1 of a model bundle, as (N, L, k, mu);
    N x L must equal ``grid``, the model's (N, L), when one is given."""
    from .bench import _read_csv

    header, _ = _read_csv(path, (str, int, int, int, float), last=1)
    name, n, l, k, mu = header[0] if header else ("", 0, 0, 0, 0.0)
    if name != kind:
        raise InvalidInputError(f"{path}: line 1: expected a {kind} bundle, got {name!r}")
    if min(n, l) < 1 or k < 0:
        raise InvalidInputError(f"{path}: line 1: sizes N={n}, L={l}, k={k} out of range")
    if grid not in (None, (n, l)):
        raise InvalidInputError(f"{path}: line 1: grid {n} x {l} is not the model's {grid}")
    check_number(f"{path}: line 1: mu", mu)
    return n, l, k, mu


def _read_body(path, width):
    """A bundle's body, from line 2 on: a ``width``-column matrix of finite floats."""
    from .bench import _finite, _read_csv

    rows, _ = _read_csv(path, (_finite,) * width, first=2)
    return np.array(rows, dtype=float).reshape(len(rows), width)


def load_kkmcex_model(path, kernel):
    from .bench import load_triplets_csv

    n, l, s, mu = _read_bundle(path, "kkmcex", (kernel.n_rows, kernel.n_cols))
    obs = load_triplets_csv(path, n, l, first=2)
    if len(obs.values) != s:
        raise InvalidInputError(f"{path}: expected {s} coefficients, found {len(obs.values)}")
    return KkmcexModel(kernel, obs.sampling, mu, obs.values)


def load_rrmcex_model(path, features):
    _, _, d, mu = _read_bundle(path, "rrmcex", (features.n_rows, features.n_cols))
    xi = _read_body(path, 1).ravel()
    if xi.size != d or features.dim != d:
        raise InvalidInputError(f"{path}: coefficient count does not match d={d}")
    return RrmcexModel(features, mu, xi)


def load_factor_model(path):
    n, l, p, mu = _read_bundle(path, "factor")
    factors = _read_body(path, p)
    if len(factors) != n + l:
        raise InvalidInputError(
            f"{path}: expected {n + l} factor rows, found {len(factors)}")
    return FactorModel(factors[:n], factors[n:], mu)
