"""Completion estimators: the closed-form product-kernel solver, its
reduced-dimension ridge variant (batch and streaming), and the two
factorization baselines (exact alternating minimization and row-wise SGD).

All linear systems are symmetric positive definite by construction
(PSD Gram plus mu I with mu > 0) and are solved by Cholesky factorization,
except the closed-form system, which is solved matrix-free by conjugate
gradients when CG's worst case costs fewer flops than the Cholesky.

Every product, factorization and solve runs on SciPy's BLAS and LAPACK,
through ``kronmc._blas`` (which says why) and ``scipy.linalg``.  Only 1-D
dots run on numpy's: the CG solve's inner products and norms, and the
``@`` of the two per-observation SGD updates, ``_orrmcex_update`` and
``_factor_sgd_update``, the one home of each SGD method's arithmetic.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError
from scipy.linalg.blas import dsyrk
from scipy.sparse.linalg import LinearOperator, cg

from . import _blas
from .errors import InvalidInputError, NumericalError, check_number
from .kernels import kron_submatrix

# relative residual tolerance tau of the closed-form CG solve, and the bound
# on kappa * tau, hence on the relative error of the CG coefficients, that
# admits CG at all (criterion 1's tolerance)
CG_RTOL = 1e-12
CG_COEFF_TOL = 1e-8
# size of one block of gathered feature rows in _feature_blocks, which
# ORRMCEX and the dsyrk path of rrmcex_fit run (of 64 KB to 1 MB, 256 KB fit
# fastest on an 800 x 1250 grid at S = 250000, d = 50, a fit that now takes
# the grouped path)
FEATURE_BLOCK_BYTES = 1 << 18
# cost of one (pair, sample) step of _grouped_gram, in flops of _syrk_gram:
# on the 800 x 1250 station grid at S = 250000 (2 cores, OpenBLAS), one
# pair's two gathers, product and weighted bincount took 2.0-2.7 ms
# (8-11 ns a sample), and _syrk_gram at d = 50 took 41-65 ms for its
# S d^2 = 6.25e8 flops (66-104 ps a flop), a ratio of 100-125
GROUPED_PAIR_COST = 100

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


def _spd_solve(a, b):
    """Solve a x = b for symmetric positive-definite ``a``, read from its
    lower triangle.

    Consumes ``a``: a Fortran-ordered ``a`` is overwritten by its Cholesky
    factor, so callers pass an array they no longer need; any other layout
    is copied before the factorization.
    """
    try:
        factor = cho_factor(a, lower=True, overwrite_a=True)
    except LinAlgError as exc:
        raise NumericalError(f"positive-definite solve failed: {exc}") from exc
    # cho_factor has checked a; SciPy's own check would rescan the whole factor
    if not np.all(np.isfinite(b)):
        raise NumericalError("positive-definite solve: right-hand side is not finite")
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

    def step(self, n):
        """Step size at 1-based iteration n."""
        if self.rule == "constant":
            return self.c
        return self.c / (n + self.n0)


def _check_fit_inputs(obs, mu, grid):
    """Reject an empty sampling, a ridge weight ``mu`` that is not positive
    and finite, a non-finite observation, or a sampling of another grid
    than ``grid``, the model's (N, L)."""
    sampling = obs.sampling
    if len(sampling) == 0:
        raise InvalidInputError("sampling is empty (S = 0)")
    check_number("mu", mu)
    if not np.all(np.isfinite(obs.values)):
        raise InvalidInputError("observations contain non-finite values")
    if (sampling.n_rows, sampling.n_cols) != grid:
        raise InvalidInputError(
            f"sampling grid {sampling.n_rows} x {sampling.n_cols} does not match "
            f"model grid {grid[0]} x {grid[1]}")


def _cg_iterations(kappa, s, n, l):
    """Worst-case CG iteration count for an S x S system on an N x L grid
    whose condition number is at most ``kappa``, or None when the Cholesky
    path should solve it.

    CG's residual falls below CG_RTOL ||m|| within
    ceil(sqrt(kappa) / 2 * ln(2 sqrt(kappa) / CG_RTOL)) iterations, each one
    matrix-free product of 2 N L (N + L) flops.  CG is chosen when that worst
    case costs fewer flops than the S^3 / 3 of the Cholesky and when
    ||c - c*|| / ||c*|| <= kappa ||r|| / ||m|| holds the coefficients to
    CG_COEFF_TOL.
    """
    if not kappa * CG_RTOL <= CG_COEFF_TOL:
        return None
    root = math.sqrt(kappa)
    iterations = math.ceil(0.5 * root * math.log(2.0 * root / CG_RTOL))
    return iterations if iterations * 2 * n * l * (n + l) < s**3 / 3 else None


def _kkmcex_cholesky(kernel, sampling, values, mu):
    """Dual coefficients from the gathered S x S block, factored in place."""
    g = kron_submatrix(kernel, sampling)
    g[np.diag_indices_from(g)] += mu
    # g is exactly symmetric, so g.T is the same matrix as a Fortran-ordered
    # view, which LAPACK factors in place
    return _spd_solve(g.T, values)


def _kkmcex_cg(kernel, sampling, values, mu, maxiter):
    """Dual coefficients by unpreconditioned CG from zero, or None when the
    true residual misses CG_RTOL ||m|| or is not finite.

    A product scatters c into one reused N x L grid, zero off the sample,
    multiplies it by Kx on the left and Ky on the right, and gathers the
    sampled cells: 2 N L (N + L) flops and three N x L arrays, no S x S one.
    """
    kx, ky = kernel.kx.matrix, kernel.ky.matrix
    flat = sampling.row_indices0 * kernel.n_cols + sampling.col_indices0
    grid = np.zeros((kernel.n_rows, kernel.n_cols))
    left, full = np.empty_like(grid), np.empty_like(grid)

    def matvec(c):
        c = np.ravel(c)
        np.put(grid, flat, c)
        _blas.gemm(kx, grid, out=left)
        _blas.gemm(left, ky, out=full)
        return np.take(full, flat) + mu * c

    size = len(flat)
    op = LinearOperator((size, size), matvec=matvec, dtype=float)
    # CG stops on its recursively updated residual, which drifts from the
    # true one: by up to 7e-4 CG_RTOL ||m|| over 200 fits at 250 x 250,
    # S = 6250, mu = 1e-3, where stopping at CG_RTOL left true residuals of
    # up to 0.9999 CG_RTOL ||m||.  Stopping at half of it costs about 3
    # iterations of some 100 and leaves the fallback to real misses
    coeffs, _ = cg(op, values, rtol=CG_RTOL / 2, atol=0.0, maxiter=maxiter)
    resid = np.linalg.norm(values - matvec(coeffs))
    return coeffs if resid <= CG_RTOL * np.linalg.norm(values) else None


def kkmcex_fit(kernel, obs, mu):
    """Solve the S x S regularized system on the sampled kernel block.

    The dual coefficients solve (G + mu I) c = m with G the sampled S x S
    product-kernel block; the full NL x NL kernel is never formed.  The
    condition number of G + mu I is at most kappa = (lx ly + mu) / mu, lx
    and ly the factors' top eigenvalues.  When _cg_iterations admits CG,
    the system is solved matrix-free, in O(S + NL) memory; a CG solve that
    misses its residual falls back to the Cholesky path.  That path gathers
    G as the only S x S array, adds mu to its diagonal and factors it in
    place, so its peak memory is about one S x S block.
    """
    _check_fit_inputs(obs, mu, (kernel.n_rows, kernel.n_cols))
    sampling = obs.sampling
    top = max(kernel.kx._top_eigenvalue, 0.0) * max(kernel.ky._top_eigenvalue, 0.0)
    kappa = (top + mu) / mu
    where = f"mu={mu:g}, S={len(sampling)}, condition bound {kappa:.3g}"
    if not np.isfinite(top + mu):
        raise NumericalError(f"kernel eigenvalue product overflows ({where})")
    maxiter = _cg_iterations(kappa, len(sampling), kernel.n_rows, kernel.n_cols)
    coeffs = None
    if maxiter is not None:
        coeffs = _kkmcex_cg(kernel, sampling, obs.values, mu, maxiter)
    if coeffs is None:
        try:
            coeffs = _kkmcex_cholesky(kernel, sampling, obs.values, mu)
        except NumericalError as exc:
            raise NumericalError(f"{exc} ({where})") from exc
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


def _pairing(features):
    """The side of a factored map (see kernels._factored_map) with fewer
    distinct basis columns, as (on_cols, basis, groups, other): whether it
    is the column side, its distinct basis columns, the basis column of each
    feature, and the length of the other side.  None for a map without
    factors.
    """
    if features._factors is None:
        return None
    ux, ia, uy, ib, _ = features._factors
    if ux.shape[1] <= uy.shape[1]:
        return False, ux, ia, uy.shape[0]
    return True, uy, ib, ux.shape[0]


def _grouped_gram(features, rows0, cols0, values):
    """The Gram Phi_S^T Phi_S, Fortran-ordered, and Phi_S^T m of a factored
    map, with no S x d array.

    Say the row side pairs (``_pairing``): feature c is w[c] ux[:, a] kron
    y[:, c], a = ia[c], so the features of group a share ux[:, a].  For
    groups a <= a', the weight c[j] = sum of ux[i, a] ux[i, a'] over the
    samples (i, j) is one bincount over the S samples, and the Gram block
    of the two groups is Z_a^T diag(c) Z_a', Z_a = (y * w)[:, group a], one
    product over the L grid columns.  The right-hand side of group a is
    Z_a^T times the bincount of ux[i, a] m.  The column side pairs the same
    way with Z_b = x[:, group b].  Features beyond len(w) are zero, and so
    are their Gram rows.
    """
    on_cols, basis, groups, other = _pairing(features)
    w = features._factors[4]
    k = len(w)
    if on_cols:
        pair0, other0, z = cols0, rows0, features.x[:, :k]
    else:
        pair0, other0, z = rows0, cols0, features.y[:, :k] * w
    basis_rows = np.ascontiguousarray(basis.T)
    members = [np.flatnonzero(groups == g) for g in range(basis.shape[1])]
    d = features.dim
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


def _grouped_gram_pays(s, d, pairs, other):
    """Whether _grouped_gram builds the Gram of S sampled rows of a d-column
    map, whose paired side has ``pairs`` index pairs and whose other side
    ``other`` entries, in less time than the S d^2 flops of _syrk_gram.

    Its cost is GROUPED_PAIR_COST per pair and sample, plus at most
    2 other d^2 flops for the products of its blocks.
    """
    return GROUPED_PAIR_COST * pairs * s + 2 * other * d * d < s * d * d


def rrmcex_fit(features, obs, mu):
    """Ridge regression on the sampled feature rows.

    Solves (Phi_S^T Phi_S + mu I) xi = Phi_S^T m where Phi_S holds the
    feature rows at the sampled entries; Phi_S is never formed.  A map
    built by features_from_eig or features_from_svd keeps its Kronecker
    factors.  When _grouped_gram_pays, the Gram is summed over the P index
    pairs of the side with fewer distinct basis columns (_grouped_gram):
    O(P S + L' d^2), L' the other side's length, in length-S temporaries.
    Otherwise, and for a map built from x and y alone, the rows are
    gathered in blocks into dsyrk (_syrk_gram): O(d^2 S), in one block.
    The Cholesky solve reads only the lower triangle and factors it in
    place.
    """
    _check_fit_inputs(obs, mu, (features.n_rows, features.n_cols))
    s = obs.sampling
    d = features.dim
    gram = _syrk_gram
    pairing = _pairing(features)
    if pairing is not None:
        _, basis, _, other = pairing
        m = basis.shape[1]
        if _grouped_gram_pays(len(s), d, m * (m + 1) // 2, other):
            gram = _grouped_gram
    a, rhs = gram(features, s.row_indices0, s.col_indices0, obs.values)
    a[np.diag_indices_from(a)] += mu
    return RrmcexModel(features, mu, _spd_solve(a, rhs))


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


def _seeded_orders(count, epochs, seed):
    """``epochs`` fresh seeded permutations of range(count), drawn lazily."""
    if epochs < 0:
        raise InvalidInputError(f"epochs must be nonnegative, got {epochs}")
    rng = np.random.default_rng(seed)
    return (rng.permutation(count) for _ in range(epochs))


def _orrmcex_epochs(features, obs, schedule, mu, orders, eval_hook=None,
                    eval_every=None):
    """ORRMCEX from xi = 0, visiting the observations in each order of
    ``orders`` in turn (one per epoch); ``eval_hook`` as in orrmcex_run."""
    _check_fit_inputs(obs, mu, (features.n_rows, features.n_cols))
    s = obs.sampling
    values = obs.values
    xi = np.zeros(features.dim)
    n = 0
    for order in orders:
        for start, block in _feature_blocks(features, s.row_indices0[order],
                                            s.col_indices0[order]):
            for k, phi_row in zip(order[start:start + len(block)], block):
                n += 1
                _orrmcex_update(xi, phi_row, values[k], schedule.step(n), mu)
                if (eval_every is not None and n % eval_every == 0
                        and eval_hook is not None):
                    eval_hook(n, RrmcexModel(features, mu, xi.copy()))
        if eval_every is None and eval_hook is not None:
            eval_hook(n, RrmcexModel(features, mu, xi.copy()))
    return RrmcexModel(features, mu, xi)


def orrmcex_run(features, obs, schedule, mu, epochs, eval_hook=None, seed=0,
                eval_every=None):
    """Stream the observations for several epochs of seeded-order SGD.

    Starts from xi = 0, visits the observations in a fresh random order each
    epoch, and applies the streaming update with the scheduled step size.
    ``eval_hook(iteration, model)`` fires every ``eval_every`` iterations
    (default: once per epoch).
    """
    orders = _seeded_orders(len(obs.values), epochs, seed)
    return _orrmcex_epochs(features, obs, schedule, mu, orders, eval_hook, eval_every)


def _factor_init(n, l, p, seed):
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


def _als_half_step(m_vals, own_idx, other_idx, other, n_own, p, mu, kinv):
    """Exact minimization over one factor with the other held fixed.

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
    return _spd_solve(at.reshape(size, size).T, rhs).reshape(n_own, p)


def als_fit(obs, kx, ky, p, mu, max_iters=500, rel_tol=1e-6, seed=0,
            init_w=None, init_h=None, return_objectives=False):
    """Alternating exact minimization of the kernel-regularized factorization.

    Each half step solves its coupled normal equations exactly, so the
    objective is non-increasing; an increase beyond 1e-10 signals a solver
    bug and raises.  Stops on relative objective decrease below ``rel_tol``.
    """
    if p < 1:
        raise InvalidInputError(f"rank bound must be at least 1, got {p}")
    _check_fit_inputs(obs, mu, (kx.side, ky.side))
    sampling = obs.sampling
    n, l = sampling.n_rows, sampling.n_cols
    kxinv = _kernel_inverse(kx, "row")
    kyinv = _kernel_inverse(ky, "column")
    rows = sampling.row_indices0
    cols = sampling.col_indices0
    m_vals = obs.values

    if init_w is None or init_h is None:
        w, h = _factor_init(n, l, p, seed)
    else:
        w, h = np.array(init_w, dtype=float), np.array(init_h, dtype=float)

    objectives = [_als_objective(m_vals, rows, cols, w, h, mu, kxinv, kyinv)]
    for _ in range(max_iters):
        w = _als_half_step(m_vals, rows, cols, h, n, p, mu, kxinv)
        h = _als_half_step(m_vals, cols, rows, w, l, p, mu, kyinv)
        obj = _als_objective(m_vals, rows, cols, w, h, mu, kxinv, kyinv)
        prev = objectives[-1]
        if obj > prev + 1e-10:
            raise NumericalError(
                f"alternating minimization objective increased ({prev:g} -> {obj:g})"
            )
        objectives.append(obj)
        if prev - obj < rel_tol * max(abs(prev), 1e-30):
            break
    model = FactorModel(w, h, mu)
    if return_objectives:
        return model, objectives
    return model


def _factor_sgd_update(w, h, i, j, m, t, reg_w, reg_h):
    """Step rows w[i] and h[j] in place by ``t`` along the gradient of the
    summand (m - w[i] @ h[j])^2 + reg_w ||w[i]||^2 + reg_h ||h[j]||^2."""
    wi, hj = w[i], h[j]
    err = m - wi @ hj
    gw = -2.0 * err * hj + (2.0 * reg_w) * wi
    gh = -2.0 * err * wi + (2.0 * reg_h) * hj
    w[i] = wi - t * gw
    h[j] = hj - t * gh


def _factor_sgd_epochs(obs, w, h, mu, schedule, orders, eval_hook=None,
                       eval_every=None):
    """Factor SGD from the factors (w, h), which it updates in place,
    visiting the observations in each order of ``orders`` in turn (one per
    epoch); ``eval_hook(iteration, model)`` fires every ``eval_every``
    iterations."""
    _check_fit_inputs(obs, mu, (len(w), len(h)))
    sampling = obs.sampling
    rows = sampling.row_indices0
    cols = sampling.col_indices0
    m_vals = obs.values
    row_counts = np.bincount(rows, minlength=sampling.n_rows).astype(float)
    col_counts = np.bincount(cols, minlength=sampling.n_cols).astype(float)
    step_no = 0
    for order in orders:
        for k in order:
            step_no += 1
            i, j = rows[k], cols[k]
            _factor_sgd_update(w, h, i, j, m_vals[k], schedule.step(step_no),
                               mu / row_counts[i], mu / col_counts[j])
            if eval_hook is not None and step_no % eval_every == 0:
                eval_hook(step_no, FactorModel(w, h, mu))
    return FactorModel(w, h, mu)


def factor_sgd_fit(obs, p, mu, schedule, epochs, seed):
    """Row-wise SGD on the entrywise factorization objective.

    Each observed entry contributes its squared residual plus per-row ridge
    terms weighted by mu over the number of observations touching that row
    or column; updates follow the exact gradient of that summand.
    """
    if p < 1:
        raise InvalidInputError(f"rank bound must be at least 1, got {p}")
    orders = _seeded_orders(len(obs.values), epochs, seed)
    w, h = _factor_init(obs.sampling.n_rows, obs.sampling.n_cols, p, seed)
    return _factor_sgd_epochs(obs, w, h, mu, schedule, orders)


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
