"""Completion estimators: the closed-form product-kernel solver, its
reduced-dimension ridge variant (batch and streaming), and the two
factorization baselines (exact alternating minimization and row-wise SGD).

All linear systems are symmetric positive definite by construction
(PSD Gram plus mu I with mu > 0) and are solved by Cholesky factorization.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError
from scipy.linalg.blas import dsyrk

from .errors import InvalidInputError, NumericalError
from .kernels import kron_submatrix

# size of one block of gathered feature rows in _feature_blocks (of 64 KB to
# 1 MB, 256 KB fit fastest on an 800 x 1250 grid at S = 250000, d = 50)
FEATURE_BLOCK_BYTES = 1 << 18

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

    def full_dual_vector(self):
        """Length-NL coefficient vector; exactly zero off the sampled indices."""
        gamma = np.zeros(self.kernel.size)
        gamma[self.sampling.vec_indices0] = self.dual_coeffs
        return gamma


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
            raise InvalidInputError(f"unknown step rule {self.rule!r}")
        if self.c <= 0 or (self.rule == "decay" and self.n0 <= 0):
            raise InvalidInputError("step-size parameters must be positive")

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


def _check_fit_inputs(obs, mu):
    if not np.isfinite(mu) or mu <= 0:
        raise InvalidInputError(f"ridge weight mu must be positive and finite, got {mu}")
    if not np.all(np.isfinite(obs.values)):
        raise InvalidInputError("observations contain non-finite values")


def _check_grid(kernel_or_features, sampling):
    """Reject a sampling of another grid than the kernel's or feature map's."""
    grid = (kernel_or_features.n_rows, kernel_or_features.n_cols)
    if (sampling.n_rows, sampling.n_cols) != grid:
        raise InvalidInputError(
            f"sampling grid {sampling.n_rows} x {sampling.n_cols} does not match "
            f"model grid {grid[0]} x {grid[1]}")


def kkmcex_fit(kernel, obs, mu):
    """Solve the S x S regularized system on the sampled kernel block.

    The dual coefficients solve (G + mu I) c = m with G the sampled S x S
    product-kernel block; the full NL x NL kernel is never formed.  G is the
    only S x S array: mu is added to its diagonal and it is factored in
    place, so peak memory is about one S x S block.
    """
    _check_fit_inputs(obs, mu)
    sampling = obs.sampling
    _check_grid(kernel, sampling)
    g = kron_submatrix(kernel, sampling)
    g[np.diag_indices_from(g)] += mu
    # g is exactly symmetric, so g.T is the same matrix as a Fortran-ordered
    # view, which LAPACK factors in place
    coeffs = _spd_solve(g.T, obs.values)
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
    return kk.kx.matrix @ c @ kk.ky.matrix


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


def rrmcex_fit(features, obs, mu):
    """Ridge regression on the sampled feature rows.

    Solves (Phi_S^T Phi_S + mu I) xi = Phi_S^T m where Phi_S holds the
    feature rows at the sampled entries (cost O(d^2 S)).  Phi_S is never
    formed: its rows are gathered from the two factors one block at a time,
    and each block adds a rank-k symmetric update (half the flops of a full
    multiply) to the lower triangle of the Gram and its product with the
    block's observations to the right-hand side, so memory beyond the
    inputs is one block plus the d x d Gram.  The Cholesky solve reads only
    the lower triangle and factors it in place.
    """
    _check_fit_inputs(obs, mu)
    s = obs.sampling
    _check_grid(features, s)
    d = features.dim
    a = np.zeros((d, d), order="F")
    rhs = np.zeros(d)
    for start, block in _feature_blocks(features, s.row_indices0, s.col_indices0):
        # block.T is Fortran-ordered, so the update reads the block in place,
        # and a Fortran-ordered a is updated in place
        a = dsyrk(1.0, block.T, beta=1.0, c=a, trans=0, lower=1, overwrite_c=1)
        rhs += block.T @ obs.values[start:start + len(block)]
    a[np.diag_indices_from(a)] += mu
    return RrmcexModel(features, mu, _spd_solve(a, rhs))


def rrmcex_predict(model):
    """Full N x L estimate: entry (i, j) is (x[i] * xi) @ y[j], one N x d by
    d x L product of the feature factors."""
    f = model.features
    return (f.x * model.xi) @ f.y.T


def orrmcex_step(model, i, j, m, t, mu):
    """One streaming update from the observation m at grid entry (i, j).

    The update direction phi (phi^T xi - m) + mu xi is the gradient of the
    half-scaled instantaneous objective (residual^2 + mu ||xi||^2) / 2.
    A zero step size leaves the model unchanged.
    """
    if t < 0:
        raise InvalidInputError(f"step size must be nonnegative, got {t}")
    phi_row = model.features.row(i, j)
    resid = float(phi_row @ model.xi) - m
    xi = model.xi - t * (phi_row * resid + mu * model.xi)
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
    _check_fit_inputs(obs, mu)
    s = obs.sampling
    _check_grid(features, s)
    values = obs.values
    xi = np.zeros(features.dim)
    n = 0
    for order in orders:
        for start, block in _feature_blocks(features, s.row_indices0[order],
                                            s.col_indices0[order]):
            for k, phi_row in zip(order[start:start + len(block)], block):
                n += 1
                t = schedule.step(n)
                resid = phi_row @ xi - values[k]
                xi -= t * (phi_row * resid + mu * xi)
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
    fit = float(resid @ resid)
    reg = mu * (float(np.sum(w * (kxinv @ w))) + float(np.sum(h * (kyinv @ h))))
    return fit + reg


def _als_half_step(m_vals, own_idx, other_idx, other, n_own, p, mu, kinv):
    """Exact minimization over one factor with the other held fixed.

    The normal equations couple the rows of the updated factor through the
    inverse-kernel regularizer, so all n_own * p unknowns are solved at once.
    """
    size = n_own * p
    a = mu * np.kron(kinv, np.eye(p))
    rhs = np.zeros(size)
    for k in range(len(m_vals)):
        i = own_idx[k]
        v = other[other_idx[k]]
        block = slice(i * p, (i + 1) * p)
        a[block, block] += np.outer(v, v)
        rhs[block.start:block.stop] += m_vals[k] * v
    return _spd_solve(a, rhs).reshape(n_own, p)


def als_fit(obs, kx, ky, p, mu, max_iters=500, rel_tol=1e-6, seed=0,
            init_w=None, init_h=None, return_objectives=False):
    """Alternating exact minimization of the kernel-regularized factorization.

    Each half step solves its coupled normal equations exactly, so the
    objective is non-increasing; an increase beyond 1e-10 signals a solver
    bug and raises.  Stops on relative objective decrease below ``rel_tol``.
    """
    if p < 1:
        raise InvalidInputError(f"rank bound must be at least 1, got {p}")
    _check_fit_inputs(obs, mu)
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


def _factor_sgd_epochs(obs, w, h, mu, schedule, orders, eval_hook=None,
                       eval_every=None):
    """Factor SGD from the factors (w, h), which it updates in place,
    visiting the observations in each order of ``orders`` in turn (one per
    epoch); ``eval_hook(iteration, model)`` fires every ``eval_every``
    iterations."""
    _check_fit_inputs(obs, mu)
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
            t = schedule.step(step_no)
            i, j = rows[k], cols[k]
            wi, hj = w[i], h[j]
            err = m_vals[k] - wi @ hj
            gw = -2.0 * err * hj + (2.0 * mu / row_counts[i]) * wi
            gh = -2.0 * err * wi + (2.0 * mu / col_counts[j]) * hj
            w[i] = wi - t * gw
            h[j] = hj - t * gh
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
    return model.w @ model.h.T


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
    if not (np.isfinite(mu) and mu > 0):
        raise InvalidInputError(f"{path}: line 1: mu must be positive and finite, got {mu}")
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
