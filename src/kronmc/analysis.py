"""Numerical verification of the estimator's error theory.

Everything here works on a dense kernel matrix and is desk-scale by
contract (side up to a few thousand): the sampled-block approximation of
the kernel, the exact bias/variance split of the closed-form estimator,
the spectral domination of the residual kernel, and the resulting bound
on the mean-square error.  Also hosts the normalized error metric used by
the benchmarks.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import _blas
from .errors import InvalidInputError, check_integer, check_number
from .sampling import uniform_sample

_MC_BATCH = 20000  # Monte-Carlo noise draws per batch in mse_decomposition
EIG_BOUND_SLACK = 1e-10  # eigenvalue excess over the bound that eig_bound_check passes
# verify_theory's suite (see there)
VERIFY_INSTANCES = 50
VERIFY_MC_INSTANCES = 3
VERIFY_MC_DRAWS = 20000

__all__ = [
    "MseReport",
    "EigBoundReport",
    "regularized_nystrom",
    "mse_decomposition",
    "gamma_tilde",
    "mse_bound",
    "eig_bound_check",
    "nmse",
    "verify_theory",
]


@dataclass(frozen=True)
class MseReport:
    """Exact bias/variance split, with an optional Monte-Carlo cross-check."""

    bias_sq: float
    variance: float
    empirical_mse: float = None
    n_draws: int = 0
    std_error: float = None

    @property
    def total(self):
        return self.bias_sq + self.variance


@dataclass(frozen=True)
class EigBoundReport:
    """Outcome of the sorted-eigenvalue domination check."""

    passed: bool
    worst_margin: float


def regularized_nystrom(k, sampling, mu):
    """Sampled-block approximation K S^T (S K S^T + mu I)^{-1} S K.

    Both the approximation and the residual (kernel minus approximation)
    are symmetric PSD.  A ``k`` that is not N L x N L on the grid of
    ``sampling`` is rejected, before any caller here decomposes it.
    """
    check_number("mu", mu)
    k = np.asarray(k, dtype=float)
    side = sampling.n_rows * sampling.n_cols
    if k.shape != (side, side):
        raise InvalidInputError(f"k: shape {k.shape} does not match N*L = {side} of the "
                                f"{sampling.n_rows} x {sampling.n_cols} sampling")
    idx = sampling.vec_indices0
    if len(idx) == 0:
        return np.zeros_like(k)
    kc = k[:, idx]
    g = k[np.ix_(idx, idx)] + mu * np.eye(len(idx))
    t = _blas.gemm(kc, scipy.linalg.solve(g, kc.T, check_finite=False, assume_a="gen"))
    return (t + t.T) / 2.0


def _estimator_operator(k, sampling, mu):
    """Dense NL x S map from observations to the estimate."""
    idx = sampling.vec_indices0
    kc = k[:, idx]
    g = k[np.ix_(idx, idx)] + mu * np.eye(len(idx))
    return _blas.gemm(kc, scipy.linalg.inv(g, check_finite=False))


def mse_decomposition(k, sampling, gamma, mu, nu_sq, n_draws=0, seed=0):
    """Exact bias and variance of the closed-form estimator.

    bias_sq = ||(K - T) gamma||^2 and
    variance = (nu^2 / mu^2) Tr((K - T)^2 S^T S), with T the regularized
    sampled-block approximation.  With ``n_draws`` > 0 a seeded Monte-Carlo
    estimate of the MSE over fresh noise realizations is attached, computed
    in independent batches, along with its standard error.
    """
    check_number("mu", mu)
    check_number("nu_sq", nu_sq, "nonnegative")
    check_integer("n_draws", n_draws, 0)
    check_integer("seed", seed, 0)
    k = np.asarray(k, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (len(k),):
        raise InvalidInputError(f"gamma: shape {gamma.shape} does not match N*L = {len(k)}")
    resid = k - regularized_nystrom(k, sampling, mu)
    bias_sq = float(np.sum(_blas.gemv(resid, gamma) ** 2))
    idx = sampling.vec_indices0
    variance = float(nu_sq / mu**2 * np.sum(resid[:, idx] ** 2))

    empirical = None
    std_error = None
    if n_draws > 0:
        v = _blas.gemv(k, gamma)
        a = _estimator_operator(k, sampling, mu)
        r0 = v - _blas.gemv(a, v[idx])
        rng = np.random.default_rng(seed)
        sq_sum = 0.0
        sq_sq_sum = 0.0
        done = 0
        while done < n_draws:
            b = min(_MC_BATCH, n_draws - done)
            noise = rng.normal(scale=np.sqrt(nu_sq), size=(len(idx), b))
            errs = r0[:, None] - _blas.gemm(a, noise)
            per_draw = np.sum(errs**2, axis=0)
            sq_sum += per_draw.sum()
            sq_sq_sum += np.sum(per_draw**2)
            done += b
        empirical = float(sq_sum / n_draws)
        var_of_draws = max(sq_sq_sum / n_draws - empirical**2, 0.0)
        std_error = float(np.sqrt(var_of_draws / n_draws))
    return MseReport(bias_sq, variance, empirical, n_draws, std_error)


def gamma_tilde(k, t_tilde, gamma):
    """Coordinates of gamma in the eigenbasis of the residual kernel.

    Eigenvalues of K - T are taken ascending; the transform is orthogonal,
    so the norm of gamma is preserved.
    """
    resid = np.asarray(k, dtype=float) - np.asarray(t_tilde, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (len(resid),):
        raise InvalidInputError(f"gamma: shape {gamma.shape} does not match N*L = {len(resid)}")
    _, vecs = _blas.eigh((resid + resid.T) / 2.0)
    return _blas.gemv(vecs.T, gamma)


def _sigma_max(k, what):
    """Top eigenvalue of the dense kernel ``k``, which ``what`` requires to
    be nonsingular."""
    eigs = _blas.eigvalsh(k)
    if eigs[0] <= 1e-10 * max(1.0, eigs[-1]):
        raise InvalidInputError(f"{what} requires a nonsingular kernel; rank-deficient "
                                "(e.g. bandlimited) kernels are not supported")
    return float(eigs[-1])


def mse_bound(k, sampling, gamma, mu, nu_sq):
    """Spectral upper bound on the estimator MSE for a dense kernel.

    With sigma the top eigenvalue of K, T the regularized sampled-block
    approximation and g = gamma_tilde(K, T, gamma), the first S coordinates
    of g are damped by mu sigma/(sigma+mu), the remaining ones see the full
    sigma, and the variance contributes S nu^2 sigma^2 / mu^2.
    """
    check_number("mu", mu)
    check_number("nu_sq", nu_sq, "nonnegative")
    k = np.asarray(k, dtype=float)
    g = gamma_tilde(k, regularized_nystrom(k, sampling, mu), gamma)
    sigma = _sigma_max(k, "bound")
    s = len(sampling)
    head = (mu**2 * sigma**2) / (sigma + mu) ** 2 * float(np.sum(g[:s] ** 2))
    tail = sigma**2 * float(np.sum(g[s:] ** 2))
    var = s * nu_sq * sigma**2 / mu**2
    return head + tail + var


def eig_bound_check(k, sampling, mu):
    """Check the sorted-eigenvalue domination of the residual kernel.

    The k-th ascending eigenvalue of K - T must not exceed the k-th
    ascending entry of the diagonal bound: mu sigma/(sigma+mu) on the first
    S coordinates, sigma on the rest, up to EIG_BOUND_SLACK.  Reports the
    worst margin.
    """
    check_number("mu", mu)
    k = np.asarray(k, dtype=float)
    t = regularized_nystrom(k, sampling, mu)
    sigma = _sigma_max(k, "domination check")
    resid_eigs = _blas.eigvalsh(k - t)
    bound = np.full(k.shape[0], sigma)
    bound[:len(sampling)] = mu * sigma / (sigma + mu)
    worst = float(np.max(resid_eigs - bound))
    return EigBoundReport(worst <= EIG_BOUND_SLACK, worst)


def nmse(estimate, truth):
    """Relative squared Frobenius error of ``estimate``, of ``truth``'s shape."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if estimate.shape != truth.shape:
        raise InvalidInputError(
            f"estimate shape {estimate.shape} does not match truth shape {truth.shape}")
    denom = np.sum(truth**2)
    if denom == 0:
        raise InvalidInputError("normalized error is undefined for a zero matrix")
    return float(np.sum((estimate - truth) ** 2) / denom)


def _random_instance(rng):
    """Random grid of sides 2 to 6 with nonsingular PSD factor kernels."""
    n = int(rng.integers(2, 7))
    l = int(rng.integers(2, 7))
    bx = rng.normal(size=(n, n))
    by = rng.normal(size=(l, l))
    kx = _blas.gemm(bx, bx.T) / n + 0.5 * np.eye(n)
    ky = _blas.gemm(by, by.T) / l + 0.5 * np.eye(l)
    return n, l, np.kron(ky, kx)


def verify_theory(seed=0):
    """Run the error-theory checks on VERIFY_INSTANCES seeded random instances.

    Per instance: decomposition total within the spectral bound, sorted
    eigenvalues of the residual kernel dominated by the diagonal bound,
    both the approximation and its residual PSD, and (on the noisy ones
    among the first VERIFY_MC_INSTANCES) a Monte-Carlo MSE of
    VERIFY_MC_DRAWS draws within 3 standard errors of the exact total.  A
    final check halves mu under full sampling and expects the bias to
    shrink by at least 3.9x.

    Returns (rows, summary) where rows carry per-instance numbers and
    summary maps check name to (passed, total) counts.
    """
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    rows = []
    summary = {"bound": [0, 0], "eig_domination": [0, 0], "psd": [0, 0],
               "monte_carlo": [0, 0], "bias_rate": [0, 0]}

    for idx in range(VERIFY_INSTANCES):
        n, l, kz = _random_instance(rng)
        nl = n * l
        s_count = int(rng.integers(1, nl + 1))
        sampling = uniform_sample(n, l, s_count, int(rng.integers(2**32)))
        gamma = rng.normal(size=nl)
        mu = float(rng.choice([1e-3, 1e-2, 1e-1, 1.0]))
        nu_sq = float(rng.choice([0.0, 0.1, 0.25]))

        draws = VERIFY_MC_DRAWS if idx < VERIFY_MC_INSTANCES and nu_sq > 0 else 0
        report = mse_decomposition(kz, sampling, gamma, mu, nu_sq,
                                   n_draws=draws, seed=int(rng.integers(2**32)))
        bound = mse_bound(kz, sampling, gamma, mu, nu_sq)
        eig_report = eig_bound_check(kz, sampling, mu)
        t = regularized_nystrom(kz, sampling, mu)
        scale = max(1.0, np.abs(kz).max())
        psd_ok = (_blas.eigvalsh(t)[0] >= -1e-8 * scale
                  and _blas.eigvalsh(kz - t)[0] >= -1e-8 * scale)

        checks = {"bound": report.total <= bound * (1 + 1e-10) + 1e-12,
                  "eig_domination": eig_report.passed, "psd": psd_ok}
        if draws > 0:
            tol = max(3 * report.std_error, 0.03 * report.total)
            checks["monte_carlo"] = abs(report.empirical_mse - report.total) <= tol
        for name, ok in checks.items():
            summary[name][0] += int(ok)
            summary[name][1] += 1
        rows.append({
            "instance": idx,
            "bias_sq": report.bias_sq,
            "variance": report.variance,
            "empirical_mse": report.empirical_mse,
            "bound": bound,
            "margin": eig_report.worst_margin,
        })

    # bias decay under full sampling: quartering per halving of mu
    n, l, kz = _random_instance(rng)
    full = uniform_sample(n, l, n * l, int(rng.integers(2**32)))
    gamma = rng.normal(size=n * l)
    mu_small = 1e-5 * float(_blas.eigvalsh(kz)[0])
    b1 = mse_decomposition(kz, full, gamma, mu_small, 0.0).bias_sq
    b2 = mse_decomposition(kz, full, gamma, mu_small / 2.0, 0.0).bias_sq
    rate_ok = b2 > 0 and b1 / b2 >= 3.9
    summary["bias_rate"] = [int(rate_ok), 1]
    summary = {k: tuple(v) for k, v in summary.items()}
    return rows, summary
