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
from .errors import InvalidInputError, check_number

__all__ = [
    "NystromApprox",
    "MseReport",
    "BoundInputs",
    "EigBoundReport",
    "regularized_nystrom",
    "mse_decomposition",
    "gamma_tilde",
    "bound_inputs",
    "mse_bound",
    "eig_bound_check",
    "nmse",
    "verify_theory",
]


@dataclass(frozen=True)
class NystromApprox:
    """Regularized sampled-block approximation of a kernel matrix.

    Both the approximation and the residual (kernel minus approximation)
    are symmetric PSD.
    """

    t_tilde: np.ndarray
    mu: float


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
class BoundInputs:
    """Ingredients of the spectral MSE bound."""

    sigma_max: float
    gamma_tilde: np.ndarray
    s_count: int
    mu: float
    nu_sq: float

    def __post_init__(self):
        check_number("sigma_max", self.sigma_max)
        check_number("mu", self.mu)
        check_number("nu_sq", self.nu_sq, "nonnegative")
        if not 0 <= self.s_count <= len(self.gamma_tilde):
            raise InvalidInputError("sample count outside 0..NL")


@dataclass(frozen=True)
class EigBoundReport:
    """Outcome of the sorted-eigenvalue domination check."""

    passed: bool
    worst_margin: float
    slack: float = 1e-10


def regularized_nystrom(k, sampling, mu):
    """Sampled-block approximation K S^T (S K S^T + mu I)^{-1} S K."""
    check_number("mu", mu)
    k = np.asarray(k, dtype=float)
    idx = sampling.vec_indices0
    if len(idx) == 0:
        return NystromApprox(np.zeros_like(k), mu)
    kc = k[:, idx]
    g = k[np.ix_(idx, idx)] + mu * np.eye(len(idx))
    t = _blas.gemm(kc, scipy.linalg.solve(g, kc.T, check_finite=False, assume_a="gen"))
    return NystromApprox((t + t.T) / 2.0, mu)


def _estimator_operator(k, sampling, mu):
    """Dense NL x S map from observations to the estimate."""
    idx = sampling.vec_indices0
    kc = k[:, idx]
    g = k[np.ix_(idx, idx)] + mu * np.eye(len(idx))
    return _blas.gemm(kc, scipy.linalg.inv(g, check_finite=False))


def mse_decomposition(k, sampling, gamma, mu, nu_sq, n_draws=0, seed=0,
                      batch_size=20000):
    """Exact bias and variance of the closed-form estimator.

    bias_sq = ||(K - T) gamma||^2 and
    variance = (nu^2 / mu^2) Tr((K - T)^2 S^T S), with T the regularized
    sampled-block approximation.  With ``n_draws`` > 0 a seeded Monte-Carlo
    estimate of the MSE over fresh noise realizations is attached, computed
    in independent batches, along with its standard error.
    """
    check_number("mu", mu)
    check_number("nu_sq", nu_sq, "nonnegative")
    k = np.asarray(k, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    resid = k - regularized_nystrom(k, sampling, mu).t_tilde
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
            b = min(batch_size, n_draws - done)
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
    _, vecs = _blas.eigh((resid + resid.T) / 2.0)
    return _blas.gemv(vecs.T, np.asarray(gamma, dtype=float))


def _sigma_max(k, what):
    """Top eigenvalue of the dense kernel ``k``, which ``what`` requires to
    be nonsingular."""
    eigs = _blas.eigvalsh(k)
    if eigs[0] <= 1e-10 * max(1.0, eigs[-1]):
        raise InvalidInputError(f"{what} requires a nonsingular kernel; rank-deficient "
                                "(e.g. bandlimited) kernels are not supported")
    return float(eigs[-1])


def bound_inputs(k, sampling, gamma, mu, nu_sq):
    """Assemble the bound ingredients for a dense kernel and sampling set."""
    k = np.asarray(k, dtype=float)
    sigma = _sigma_max(k, "bound")
    t = regularized_nystrom(k, sampling, mu).t_tilde
    return BoundInputs(sigma, gamma_tilde(k, t, gamma), len(sampling), mu, nu_sq)


def mse_bound(inputs):
    """Spectral upper bound on the estimator MSE.

    The first S coordinates of gamma_tilde are damped by mu sigma/(sigma+mu),
    the remaining ones see the full sigma, and the variance contributes
    S nu^2 sigma^2 / mu^2.
    """
    sigma = inputs.sigma_max
    mu = inputs.mu
    g = inputs.gamma_tilde
    s = inputs.s_count
    head = (mu**2 * sigma**2) / (sigma + mu) ** 2 * float(np.sum(g[:s] ** 2))
    tail = sigma**2 * float(np.sum(g[s:] ** 2))
    var = s * inputs.nu_sq * sigma**2 / mu**2
    return head + tail + var


def eig_bound_check(k, sampling, mu, slack=1e-10):
    """Check the sorted-eigenvalue domination of the residual kernel.

    The k-th ascending eigenvalue of K - T must not exceed the k-th
    ascending entry of the diagonal bound: mu sigma/(sigma+mu) on the first
    S coordinates, sigma on the rest.  Reports the worst margin.
    """
    check_number("mu", mu)
    k = np.asarray(k, dtype=float)
    sigma = _sigma_max(k, "domination check")
    t = regularized_nystrom(k, sampling, mu).t_tilde
    resid_eigs = _blas.eigvalsh(k - t)
    s = len(sampling)
    nl = k.shape[0]
    bound = np.concatenate([
        np.full(s, mu * sigma / (sigma + mu)),
        np.full(nl - s, sigma),
    ])
    worst = float(np.max(resid_eigs - bound))
    return EigBoundReport(worst <= slack, worst, slack)


def nmse(estimates, truth):
    """Mean relative squared Frobenius error over a list of estimates."""
    truth = np.asarray(truth, dtype=float)
    denom = np.sum(truth**2)
    if denom == 0:
        raise InvalidInputError("normalized error is undefined for a zero matrix")
    if isinstance(estimates, np.ndarray) and estimates.ndim == 2:
        estimates = [estimates]
    ratios = [np.sum((np.asarray(e, dtype=float) - truth) ** 2) / denom
              for e in estimates]
    return float(np.mean(ratios))


def _random_instance(rng, max_side=6):
    """Small random grid with nonsingular PSD factor kernels."""
    n = int(rng.integers(2, max_side + 1))
    l = int(rng.integers(2, max_side + 1))
    bx = rng.normal(size=(n, n))
    by = rng.normal(size=(l, l))
    kx = _blas.gemm(bx, bx.T) / n + 0.5 * np.eye(n)
    ky = _blas.gemm(by, by.T) / l + 0.5 * np.eye(l)
    return n, l, np.kron(ky, kx)


def verify_theory(seed=0, instances=50, mc_instances=3, mc_draws=20000):
    """Run the error-theory checks on seeded random instances.

    Per instance: decomposition total within the spectral bound, sorted
    eigenvalues of the residual kernel dominated by the diagonal bound,
    both the approximation and its residual PSD, and (on the first few
    instances) a Monte-Carlo MSE within 3 standard errors of the exact
    total.  A final check halves mu under full sampling and expects the
    bias to shrink by at least 3.9x.

    Returns (rows, summary) where rows carry per-instance numbers and
    summary maps check name to (passed, total) counts.
    """
    from .sampling import uniform_sample

    rng = np.random.default_rng(seed)
    rows = []
    summary = {"bound": [0, 0], "eig_domination": [0, 0], "psd": [0, 0],
               "monte_carlo": [0, 0], "bias_rate": [0, 0]}

    for idx in range(instances):
        n, l, kz = _random_instance(rng)
        nl = n * l
        s_count = int(rng.integers(1, nl + 1))
        sampling = uniform_sample(n, l, s_count, int(rng.integers(2**32)))
        gamma = rng.normal(size=nl)
        mu = float(rng.choice([1e-3, 1e-2, 1e-1, 1.0]))
        nu_sq = float(rng.choice([0.0, 0.1, 0.25]))

        draws = mc_draws if idx < mc_instances and nu_sq > 0 else 0
        report = mse_decomposition(kz, sampling, gamma, mu, nu_sq,
                                   n_draws=draws, seed=int(rng.integers(2**32)))
        bound = mse_bound(bound_inputs(kz, sampling, gamma, mu, nu_sq))
        eig_report = eig_bound_check(kz, sampling, mu)
        t = regularized_nystrom(kz, sampling, mu).t_tilde
        scale = max(1.0, np.abs(kz).max())
        psd_ok = (_blas.eigvalsh(t)[0] >= -1e-8 * scale
                  and _blas.eigvalsh(kz - t)[0] >= -1e-8 * scale)

        bound_ok = report.total <= bound * (1 + 1e-10) + 1e-12
        mc_ok = True
        if draws > 0:
            tol = max(3 * report.std_error, 0.03 * report.total)
            mc_ok = abs(report.empirical_mse - report.total) <= tol
            summary["monte_carlo"][0] += int(mc_ok)
            summary["monte_carlo"][1] += 1
        summary["bound"][0] += int(bound_ok)
        summary["bound"][1] += 1
        summary["eig_domination"][0] += int(eig_report.passed)
        summary["eig_domination"][1] += 1
        summary["psd"][0] += int(psd_ok)
        summary["psd"][1] += 1
        rows.append({
            "instance": idx,
            "bias_sq": report.bias_sq,
            "variance": report.variance,
            "empirical_mse": report.empirical_mse,
            "bound": bound,
            "margin": eig_report.worst_margin,
            "ok": bool(bound_ok and eig_report.passed and psd_ok and mc_ok),
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
