import re

import numpy as np
import pytest

from kronmc import (InvalidInputError, KroneckerKernel, SamplingSet,
                    eig_bound_check, mse_bound, mse_decomposition, nmse,
                    regularized_nystrom, uniform_sample, verify_theory)
from kronmc.analysis import VERIFY_INSTANCES, _gamma_tilde

from helpers import bayes_nmse_floor, dense_kron, make_spd_kernel, selector_matrix


def random_dense_kernel(rng, n, l):
    kk = KroneckerKernel(make_spd_kernel(rng, n), make_spd_kernel(rng, l))
    return dense_kron(kk)


def test_nystrom_empty_sampling_is_zero():
    rng = np.random.default_rng(0)
    k = random_dense_kernel(rng, 2, 3)
    s = SamplingSet(2, 3, ())
    t = regularized_nystrom(k, s, 0.1)
    assert np.array_equal(t, np.zeros_like(k))


def test_nystrom_full_sampling_tiny_mu_recovers_kernel():
    rng = np.random.default_rng(1)
    k = random_dense_kernel(rng, 3, 2)
    s = uniform_sample(3, 2, 6, seed=0)
    t = regularized_nystrom(k, s, 1e-10)
    assert np.linalg.norm(t - k) / np.linalg.norm(k) <= 1e-6


def test_nystrom_residual_and_approximation_are_psd():
    rng = np.random.default_rng(2)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        l = int(rng.integers(2, 5))
        k = random_dense_kernel(rng, n, l)
        count = int(rng.integers(1, n * l + 1))
        s = uniform_sample(n, l, count, seed=trial)
        t = regularized_nystrom(k, s, 10.0 ** rng.uniform(-3, 0))
        scale = max(1.0, np.abs(k).max())
        assert np.linalg.eigvalsh(t)[0] >= -1e-8 * scale
        assert np.linalg.eigvalsh(k - t)[0] >= -1e-8 * scale
    with pytest.raises(InvalidInputError):
        regularized_nystrom(k, s, 0.0)


def test_mse_decomposition_trivial_cases():
    rng = np.random.default_rng(3)
    k = random_dense_kernel(rng, 2, 2)
    s = uniform_sample(2, 2, 3, seed=1)
    gamma = rng.normal(size=4)
    noiseless = mse_decomposition(k, s, gamma, 0.1, 0.0)
    assert noiseless.variance == 0.0
    assert noiseless.total == noiseless.bias_sq
    silent = mse_decomposition(k, s, np.zeros(4), 0.1, 0.0)
    assert silent.total == 0.0


def test_mse_decomposition_monte_carlo_matches_exact():
    # 4 x 2 grid, seeded draws; empirical MSE within 3 standard errors
    rng = np.random.default_rng(4)
    k = random_dense_kernel(rng, 4, 2)
    s = uniform_sample(4, 2, 5, seed=2)
    gamma = rng.normal(size=8)
    report = mse_decomposition(k, s, gamma, 0.2, 0.25, n_draws=20000, seed=7)
    assert report.empirical_mse is not None
    assert abs(report.empirical_mse - report.total) <= 3 * report.std_error
    assert abs(report.empirical_mse - report.total) <= 0.03 * report.total


def test_mse_decomposition_variance_matches_trace_oracle():
    rng = np.random.default_rng(5)
    k = random_dense_kernel(rng, 3, 3)
    s = uniform_sample(3, 3, 4, seed=3)
    gamma = rng.normal(size=9)
    mu, nu_sq = 0.3, 0.5
    report = mse_decomposition(k, s, gamma, mu, nu_sq)
    resid = k - regularized_nystrom(k, s, mu)
    sts = selector_matrix(s).T @ selector_matrix(s)
    oracle = nu_sq / mu**2 * np.trace(resid @ resid @ sts)
    assert report.variance == pytest.approx(oracle, rel=1e-10)


def test_gamma_tilde_properties():
    rng = np.random.default_rng(6)
    k = random_dense_kernel(rng, 3, 2)
    s = uniform_sample(3, 2, 3, seed=4)
    t = regularized_nystrom(k, s, 0.1)
    assert np.array_equal(_gamma_tilde(k, t, np.zeros(6)), np.zeros(6))
    gamma = rng.normal(size=6)
    gt = _gamma_tilde(k, t, gamma)
    assert np.linalg.norm(gt) == pytest.approx(np.linalg.norm(gamma), rel=1e-12)
    # dense eigen oracle, ascending order
    evals, evecs = np.linalg.eigh(k - t)
    assert np.allclose(np.abs(gt), np.abs(evecs.T @ gamma), atol=1e-10)


def test_mse_bound_trivial_cases():
    # the damped head, full-sigma tail and variance terms, from the spectral
    # coordinates of gamma; full sampling leaves no tail
    rng = np.random.default_rng(14)
    k = random_dense_kernel(rng, 3, 2)
    part, full = uniform_sample(3, 2, 3, seed=1), uniform_sample(3, 2, 6, seed=2)
    assert mse_bound(k, part, np.zeros(6), 0.1, 0.0) == 0.0
    gamma = np.arange(1.0, 7.0)
    sigma, mu, nu_sq = np.linalg.eigvalsh(k)[-1], 0.1, 0.2
    for s in (part, full):
        g = _gamma_tilde(k, regularized_nystrom(k, s, mu), gamma)
        count = len(s)
        expected = (mu**2 * sigma**2 / (sigma + mu) ** 2 * np.sum(g[:count] ** 2)
                    + sigma**2 * np.sum(g[count:] ** 2)
                    + count * nu_sq * sigma**2 / mu**2)
        assert mse_bound(k, s, gamma, mu, nu_sq) == pytest.approx(expected, rel=1e-12)


def test_mse_bound_dominates_decomposition():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(2, 5))
        l = int(rng.integers(2, 5))
        k = random_dense_kernel(rng, n, l)
        count = int(rng.integers(1, n * l + 1))
        s = uniform_sample(n, l, count, seed=trial)
        gamma = rng.normal(size=n * l)
        mu = float(10.0 ** rng.uniform(-3, 1))
        nu_sq = float(rng.choice([0.0, 0.1, 0.25]))
        total = mse_decomposition(k, s, gamma, mu, nu_sq).total
        bound = mse_bound(k, s, gamma, mu, nu_sq)
        assert total <= bound * (1 + 1e-10) + 1e-12


def test_eig_bound_check_examples():
    rng = np.random.default_rng(8)
    k = random_dense_kernel(rng, 3, 2)
    sigma = np.linalg.eigvalsh(k)[-1]
    # empty sampling: residual is K itself, bound is sigma everywhere
    empty = SamplingSet(3, 2, ())
    report = eig_bound_check(k, empty, 0.5)
    assert report.passed
    # full sampling: every coordinate bounded by mu sigma / (sigma + mu)
    full = uniform_sample(3, 2, 6, seed=0)
    report_full = eig_bound_check(k, full, 0.5)
    assert report_full.passed
    resid_max = np.linalg.eigvalsh(k - regularized_nystrom(k, full, 0.5))[-1]
    assert resid_max <= 0.5 * sigma / (sigma + 0.5) + 1e-10


def test_eig_bound_check_random_instances():
    rng = np.random.default_rng(9)
    for trial in range(30):
        n = int(rng.integers(2, 7))
        l = int(rng.integers(2, 7))
        if n * l > 36:
            continue
        k = random_dense_kernel(rng, n, l)
        count = int(rng.integers(0, n * l + 1))
        s = uniform_sample(n, l, count, seed=trial)
        report = eig_bound_check(k, s, float(10.0 ** rng.uniform(-3, 1)))
        assert report.passed, f"margin {report.worst_margin}"


def test_bound_operations_refuse_singular_kernels():
    rng = np.random.default_rng(10)
    b = rng.normal(size=(6, 2))
    singular = b @ b.T  # rank 2
    s = uniform_sample(3, 2, 3, seed=1)
    with pytest.raises(InvalidInputError, match="nonsingular"):
        eig_bound_check(singular, s, 0.1)
    with pytest.raises(InvalidInputError, match="nonsingular"):
        mse_bound(singular, s, np.zeros(6), 0.1, 0.0)


@pytest.mark.parametrize("call, name, shape", [
    (lambda k, s, g: regularized_nystrom(k, s, 0.1), "k", (60, 60)),
    (lambda k, s, g: eig_bound_check(k, s, 0.1), "k", (60, 60)),
    (lambda k, s, g: mse_bound(k, s, np.ones(60), 0.1, 0.0), "k", (60, 60)),
    (lambda k, s, g: mse_decomposition(k, s, np.ones(60), 0.1, 0.0), "k", (60, 60)),
    (lambda k, s, g: mse_decomposition(g, s, np.ones(70), 0.1, 0.1), "gamma", (70,)),
    (lambda k, s, g: mse_decomposition(g, s, np.ones(5), 0.1, 0.1), "gamma", (5,)),
    (lambda k, s, g: mse_bound(g, s, np.ones(5), 0.1, 0.1), "gamma", (5,)),
], ids=["nystrom-k", "eig_bound_check-k", "mse_bound-k", "mse_decomposition-k",
        "mse_decomposition-gamma-70", "mse_decomposition-gamma-5", "mse_bound-gamma-5"])
def test_bound_operations_refuse_a_kernel_or_gamma_off_the_sampling_grid(
        monkeypatch, call, name, shape):
    # an 8 x 7 sampling needs a 56 x 56 kernel and a gamma of length 56;
    # a 60 x 60 kernel was accepted, and a gamma of length 70 or 5 gave a
    # wrong split or a raw BLAS error
    from kronmc import _blas

    rng = np.random.default_rng(14)
    s = uniform_sample(8, 7, 20, seed=3)
    k60 = random_dense_kernel(rng, 6, 10)
    k56 = random_dense_kernel(rng, 8, 7)

    def refuse(*args):
        raise AssertionError("decomposed a kernel before checking its size")

    monkeypatch.setattr(_blas, "eigvalsh", refuse)
    monkeypatch.setattr(_blas, "eigh", refuse)
    with pytest.raises(InvalidInputError,
                       match=rf"^{name}: shape {re.escape(str(shape))} does not match "
                             r"N\*L = 56( of the 8 x 7 sampling)?$"):
        call(k60, s, k56)


def test_bias_quarters_as_mu_halves_under_full_sampling():
    rng = np.random.default_rng(11)
    k = random_dense_kernel(rng, 3, 3)
    s = uniform_sample(3, 3, 9, seed=2)
    gamma = rng.normal(size=9)
    mu = 1e-5 * np.linalg.eigvalsh(k)[0]
    b1 = mse_decomposition(k, s, gamma, mu, 0.0).bias_sq
    b2 = mse_decomposition(k, s, gamma, mu / 2.0, 0.0).bias_sq
    assert b1 / b2 >= 3.9


def test_nmse_examples():
    rng = np.random.default_rng(12)
    truth = rng.normal(size=(3, 4))
    assert np.mean([nmse(e, truth) for e in (truth, truth.copy())]) == 0.0
    assert nmse(np.zeros_like(truth), truth) == 1.0
    est = truth + 1.0
    expected = 12.0 / np.sum(truth**2)
    assert nmse(est, truth) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(InvalidInputError):
        nmse(truth, np.zeros_like(truth))


@pytest.mark.parametrize("shape", [(4, 3), (3, 1), (1, 4), (12,), (2, 3, 4)])
def test_nmse_rejects_an_estimate_of_another_shape(shape):
    # a (3, 1) or a stacked (2, 3, 4) estimate would broadcast against truth
    truth = np.random.default_rng(15).normal(size=(3, 4))
    with pytest.raises(InvalidInputError,
                       match=rf"^estimate shape {re.escape(str(shape))} does not match "
                             r"truth shape \(3, 4\)$"):
        nmse(np.ones(shape), truth)


def test_bayes_nmse_floor_matches_monte_carlo_posterior_mean():
    # 4 x 3 grid: the oracle against the mean error of the dense posterior
    # mean over seeded draws of F = Kx G Ky, within 3 standard errors
    rng = np.random.default_rng(13)
    kx, ky = make_spd_kernel(rng, 4), make_spd_kernel(rng, 3)
    sampling = uniform_sample(4, 3, 7, seed=5)
    c = np.kron(ky.matrix @ ky.matrix, kx.matrix @ kx.matrix)
    sel = selector_matrix(sampling)
    draws = 100_000
    g = rng.normal(size=(draws, 4, 3))
    vec_f = np.transpose(kx.matrix @ g @ ky.matrix, (0, 2, 1)).reshape(draws, 12)
    for nu_sq in (0.0, 0.3):
        y = vec_f @ sel.T + rng.normal(scale=np.sqrt(nu_sq), size=(draws, 7))
        weights = c @ sel.T @ np.linalg.inv(sel @ c @ sel.T + nu_sq * np.eye(7))
        errors = np.sum((vec_f - y @ weights.T) ** 2, axis=1) / np.trace(c)
        floor = bayes_nmse_floor(kx, ky, sampling, nu_sq)
        assert abs(np.mean(errors) - floor) <= 3 * np.std(errors) / np.sqrt(draws)
        assert abs(np.mean(errors) - floor) <= 0.03 * floor
        assert bayes_nmse_floor(kx, ky, sampling, nu_sq, block=2) == pytest.approx(
            floor, rel=1e-12)
    full = uniform_sample(4, 3, 12, seed=6)
    assert 0.0 <= bayes_nmse_floor(kx, ky, full, 0.0) <= 1e-8
    assert bayes_nmse_floor(kx, ky, full, 0.3) > 0.0


def test_verify_theory_suite_passes():
    rows, summary = verify_theory()
    assert len(rows) == VERIFY_INSTANCES
    for name, (passed, total) in summary.items():
        assert passed == total, f"{name}: {passed}/{total}"
