import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kronmc import (FactorModel, FeatureMap, InvalidInputError, KernelMatrix,
                    KkmcexModel, KroneckerKernel, ObservationSet, RrmcexModel, SamplingSet,
                    StepSchedule, als_fit, factor_predict, factor_sgd_fit,
                    features_from_eig, kkmcex_fit, kkmcex_predict,
                    load_factor_model, load_kkmcex_model, load_rrmcex_model,
                    nmse, observe, orrmcex_run, orrmcex_step, rrmcex_fit,
                    rrmcex_predict, save_model, uniform_sample)
from kronmc.solvers import FEATURE_BLOCK_BYTES, _factor_init

from helpers import (csv_round_trip, dense_kron, dense_krr_gamma, make_spd_kernel,
                     plain_als, unvec)


def random_problem(rng, n, l, count, mu, nu=0.0):
    kk = KroneckerKernel(make_spd_kernel(rng, n), make_spd_kernel(rng, l))
    f = unvec(dense_kron(kk) @ rng.normal(size=n * l), n, l)
    s = uniform_sample(n, l, count, seed=int(rng.integers(2**32)))
    values = f[s.row_indices0, s.col_indices0]
    if nu > 0:
        values = values + rng.normal(scale=nu, size=count)
    return kk, f, ObservationSet(s, values)


def full_sampling(n, l):
    return SamplingSet(n, l, tuple((i, j) for j in range(1, l + 1)
                                   for i in range(1, n + 1)))


# ---------------------------------------------------------------- kkmcex


def test_kkmcex_identity_kernels_full_observation():
    n = l = 3
    kk = KroneckerKernel(KernelMatrix(np.eye(n)), KernelMatrix(np.eye(l)))
    rng = np.random.default_rng(0)
    f = rng.normal(size=(n, l))
    obs = observe(f, full_sampling(n, l))
    mu = 0.7
    model = kkmcex_fit(kk, obs, mu)
    assert np.allclose(model.dual_coeffs, obs.values / (1.0 + mu), atol=1e-12)


def test_kkmcex_matches_dense_oracle():
    rng = np.random.default_rng(1)
    kk, f, obs = random_problem(rng, 4, 3, 6, mu=1e-2)
    model = kkmcex_fit(kk, obs, 1e-2)
    oracle = dense_krr_gamma(dense_kron(kk), obs.sampling, obs.values, 1e-2)
    gamma = model.full_dual_vector()
    assert np.linalg.norm(gamma - oracle) / np.linalg.norm(oracle) <= 1e-8


def test_kkmcex_gamma_is_zero_off_sampled_indices():
    rng = np.random.default_rng(2)
    kk, f, obs = random_problem(rng, 5, 4, 7, mu=0.1)
    gamma = kkmcex_fit(kk, obs, 0.1).full_dual_vector()
    mask = np.ones(20, dtype=bool)
    mask[obs.sampling.vec_indices0] = False
    assert np.all(gamma[mask] == 0.0)


def test_kkmcex_validation():
    rng = np.random.default_rng(3)
    kk, f, obs = random_problem(rng, 3, 3, 4, mu=0.1)
    with pytest.raises(InvalidInputError):
        kkmcex_fit(kk, obs, 0.0)
    bad = ObservationSet(obs.sampling, np.array([1.0, np.nan, 0.0, 2.0]))
    with pytest.raises(InvalidInputError):
        kkmcex_fit(kk, bad, 0.1)
    for mu in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError, match="mu"):
            kkmcex_fit(kk, obs, mu)


def test_kkmcex_multi_block_gather_matches_dense_oracle():
    # S = 2500 spans several gather row blocks, the last one short
    # (test_kron_submatrix_row_blocks_match_ix_gather checks the split)
    rng = np.random.default_rng(40)
    n, l, count, mu = 60, 50, 2500, 1e-2
    kk, f, obs = random_problem(rng, n, l, count, mu)
    kx, ky = kk.kx.matrix.copy(), kk.ky.matrix.copy()
    model = kkmcex_fit(kk, obs, mu)
    assert np.array_equal(kk.kx.matrix, kx) and np.array_equal(kk.ky.matrix, ky)
    oracle = dense_krr_gamma(dense_kron(kk), obs.sampling, obs.values, mu)
    gamma = model.full_dual_vector()
    assert np.linalg.norm(gamma - oracle) / np.linalg.norm(oracle) <= 1e-8


def test_kkmcex_fit_peak_memory_is_about_one_gram():
    # the S x S block is the only array of its size: a gather row block is
    # GATHER_BLOCK_BYTES (0.02 of this Gram) and SciPy's finiteness check
    # allocates a boolean S x S mask (0.125); a second S x S copy breaks 1.5
    import tracemalloc
    rng = np.random.default_rng(41)
    count = 2500
    kk, f, obs = random_problem(rng, 60, 50, count, 1e-2)
    tracemalloc.start()
    try:
        kkmcex_fit(kk, obs, 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * count**2 * 8


def test_rrmcex_fit_peak_memory_is_one_block_not_phi_s():
    # Phi_S (S x d, 6.4 MB here) is never formed: the fit holds one gathered
    # block of FEATURE_BLOCK_BYTES (256 KB), its row-factor temporary of the
    # same size and the d x d Gram, about 0.08 of Phi_S; forming Phi_S in
    # one piece costs at least 1.0
    import tracemalloc
    rng = np.random.default_rng(43)
    n, l, d, count = 200, 250, 20, 40000
    fmap = FeatureMap(rng.normal(size=(n, d)), rng.normal(size=(l, d)), "random")
    obs = ObservationSet(uniform_sample(n, l, count, seed=5), rng.normal(size=count))
    tracemalloc.start()
    try:
        rrmcex_fit(fmap, obs, 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * count * d * 8


def test_spd_solve_rejects_non_finite_right_hand_side():
    from kronmc.errors import NumericalError
    from kronmc.solvers import _spd_solve
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericalError, match="right-hand side"):
            _spd_solve(np.eye(2), np.array([1.0, bad]))


def test_spd_solve_rejects_indefinite_matrix():
    from kronmc.errors import NumericalError
    from kronmc.solvers import _spd_solve
    for a in (np.array([[1.0, 2.0], [2.0, 1.0]]),
              np.asfortranarray([[1.0, 0.0], [0.0, -1.0]])):
        with pytest.raises(NumericalError):
            _spd_solve(a, np.ones(2))


def test_spd_solve_factors_fortran_input_in_place():
    from kronmc.solvers import _spd_solve
    a = np.asfortranarray([[4.0, 2.0], [2.0, 3.0]])
    expected = np.linalg.solve(a, [1.0, 2.0])
    x = _spd_solve(a, np.array([1.0, 2.0]))
    assert np.allclose(x, expected, rtol=1e-14)
    assert np.allclose(np.tril(a), np.linalg.cholesky([[4.0, 2.0], [2.0, 3.0]]))


def test_kkmcex_predict_recovers_fully_observed_matrix():
    rng = np.random.default_rng(4)
    kk, f, obs = random_problem(rng, 4, 4, 16, mu=1e-10)
    est = kkmcex_predict(kkmcex_fit(kk, obs, 1e-10))
    assert np.linalg.norm(est - f) / np.linalg.norm(f) <= 1e-6


def test_kkmcex_predict_shrinks_to_zero_for_huge_mu():
    rng = np.random.default_rng(5)
    kk, f, obs = random_problem(rng, 4, 3, 8, mu=1.0)
    est = kkmcex_predict(kkmcex_fit(kk, obs, 1e12))
    assert np.max(np.abs(est)) <= 1e-8 * np.max(np.abs(f))


def test_kkmcex_predict_equals_dense_operator():
    rng = np.random.default_rng(6)
    kk, f, obs = random_problem(rng, 4, 3, 7, mu=0.05)
    model = kkmcex_fit(kk, obs, 0.05)
    est = kkmcex_predict(model)
    dense_est = unvec(dense_kron(kk) @ model.full_dual_vector(), 4, 3)
    assert np.allclose(est, dense_est, atol=1e-10)


def test_kkmcex_extrapolates_empty_column():
    # column 4 has no observations; the column kernel couples it to the rest
    rng = np.random.default_rng(7)
    kk = KroneckerKernel(make_spd_kernel(rng, 4), make_spd_kernel(rng, 4))
    f = unvec(dense_kron(kk) @ rng.normal(size=16), 4, 4)
    entries = tuple((i, j) for i in range(1, 5) for j in range(1, 4))
    s = SamplingSet(4, 4, entries)
    obs = observe(f, s)
    est = kkmcex_predict(kkmcex_fit(kk, obs, 1e-6))
    assert np.linalg.norm(est[:, 3]) > 0
    oracle = unvec(
        dense_kron(kk) @ dense_krr_gamma(dense_kron(kk), s, obs.values, 1e-6), 4, 4)
    assert np.allclose(est, oracle, atol=1e-8)


# ---------------------------------------------------------------- rrmcex


def test_rrmcex_orthonormal_features_full_observation():
    # columns y[:, b] kron x[:, a] of orthonormal factors over four distinct
    # (a, b) pairs are orthonormal
    n, l = 3, 2
    qx = np.linalg.qr(np.random.default_rng(8).normal(size=(n, n)))[0]
    qy = np.linalg.qr(np.random.default_rng(18).normal(size=(l, l)))[0]
    fmap = FeatureMap(qx[:, [0, 1, 2, 0]], qy[:, [0, 0, 1, 1]], "explicit")
    q = fmap.phi
    assert np.allclose(q.T @ q, np.eye(4), atol=1e-12)
    f = unvec(np.arange(6, dtype=float) + 1.0, n, l)
    obs = observe(f, full_sampling(n, l))
    mu = 0.3
    model = rrmcex_fit(fmap, obs, mu)
    assert np.allclose(model.xi, q.T @ obs.values / (1.0 + mu), atol=1e-12)
    with pytest.raises(InvalidInputError):
        rrmcex_fit(fmap, obs, -1.0)
    for mu in (np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="mu"):
            rrmcex_fit(fmap, obs, mu)


def test_rrmcex_exact_features_match_kkmcex():
    rng = np.random.default_rng(9)
    kk, f, obs = random_problem(rng, 4, 3, 7, mu=0.01)
    fmap = features_from_eig(kk.kx, kk.ky, 12)
    pred_r = rrmcex_predict(rrmcex_fit(fmap, obs, 0.01))
    pred_k = kkmcex_predict(kkmcex_fit(kk, obs, 0.01))
    assert np.linalg.norm(pred_r - pred_k) / np.linalg.norm(pred_k) <= 1e-6


def test_rrmcex_single_feature_scalar_formula():
    rng = np.random.default_rng(10)
    kk, f, obs = random_problem(rng, 3, 3, 5, mu=0.2)
    fmap = features_from_eig(kk.kx, kk.ky, 1)
    model = rrmcex_fit(fmap, obs, 0.2)
    phi_s = fmap.phi[obs.sampling.vec_indices0, 0]
    expected = (phi_s @ obs.values) / (phi_s @ phi_s + 0.2)
    assert model.xi[0] == pytest.approx(expected, rel=1e-12)


def test_rrmcex_zero_coefficients_predict_zero():
    rng = np.random.default_rng(11)
    kk, _, _ = random_problem(rng, 3, 2, 3, mu=0.1)
    fmap = features_from_eig(kk.kx, kk.ky, 4)
    model = RrmcexModel(fmap, 0.1, np.zeros(4))
    assert np.array_equal(rrmcex_predict(model), np.zeros((3, 2)))


# ---------------------------------------------------------------- online


def test_orrmcex_step_examples():
    rng = np.random.default_rng(12)
    kk, f, obs = random_problem(rng, 3, 3, 5, mu=0.1)
    fmap = features_from_eig(kk.kx, kk.ky, 5)
    start = rng.normal(size=5)
    model = RrmcexModel(fmap, 0.1, start)
    unchanged = orrmcex_step(model, 1, 1, 2.0, 0.0, 0.1)
    assert np.array_equal(unchanged.xi, start)
    with pytest.raises(InvalidInputError):
        orrmcex_step(model, 1, 1, 2.0, -0.1, 0.1)
    zero_model = RrmcexModel(fmap, 0.1, np.zeros(5))
    stepped = orrmcex_step(zero_model, 2, 3, 1.5, 0.05, 0.1)
    assert np.allclose(stepped.xi, 0.05 * 1.5 * fmap.row(2, 3), atol=1e-14)


def test_orrmcex_step_is_half_gradient_of_instantaneous_loss():
    # direction = grad of (residual^2 + mu ||xi||^2) / 2, i.e. half the
    # gradient of the unhalved objective; checked by central differences
    rng = np.random.default_rng(13)
    kk, f, obs = random_problem(rng, 3, 4, 6, mu=0.3)
    fmap = features_from_eig(kk.kx, kk.ky, 7)
    mu = 0.3
    for trial in range(10):
        xi = rng.normal(size=7)
        i = int(rng.integers(1, 4))
        j = int(rng.integers(1, 5))
        m = float(rng.normal())
        phi = fmap.row(i, j)

        def loss(z):
            return 0.5 * (m - phi @ z) ** 2 + 0.5 * mu * (z @ z)

        eps = 1e-6
        fd = np.array([
            (loss(xi + eps * e) - loss(xi - eps * e)) / (2 * eps)
            for e in np.eye(7)
        ])
        model = RrmcexModel(fmap, mu, xi)
        stepped = orrmcex_step(model, i, j, m, 1e-3, mu)
        direction = (xi - stepped.xi) / 1e-3
        assert np.linalg.norm(direction - fd) / max(np.linalg.norm(fd), 1e-12) <= 1e-5


def test_orrmcex_run_converges_to_batch_solution():
    rng = np.random.default_rng(14)
    kk, f, obs = random_problem(rng, 3, 3, 8, mu=0.0)
    fmap = features_from_eig(kk.kx, kk.ky, 6)
    mu_batch = 1e-3
    batch = rrmcex_predict(rrmcex_fit(fmap, obs, mu_batch))
    s = len(obs.values)
    streamed = orrmcex_run(fmap, obs, StepSchedule.constant(0.05), mu_batch / s,
                           epochs=200, seed=3)
    online = rrmcex_predict(streamed)
    assert np.linalg.norm(online - batch) / np.linalg.norm(batch) <= 0.01


def test_orrmcex_run_zero_epochs_and_determinism():
    rng = np.random.default_rng(15)
    kk, f, obs = random_problem(rng, 3, 3, 6, mu=0.0)
    fmap = features_from_eig(kk.kx, kk.ky, 4)
    init = orrmcex_run(fmap, obs, StepSchedule.constant(0.1), 0.01, epochs=0)
    assert np.array_equal(init.xi, np.zeros(4))
    a = orrmcex_run(fmap, obs, StepSchedule.decay(0.5, 10), 0.01, epochs=5, seed=7)
    b = orrmcex_run(fmap, obs, StepSchedule.decay(0.5, 10), 0.01, epochs=5, seed=7)
    assert np.array_equal(a.xi, b.xi)


def test_orrmcex_run_epoch_averages_approach_batch():
    # distance to the batch solution decreases monotonically when averaged
    # over blocks of epochs (the streaming fixed point matches the batch
    # problem when the per-step ridge weight is mu_batch / S)
    rng = np.random.default_rng(16)
    kk, f, obs = random_problem(rng, 4, 3, 9, mu=0.0)
    fmap = features_from_eig(kk.kx, kk.ky, 8)
    s = len(obs.values)
    mu_batch = 0.05
    batch_xi = rrmcex_fit(fmap, obs, mu_batch).xi
    dists = []
    orrmcex_run(fmap, obs, StepSchedule.decay(5.0, 100.0), mu_batch / s,
                epochs=100, seed=1, eval_hook=lambda n, m: dists.append(
                    np.linalg.norm(m.xi - batch_xi)))
    blocks = np.array(dists).reshape(10, 10).mean(axis=1)
    assert np.all(np.diff(blocks) <= 1e-12)
    assert blocks[-1] < 0.5 * blocks[0]


def test_step_schedule():
    assert StepSchedule.constant(0.2).step(99) == 0.2
    assert StepSchedule.decay(1.0, 4.0).step(1) == pytest.approx(0.2)
    with pytest.raises(InvalidInputError):
        StepSchedule.constant(0.0)
    with pytest.raises(InvalidInputError):
        StepSchedule.decay(1.0, 0.0)


# ---------------------------------------------------------------- als


def test_als_identity_kernels_match_plain_oracle():
    rng = np.random.default_rng(17)
    n, l, p = 5, 4, 2
    f = rng.normal(size=(n, p)) @ rng.normal(size=(l, p)).T
    s = uniform_sample(n, l, 16, seed=1)
    obs = observe(f, s)
    mu = 0.1
    w0, h0 = _factor_init(n, l, p, seed=5)
    eye_x = KernelMatrix(np.eye(n))
    eye_y = KernelMatrix(np.eye(l))
    model, objectives = als_fit(obs, eye_x, eye_y, p, mu, max_iters=12,
                                rel_tol=0.0, init_w=w0, init_h=h0,
                                return_objectives=True)
    _, _, oracle_objectives = plain_als(obs.values, s.row_indices0, s.col_indices0,
                                        n, l, p, mu, w0, h0, iters=12)
    assert len(objectives) == len(oracle_objectives)
    assert np.max(np.abs(np.array(objectives) - np.array(oracle_objectives))) <= 1e-10


def test_als_recovers_rank_one_matrix():
    rng = np.random.default_rng(18)
    n = l = 6
    w = rng.normal(size=n)
    h = rng.normal(size=l)
    f = np.outer(w, h)
    obs = observe(f, full_sampling(n, l))
    model = als_fit(obs, KernelMatrix(np.eye(n)), KernelMatrix(np.eye(l)),
                    p=1, mu=1e-8, max_iters=200, rel_tol=1e-12, seed=2)
    est = factor_predict(model)
    assert np.linalg.norm(est - f) / np.linalg.norm(f) <= 1e-4


def test_als_objective_monotone_with_kernel_regularizers():
    rng = np.random.default_rng(19)
    for trial in range(5):
        n, l, p = 5, 4, 2
        kx = make_spd_kernel(rng, n)
        ky = make_spd_kernel(rng, l)
        f = unvec(np.kron(ky.matrix, kx.matrix) @ rng.normal(size=n * l), n, l)
        s = uniform_sample(n, l, 14, seed=trial)
        obs = observe(f, s)
        _, objectives = als_fit(obs, kx, ky, p, 0.05, max_iters=30,
                                rel_tol=0.0, seed=trial, return_objectives=True)
        diffs = np.diff(objectives)
        assert np.all(diffs <= 1e-10)


def test_als_rejects_singular_kernel():
    rng = np.random.default_rng(20)
    n, l = 4, 3
    f = rng.normal(size=(n, l))
    obs = observe(f, uniform_sample(n, l, 6, seed=0))
    singular = KernelMatrix(np.zeros((n, n)))
    with pytest.raises(InvalidInputError, match="singular"):
        als_fit(obs, singular, KernelMatrix(np.eye(l)), 1, 0.1)


# ---------------------------------------------------------------- factor sgd


def test_factor_sgd_gradient_matches_central_differences():
    rng = np.random.default_rng(21)
    n, l, p = 4, 5, 3
    f = rng.normal(size=(n, l))
    s = uniform_sample(n, l, 12, seed=3)
    obs = observe(f, s)
    mu = 0.4
    rows0 = s.row_indices0
    cols0 = s.col_indices0
    row_counts = np.bincount(rows0, minlength=n)
    col_counts = np.bincount(cols0, minlength=l)
    for trial in range(10):
        w = rng.normal(size=(n, p))
        h = rng.normal(size=(l, p))
        k = int(rng.integers(len(obs.values)))
        i, j = rows0[k], cols0[k]
        m = obs.values[k]

        def summand(wi, hj):
            return ((m - wi @ hj) ** 2
                    + mu / row_counts[i] * (wi @ wi)
                    + mu / col_counts[j] * (hj @ hj))

        eps = 1e-6
        fd_w = np.array([
            (summand(w[i] + eps * e, h[j]) - summand(w[i] - eps * e, h[j])) / (2 * eps)
            for e in np.eye(p)
        ])
        fd_h = np.array([
            (summand(w[i], h[j] + eps * e) - summand(w[i], h[j] - eps * e)) / (2 * eps)
            for e in np.eye(p)
        ])
        err = m - w[i] @ h[j]
        gw = -2.0 * err * h[j] + 2.0 * mu / row_counts[i] * w[i]
        gh = -2.0 * err * w[i] + 2.0 * mu / col_counts[j] * h[j]
        assert np.linalg.norm(gw - fd_w) / max(np.linalg.norm(fd_w), 1e-12) <= 1e-5
        assert np.linalg.norm(gh - fd_h) / max(np.linalg.norm(fd_h), 1e-12) <= 1e-5


def test_factor_sgd_tiny_steps_leave_factors_near_init():
    rng = np.random.default_rng(22)
    f = rng.normal(size=(4, 4))
    obs = observe(f, uniform_sample(4, 4, 8, seed=1))
    w0, h0 = _factor_init(4, 4, 2, seed=9)
    model = factor_sgd_fit(obs, 2, 0.1, StepSchedule.constant(1e-300), 1, seed=9)
    assert np.allclose(model.w, w0, atol=1e-250)
    assert np.allclose(model.h, h0, atol=1e-250)


def test_factor_sgd_rejects_negative_epochs():
    obs = observe(np.ones((3, 3)), uniform_sample(3, 3, 4, seed=1))
    with pytest.raises(InvalidInputError, match="epochs must be nonnegative, got -1"):
        factor_sgd_fit(obs, 2, 0.1, StepSchedule.constant(0.1), -1, seed=0)


def test_factor_sgd_fits_rank_one_full_observation():
    rng = np.random.default_rng(23)
    n = l = 6
    f = np.outer(rng.normal(size=n), rng.normal(size=l))
    obs = observe(f, full_sampling(n, l))
    model = factor_sgd_fit(obs, 1, 1e-6, StepSchedule.decay(10.0, 500.0),
                           epochs=500, seed=4)
    assert nmse(factor_predict(model), f) <= 1e-2


def test_factor_predict_examples():
    model_zero = factor_predict(
        __import__("kronmc").FactorModel(np.zeros((3, 2)), np.zeros((4, 2)), 0.1))
    assert np.array_equal(model_zero, np.zeros((3, 4)))
    rng = np.random.default_rng(24)
    w = rng.normal(size=(3, 1))
    h = rng.normal(size=(4, 1))
    model = __import__("kronmc").FactorModel(w, h, 0.1)
    assert np.allclose(factor_predict(model), np.outer(w[:, 0], h[:, 0]), atol=1e-14)
    assert factor_predict(model).shape == (3, 4)


# ---------------------------------------------------------------- serialization


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
positive_floats = st.floats(min_value=0, exclude_min=True, allow_infinity=False)


@st.composite
def bundles(draw):
    """(model, load): a model of any kind with arbitrary finite coefficients,
    and the loader that reads its bundle."""
    n, l = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    mu = draw(positive_floats)
    kind = draw(st.sampled_from(["kkmcex", "rrmcex", "factor"]))
    if kind == "kkmcex":
        kernel = KroneckerKernel(KernelMatrix(np.eye(n)), KernelMatrix(np.eye(l)))
        vec = draw(st.lists(st.integers(0, n * l - 1), unique=True, max_size=n * l))
        sampling = SamplingSet(n, l, [(v % n + 1, v // n + 1) for v in vec])
        coeffs = draw(arrays(float, len(vec), elements=finite_floats))
        return KkmcexModel(kernel, sampling, mu, coeffs), lambda p: load_kkmcex_model(p, kernel)
    d = draw(st.integers(1, 6))
    if kind == "rrmcex":
        fmap = FeatureMap(np.ones((n, d)), np.ones((l, d)), "explicit")
        xi = draw(arrays(float, d, elements=finite_floats))
        return RrmcexModel(fmap, mu, xi), lambda p: load_rrmcex_model(p, fmap)
    w = draw(arrays(float, (n, d), elements=finite_floats))
    h = draw(arrays(float, (l, d), elements=finite_floats))
    return FactorModel(w, h, mu), load_factor_model


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(bundles())
def test_model_csv_round_trips(case):
    model, load = case
    loaded = csv_round_trip(save_model, load, model)
    assert type(loaded) is type(model) and loaded.mu == model.mu
    if isinstance(model, KkmcexModel):
        assert loaded.sampling.entries == model.sampling.entries
        pairs = [(loaded.dual_coeffs, model.dual_coeffs)]
    elif isinstance(model, RrmcexModel):
        pairs = [(loaded.xi, model.xi)]
    else:
        pairs = [(loaded.w, model.w), (loaded.h, model.h)]
    for got, want in pairs:
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_load_kkmcex_model_names_malformed_lines(tmp_path):
    kk = KroneckerKernel(KernelMatrix(np.eye(2)), KernelMatrix(np.eye(2)))
    path = tmp_path / "k.csv"
    for text, lineno in (("kkmcex,2,2,1,0.5\n1,x,0.25\n", 2),
                         ("kkmcex,2,2,2,0.5\n1,1,0.25\n\n2,1\n", 4),
                         ("kkmcex,2,2,1,0.5\n1,1,abc\n", 2),
                         ("kkmcex,2,2.5,1,0.5\n1,1,0.25\n", 1),
                         ("kkmcex,2,2\n", 1),
                         ("kkmcex,3,2,1,0.5\n1,1,0.25\n", 1)):
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=f"line {lineno}") as info:
            load_kkmcex_model(path, kk)
        assert str(path) in str(info.value)


def test_load_rrmcex_model_names_malformed_lines(tmp_path):
    fmap = FeatureMap(np.ones((2, 1)), np.ones((2, 1)), "explicit")
    path = tmp_path / "r.csv"
    for text, lineno in (("rrmcex,2,2,1,0.5\nabc\n", 2),
                         ("rrmcex,2,2,2,0.5\n0.25\n\n1,2\n", 4),
                         ("rrmcex,2,2,x,0.5\n0.25\n", 1),
                         ("rrmcex,2,2,1\n", 1),
                         ("rrmcex,2,1,1,0.5\n0.25\n", 1)):
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=f"line {lineno}") as info:
            load_rrmcex_model(path, fmap)
        assert str(path) in str(info.value)


def test_load_factor_model_names_malformed_lines(tmp_path):
    path = tmp_path / "f.csv"
    for text, lineno in (("factor,1,1,2,0.5\n0.5,0.25\nx\n", 3),
                         ("factor,1,1,2,0.5\n0.5,0.25\n1.0,y\n", 3),
                         ("factor,1,1,2,0.5\n0.5\n1.0,2.0\n", 2),
                         ("factor,1,one,2,0.5\n0.5,0.25\n1.0,2.0\n", 1),
                         ("factor,-1,2,1,0.5\n0.5\n", 1),
                         ("factor,0,0,-2,0.5\n", 1)):
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=f"line {lineno}") as info:
            load_factor_model(path)
        assert str(path) in str(info.value)
    path.write_text("factor,1,1,2,0.5\n0.5,0.25\n")
    with pytest.raises(InvalidInputError, match="expected 2 factor rows"):
        load_factor_model(path)


# a bundle of each kind, with its header mu and the last field of line 3 left open
BUNDLES = {"kkmcex": "kkmcex,2,2,2,{mu}\n1,1,0.25\n2,1,{value}\n",
           "rrmcex": "rrmcex,2,2,2,{mu}\n0.25\n{value}\n",
           "factor": "factor,1,1,2,{mu}\n0.5,0.25\n1.0,{value}\n"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", list(BUNDLES))
def test_model_loaders_reject_a_non_finite_coefficient_by_line(tmp_path, kind, value):
    path = tmp_path / "m.csv"
    path.write_text(BUNDLES[kind].format(mu=0.5, value=value))
    with pytest.raises(InvalidInputError, match=f"line 3: value '{value}' is not finite") as info:
        _load_bundle(kind, path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("mu", ["nan", "inf", "-inf", "0", "-0.5"])
@pytest.mark.parametrize("kind", list(BUNDLES))
def test_model_loaders_reject_a_bundle_mu_not_positive_and_finite(tmp_path, kind, mu):
    path = tmp_path / "m.csv"
    path.write_text(BUNDLES[kind].format(mu=mu, value=0.75))
    with pytest.raises(InvalidInputError, match="line 1: mu must be positive and finite") as info:
        _load_bundle(kind, path)
    assert str(path) in str(info.value)


def _load_bundle(kind, path):
    if kind == "kkmcex":
        eye = KernelMatrix(np.eye(2))
        return load_kkmcex_model(path, KroneckerKernel(eye, eye))
    if kind == "rrmcex":
        return load_rrmcex_model(path, FeatureMap(np.ones((2, 2)), np.ones((2, 2)), "explicit"))
    return load_factor_model(path)


# ---------------------------------------------------------------- factored features


@st.composite
def factored_problems(draw):
    """A random feature map and sampling with S from 0 to past three gather
    blocks of FEATURE_BLOCK_BYTES, the last one short."""
    d = draw(st.integers(1, 96))
    step = FEATURE_BLOCK_BYTES // (8 * d)
    count = draw(st.integers(0, 3)) * step + draw(st.integers(0, step - 1))
    n = draw(st.integers(1, 40))
    l = max(1, -(-count // n)) + draw(st.integers(0, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return d, count, n, l, seed


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(factored_problems())
def test_factored_gather_fit_and_predict_match_the_dense_table(case):
    d, count, n, l, seed = case
    rng = np.random.default_rng(seed)
    fmap = FeatureMap(rng.normal(size=(n, d)), rng.normal(size=(l, d)), "random")
    s = uniform_sample(n, l, count, seed=seed) if count else SamplingSet(n, l, ())
    obs = ObservationSet(s, rng.normal(size=count))
    phi = fmap.phi
    phi_s = phi[s.vec_indices0]
    assert np.array_equal(fmap.rows(s.row_indices0, s.col_indices0), phi_s)
    mu = 0.5
    xi = rrmcex_fit(fmap, obs, mu).xi
    oracle = np.linalg.solve(phi_s.T @ phi_s + mu * np.eye(d), phi_s.T @ obs.values)
    assert np.linalg.norm(xi - oracle) <= 1e-10 * max(np.linalg.norm(oracle), 1e-300)
    xi = rng.normal(size=d)
    pred = rrmcex_predict(RrmcexModel(fmap, mu, xi))
    dense = unvec(phi @ xi, n, l)
    assert np.linalg.norm(pred - dense) <= 1e-12 * np.linalg.norm(dense)


def test_no_library_path_builds_the_dense_feature_table(monkeypatch):
    from kronmc import ExperimentConfig, features_from_svd, generate_synthetic
    from kronmc.bench import run_online

    def refuse(self):
        raise AssertionError("the dense NL x d feature table was built")

    monkeypatch.setattr(FeatureMap, "phi", property(refuse))
    rng = np.random.default_rng(44)
    kk, f, obs = random_problem(rng, 6, 5, 12, mu=0.1)
    schedule = StepSchedule.constant(0.01)
    for fmap in (features_from_eig(kk.kx, kk.ky, 6),
                 features_from_svd(rng.normal(size=(6, 3)), rng.normal(size=(5, 3)), 6)):
        assert rrmcex_predict(rrmcex_fit(fmap, obs, 0.1)).shape == (6, 5)
        model = orrmcex_run(fmap, obs, schedule, 0.1, 2)
        assert rrmcex_predict(orrmcex_step(model, 2, 3, 1.0, 0.01, 0.1)).shape == (6, 5)
    dataset = generate_synthetic(6, 5, 0.3, 1.0, seed=1)
    config = ExperimentConfig("orrmcex", (50,), feature_dim=4, epochs=2)
    assert len(run_online(config, dataset, stride=5)) == 2 * 15 // 5


def test_fits_reject_a_sampling_of_another_grid():
    # a 3 x 4 sampling on a 4 x 3 model indexes valid but wrong entries
    rng = np.random.default_rng(45)
    fmap = FeatureMap(rng.normal(size=(4, 2)), rng.normal(size=(3, 2)), "random")
    obs = ObservationSet(uniform_sample(3, 4, 5, seed=1), rng.normal(size=5))
    kk = KroneckerKernel(make_spd_kernel(rng, 4), make_spd_kernel(rng, 3))
    with pytest.raises(InvalidInputError, match="grid"):
        kkmcex_fit(kk, obs, 0.1)
    with pytest.raises(InvalidInputError, match="grid"):
        rrmcex_fit(fmap, obs, 0.1)
    with pytest.raises(InvalidInputError, match="grid"):
        orrmcex_run(fmap, obs, StepSchedule.constant(0.01), 0.1, 1)
