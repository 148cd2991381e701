import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kronmc import (FactorModel, FeatureMap, InvalidInputError, KernelMatrix,
                    KkmcexModel, KroneckerKernel, NoiseSpec, ObservationSet, RrmcexModel, SamplingSet,
                    StepSchedule, als_fit, factor_predict, factor_sgd_fit,
                    features_from_eig, features_from_svd, generate_synthetic, kkmcex_fit,
                    kkmcex_predict, load_kkmcex_model, nmse, observe, orrmcex_run, rrmcex_fit,
                    rrmcex_predict, save_model, uniform_sample)
from kronmc import solvers
from kronmc.errors import NumericalError
from kronmc.graphs import build_laplacian, erdos_renyi
from kronmc.kernels import (GATHER_BLOCK_BYTES, Bandlimited, _factored_map, gaussian_kernel,
                            kron_submatrix, spectral_kernel)
from kronmc.solvers import FEATURE_BLOCK_BYTES, _factor_init

from helpers import (csv_round_trip, dense_kron, dense_krr_gamma, full_dual_vector,
                     make_spd_kernel, parse_bundle, plain_als, unvec)


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
    gamma = full_dual_vector(model)
    assert np.linalg.norm(gamma - oracle) / np.linalg.norm(oracle) <= 1e-8


def test_kkmcex_gamma_is_zero_off_sampled_indices():
    rng = np.random.default_rng(2)
    kk, f, obs = random_problem(rng, 5, 4, 7, mu=0.1)
    gamma = full_dual_vector(kkmcex_fit(kk, obs, 0.1))
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
    # (test_kron_submatrix_row_blocks_match_ix_gather checks the split);
    # kkmcex_fit would solve this system by CG, so the Cholesky path is
    # called directly
    rng = np.random.default_rng(40)
    n, l, count, mu = 60, 50, 2500, 1e-2
    kk, f, obs = random_problem(rng, n, l, count, mu)
    kx, ky = kk.kx.matrix.copy(), kk.ky.matrix.copy()
    coeffs = solvers._kkmcex_cholesky(kk, obs.sampling, obs.values, mu, "")
    assert np.array_equal(kk.kx.matrix, kx) and np.array_equal(kk.ky.matrix, ky)
    oracle = dense_krr_gamma(dense_kron(kk), obs.sampling, obs.values, mu)
    gamma = full_dual_vector(KkmcexModel(kk, obs.sampling, mu, coeffs))
    assert np.linalg.norm(gamma - oracle) / np.linalg.norm(oracle) <= 1e-8


def test_kkmcex_fit_peak_memory_is_about_one_gram(peak_bytes):
    # the S x S block (8 S^2 bytes, 50 MB here) is the only array of its
    # size; beside it the gather holds one row block of at most
    # GATHER_BLOCK_BYTES and the rest is O(S): the factor rows of a block
    # and the solution, about 18 bytes a sample (45 KB) measured.  So the
    # bound allows eight length-S float64 vectors beyond block and buffer.
    # SciPy's finiteness check, which the block is spared, would allocate a
    # boolean S x S mask (S^2 bytes, 6.25 MB), 39 times that allowance.
    # kkmcex_fit would solve this system by CG, so the Cholesky path is
    # called directly
    rng = np.random.default_rng(41)
    count = 2500
    kk, f, obs = random_problem(rng, 60, 50, count, 1e-2)
    peak = peak_bytes(lambda: solvers._kkmcex_cholesky(kk, obs.sampling, obs.values, 1e-2, ""))
    assert peak <= 8 * count**2 + GATHER_BLOCK_BYTES + 8 * 8 * count


def unit_top_kernel(rng, n):
    """Random SPD kernel scaled to top eigenvalue 1."""
    k = make_spd_kernel(rng, n)
    return KernelMatrix(k.matrix / k._eigenvalues.max())


@pytest.mark.parametrize("case", range(7))
def test_kkmcex_cg_matches_dense_oracle(case, monkeypatch):
    # grids of 30..40 rows and columns sampled at 80-90 % give Cholesky
    # costs of over 1100 products, above plain CG's worst case of 467 at
    # kappa ~ 1e3 (mu = 1e-3 on unit-top kernels), so _plan picks CG for
    # every mu in 1e-3..10;
    # a fallback would hide a CG that misses its tolerance, so the Cholesky
    # path fails the test
    rng = np.random.default_rng(300 + case)
    if case < 6:
        n, l = int(rng.integers(30, 41)), int(rng.integers(30, 41))
        count = int(rng.uniform(0.8, 0.9) * n * l)
        mu = [1e-3, 10.0][case] if case < 2 else float(10.0 ** rng.uniform(-3, 1))
        kk = KroneckerKernel(unit_top_kernel(rng, n), unit_top_kernel(rng, l))
        f = unvec(dense_kron(kk) @ rng.normal(size=n * l), n, l)
    else:
        # at the admission bound, where the float32 products are least
        # accurate: diffusion kernels (top eigenvalue 1, the rest decaying
        # far below mu) and mu = 1.001e-4 give G + mu I a condition number
        # near the bound kappa = 9991 (checked below); 40 x 40 at 90 % has
        # a Cholesky cost of 3888 products, above the bound's 1646 iterations
        n = l = 40
        count = 1440
        mu = 1.001e-4
        data = generate_synthetic(n, l, 0.2, 1.0, seed=case)
        kk, f = KroneckerKernel(data.kx, data.ky), data.f
    obs = observe(f, uniform_sample(n, l, count, seed=case), NoiseSpec.target_snr(1.0, seed=case))
    if case == 6:
        block = np.linalg.eigvalsh(kron_submatrix(kk, obs.sampling))
        assert (block[-1] + mu) / (block[0] + mu) >= 5e3

    def no_cholesky(*args):
        raise AssertionError("the CG solve fell back to Cholesky")

    monkeypatch.setattr(solvers, "_kkmcex_cholesky", no_cholesky)
    gamma = full_dual_vector(kkmcex_fit(kk, obs, mu))
    assert_cg_meets_its_stop(kk, obs, mu, gamma)


def assert_cg_meets_its_stop(kk, obs, mu, gamma):
    """The CG duals ``gamma`` (length NL) are within 1e-8 of the dense
    oracle's, and their optimality residual within the stop's bound.

    CG returns x only when its true residual r has ||r|| <= CG_COEFF_TOL mu
    ||x|| / (1 + CG_COEFF_TOL): G + mu I >= mu I puts the exact c* within
    delta = ||r|| / mu of x, so the relative error delta / (||x|| - delta)
    is below CG_COEFF_TOL = 1e-8.  It stops on ||r|| <= CG_COEFF_TOL mu
    ||x|| / 2, and ||x|| <= (1 + CG_COEFF_TOL) ||c*|| with mu ||c*|| <=
    ||m||, so ||r|| <= CG_COEFF_TOL (1 + CG_COEFF_TOL) ||m|| / 2, the
    residual that exact-250's check relies on.  Measured over the eleven
    oracle cases: coefficient errors of at most 3.4e-9 and residuals of at
    most 3.5e-9 ||m||, both at mu = 10, where the bound is nearly tight.  A
    stop that drops mu (||r|| <= CG_COEFF_TOL ||x|| / 2, and the return
    test likewise) fails seven cases, every one with mu < 1 but the
    band-limited one, whose preconditioner is exact: errors of 2.2e-8 to
    1.6e-5, and at the gaussian case's mu = 0.1 an error of 7.7e-9 that
    only the residual bound catches (6.2e-9 ||m||).
    """
    kz = dense_kron(kk)
    oracle = dense_krr_gamma(kz, obs.sampling, obs.values, mu)
    assert np.linalg.norm(gamma - oracle) / np.linalg.norm(oracle) <= 1e-8
    idx = obs.sampling.vec_indices0
    c = gamma[idx]
    residual = obs.values - kz[np.ix_(idx, idx)] @ c - mu * c
    tol = solvers.CG_COEFF_TOL
    assert np.linalg.norm(residual) <= 0.5 * tol * (1 + tol) * np.linalg.norm(obs.values)


def flat_kernel(n, value):
    """value * I, carrying its spectrum, so that no eigvalsh checks it."""
    return KernelMatrix(value * np.eye(n), _spectrum=(np.full(n, value), np.eye(n)))


def planned(kk, s, mu):
    """_plan's choice as (rx, ry, budget), or None for the Cholesky."""
    plan = solvers._plan(kk, s, mu)[1]
    return None if plan is None else (len(plan[0]), len(plan[1]), plan[2])


@pytest.mark.parametrize("mu, s, n, l, expected", [
    # exact-250's sizes: plain CG.  kappa = 1001, tau = 1e-8 / 1001, so
    # ceil(sqrt(1001) / 2 ln(2 sqrt(1001) 1001 / 1e-8)) = ceil(15.82 * 29.48)
    # = ceil(466.3) = 467
    (1e-3, 6250, 250, 250, (0, 0, 467)),
    # kappa 8334: ceil(45.65 * 32.66) = 1491 products > the Cholesky's 1302
    (1.2e-4, 6250, 250, 250, None),
    (1e-4, 6250, 250, 250, None),  # kappa = 10001 > CG_MAX_KAPPA: not admitted
    (1e-6, 6250, 250, 250, None),  # criterion 7
    (1e-3, 625, 250, 250, None),  # cli-fit: the Cholesky costs 1.3 products
    (1e-5, 62500, 790, 790, None),  # cheaper, but kappa = 100001
])
def test_plan_on_a_flat_spectrum_picks_plain_cg_or_the_cholesky(mu, s, n, l, expected):
    # top eigenvalues 1, and all others too, so that no rectangle shrinks
    # the condition bound (no side may reach (N + L) / 4): plain CG at
    # kappa = (1 + mu) / mu against the Cholesky
    kk = KroneckerKernel(flat_kernel(n, 1.0), flat_kernel(l, 1.0))
    assert planned(kk, s, mu) == expected


def test_plan_budget_is_the_worst_case_iteration_count():
    # the worst-case count itself, where CG_MAX_KAPPA admits kappa and the
    # Cholesky costs far more: ceil(sqrt(k) / 2 ln(2 sqrt(k) / tau)) with
    # tau = 1e-8 / kappa; eigenvalues k - 1 and 1 and mu = 1 give kappa = k
    # exactly, so the log reads ln(2 k^1.5 / 1e-8):
    # - k = 1001: 15.82 * ln(6.334e12) = 15.82 * 29.48 = 466.3 -> 467
    # - k = 101: 5.025 * ln(2.030e11) = 5.025 * 26.04 = 130.8 -> 131
    # - k = 1e4: 50 * ln(2e14) = 50 * 32.93 = 1646.5 -> 1647
    def plan(kappa):
        return planned(KroneckerKernel(flat_kernel(100, kappa - 1.0), flat_kernel(100, 1.0)),
                       10**6, 1.0)

    for kappa, expected in ((1001.0, 467), (101.0, 131), (1e4, 1647)):
        assert plan(kappa) == (0, 0, expected)
    assert plan(1e4 + 1.0) is None


@pytest.fixture(scope="module")
def paper_data():
    """exact-250's dataset: the benchmark's 250 x 250 diffusion pair."""
    return generate_synthetic(250, 250, 0.03, 1.0, seed=11)


@pytest.mark.parametrize("mu, expected", [
    # exact-250: ceil(sqrt(109) / 2 ln(2 sqrt(109) 1001 / 1e-8)) =
    # ceil(5.22 * 28.37) = ceil(148.1) = 149; at most 47 used over 10 draws
    (1e-3, (21, 13, 149)),
    # kappa 6668: plain CG's ceil(40.83 * 32.32) = 1320 exceed 1302; the
    # rectangle's bound 582 gives ceil(12.06 * 31.10) = 376;
    # 88 + 5 used on the draw of the next test
    (1.5e-4, (26, 17, 376)),
    (1e-4, None),  # kappa 10001: not admitted
    (1e-6, None),
])
def test_plan_prices_the_preconditioned_bound(paper_data, mu, expected):
    # S = 6250.  The rectangle bounds the preconditioned system by 1 +
    # lam_out / mu (109 at 1e-3, 582 at 1.5e-4), so its worst case is a
    # fraction of the plain bound's; priced at the plain kappa, as the rule
    # before it was, the 1.5e-4 row gets the Cholesky and fails.  The
    # rectangle's eigenpairs are each side's top ones, in a stable
    # descending sort of its eigenvalues
    kk = KroneckerKernel(paper_data.kx, paper_data.ky)
    top, plan = solvers._plan(kk, 6250, mu)
    assert planned(kk, 6250, mu) == expected
    wx, wy = paper_data.kx._eigenvalues, paper_data.ky._eigenvalues
    assert top == float(wx.max()) * float(wy.max())
    if plan is not None:
        for w, order in ((wx, plan[0]), (wy, plan[1])):
            assert np.array_equal(order, np.argsort(-w, kind="stable")[:len(order)])


def test_plan_at_cli_fit_size_reads_no_eigenvectors(paper_data, eig_calls):
    # kernels read from CSV carry no spectrum: their PSD check's eigvalsh
    # prices the plan, and S = 625 gets the Cholesky with no eigh at all
    kk = KroneckerKernel(KernelMatrix(paper_data.kx.matrix), KernelMatrix(paper_data.ky.matrix))
    assert planned(kk, 625, 1e-3) is None
    assert eig_calls == {"eigh": 0, "eigvalsh": 2}


def test_preconditioned_cg_past_the_plain_bound_matches_the_cholesky(paper_data, monkeypatch):
    # mu = 1.5e-4, where the plain bound sent the fit to the Cholesky: the
    # 26 x 17 rectangle's CG, with the fallback refused, lands on it
    kk = KroneckerKernel(paper_data.kx, paper_data.ky)
    obs = observe(paper_data.f, uniform_sample(250, 250, 6250, seed=2),
                  NoiseSpec.target_snr(1.0, seed=3))
    cholesky = solvers._kkmcex_cholesky

    def no_cholesky(*args):
        raise AssertionError("the CG solve fell back to Cholesky")

    monkeypatch.setattr(solvers, "_kkmcex_cholesky", no_cholesky)
    coeffs = kkmcex_fit(kk, obs, 1.5e-4).dual_coeffs
    expected = cholesky(kk, obs.sampling, obs.values, 1.5e-4, "")
    assert np.linalg.norm(coeffs - expected) / np.linalg.norm(expected) <= 1e-8


def test_kkmcex_cg_fit_peak_memory_is_far_below_one_gram(peak_bytes):
    # at 250 x 250, S = 6250, mu = 1e-3 _plan picks CG, which holds three
    # N x L grids in float64 (0.5 MB each) and three in float32, float32
    # copies of Kx and Ky, and a few length-S vectors: about 3 MB.  The
    # S x S block it avoids is 312 MB
    rng = np.random.default_rng(42)
    n, count = 250, 6250
    kk = KroneckerKernel(unit_top_kernel(rng, n), unit_top_kernel(rng, n))
    obs = ObservationSet(uniform_sample(n, n, count, seed=6), rng.normal(size=count))
    peak = peak_bytes(lambda: kkmcex_fit(kk, obs, 1e-3))
    assert peak <= 0.02 * count**2 * 8


def test_kkmcex_cg_that_misses_its_tolerance_falls_back_to_cholesky(monkeypatch, gemm_calls):
    # _plan's rectangle with a budget of one product: one float32 CG step,
    # then the true residual from one float64 product, which misses the
    # tolerance.  The diffusion
    # kernels make the step a preconditioned one, whose build and apply run
    # GEMMs of their own; a product is the pair of GEMMs by Kx and then Ky,
    # and the first one is told by its Kx-shaped left operand (N != L)
    n, l = 30, 35
    data = generate_synthetic(n, l, 0.2, 1.0, seed=43)
    kk = KroneckerKernel(data.kx, data.ky)
    obs = observe(data.f, uniform_sample(n, l, 900, seed=43))
    cg_results, cg = [], solvers._kkmcex_cg
    preconditioners, woodbury = [], solvers._woodbury
    plan = solvers._plan

    def counted_cg(*args):
        cg_results.append(cg(*args))
        return cg_results[-1]

    def counted_woodbury(*args):
        preconditioners.append(woodbury(*args))
        return preconditioners[-1]

    def one_product(*args):
        top, (ox, oy, _) = plan(*args)
        return top, (ox, oy, 1)

    monkeypatch.setattr(solvers, "_plan", one_product)
    monkeypatch.setattr(solvers, "_kkmcex_cg", counted_cg)
    monkeypatch.setattr(solvers, "_woodbury", counted_woodbury)
    gemm_calls.clear()
    coeffs = kkmcex_fit(kk, obs, 1e-2).dual_coeffs
    product_dtypes = [dtype for left, right, dtype in gemm_calls
                      if left == (n, n) and right == (n, l)]
    assert cg_results == [None]
    assert len(preconditioners) == 1 and preconditioners[0] is not None
    assert product_dtypes == ["float32", "float64"]
    expected = solvers._kkmcex_cholesky(kk, obs.sampling, obs.values, 1e-2, "")
    assert np.array_equal(coeffs, expected)


def _preconditioned_duals(monkeypatch, kk, obs, mu):
    """kkmcex_fit's duals, scattered onto the grid, and the (rx, ry) that
    _plan picked; fails unless CG ran preconditioned and kept its answer."""
    plans, plan = [], solvers._plan
    preconditioners, woodbury = [], solvers._woodbury

    def spied_plan(*args):
        plans.append(plan(*args))
        return plans[-1]

    def spied_woodbury(*args):
        preconditioners.append(woodbury(*args))
        return preconditioners[-1]

    def no_cholesky(*args):
        raise AssertionError("the CG solve fell back to Cholesky")

    monkeypatch.setattr(solvers, "_plan", spied_plan)
    monkeypatch.setattr(solvers, "_woodbury", spied_woodbury)
    monkeypatch.setattr(solvers, "_kkmcex_cholesky", no_cholesky)
    gamma = full_dual_vector(kkmcex_fit(kk, obs, mu))
    (_, (ox, oy, _)), = plans
    assert len(ox) * len(oy) > 0
    assert preconditioners[0] is not None
    return gamma, (len(ox), len(oy))


@pytest.mark.parametrize("case", ["bandlimited", "gaussian", "rectangular", "empty-lines"])
def test_preconditioned_cg_matches_dense_oracle(case, monkeypatch):
    # each case is admitted to CG, at an S whose Cholesky costs more, and
    # has a decaying spectrum, so _plan picks a rectangle:
    # - bandlimited: weights 1 on a pass band and 0 elsewhere, so the
    #   rectangle must keep the zero weights out (mu / 0 in W); it covers
    #   the whole band and makes P = G + mu I exact
    # - gaussian: a kernel with no carried spectrum, decomposed by eigh
    # - rectangular: N != L, where _plan picks rx != ry
    # - empty-lines: rows and columns with no sample, so B_i = 0
    rng = np.random.default_rng(7)
    n, l, mu = 40, 40, 1e-3
    if case == "bandlimited":
        mu = 1e-2
        kx, ky = (spectral_kernel(build_laplacian(erdos_renyi(n, 0.2, seed)), Bandlimited(band))
                  for seed, band in ((1, range(1, 9)), (2, range(1, 7))))
    elif case == "gaussian":
        l, mu = 36, 1e-1
        kx, ky = (gaussian_kernel(rng.uniform(size=(side, 1)), 0.02) for side in (n, l))
        assert kx._spectrum is None and ky._spectrum is None
    else:
        if case == "rectangular":
            n, l = 30, 48
        data = generate_synthetic(n, l, 0.15, 1.0, seed=3)
        kx, ky = data.kx, data.ky
    if case == "empty-lines":
        # rows 1-6 and every fifth column stay empty; 90 % of the rest
        cells = [(i, j) for j in range(1, l + 1) for i in range(7, n + 1) if j % 5]
        keep = np.sort(rng.permutation(len(cells))[:int(0.9 * len(cells))])
        sampling = SamplingSet(n, l, tuple(cells[k] for k in keep))
    else:
        sampling = uniform_sample(n, l, int(0.8 * n * l), seed=1)
    kk = KroneckerKernel(kx, ky)
    f = unvec(dense_kron(kk) @ rng.normal(size=n * l), n, l)
    obs = observe(f, sampling, NoiseSpec.target_snr(1.0, seed=1))
    gamma, (rx, ry) = _preconditioned_duals(monkeypatch, kk, obs, mu)
    if case == "bandlimited":
        assert (rx, ry) == (8, 6)
    if case == "rectangular":
        assert rx != ry
    assert_cg_meets_its_stop(kk, obs, mu, gamma)


def test_preconditioned_cg_product_count_on_a_paper_scale_draw(gemm_calls, peak_bytes):
    # one fixed 250 x 250 draw at exact-250's settings (the benchmark's
    # dataset, S = 6250, mu = 1e-3, SNR 1): the fit is deterministic, so
    # its products repeat exactly.  Measured: 42 float32 and 5 float64
    # products (2 cores, OpenBLAS); unpreconditioned CG takes 88 and 5
    # (89 and 5 at one BLAS thread).
    # The bounds are the measured counts plus 10 %, rounded up (47 and 6,
    # 52 in all), for a BLAS whose rounding moves a replacement or a stop;
    # they sit far below the plain CG's 93, which an identity
    # preconditioner (or a lost rectangle) brings back.  At the former
    # fixed stop (a true residual of 5e-13 ||m||) the fit took 60 and 6,
    # which these bounds also reject.  The preconditioned fit also keeps
    # within the memory bound of the plain CG's memory test above
    n, count = 250, 6250
    data = generate_synthetic(n, n, 0.03, 1.0, seed=11)
    kk = KroneckerKernel(data.kx, data.ky)
    obs = observe(data.f, uniform_sample(n, n, count, seed=2), NoiseSpec.target_snr(1.0, seed=3))
    gemm_calls.clear()
    peak = peak_bytes(lambda: kkmcex_fit(kk, obs, 1e-3))
    # each product is two n x n by n x n GEMMs; no GEMM of the
    # preconditioner has that shape
    products = [dtype for left, right, dtype in gemm_calls if left == right == (n, n)]
    single, double = products.count("float32") // 2, products.count("float64") // 2
    assert single <= 47 and double <= 6 and single + double <= 52
    assert peak <= 0.02 * count**2 * 8


def test_each_kernel_side_is_eigendecomposed_once(eig_calls, tmp_path):
    # a kernel with no carried spectrum is decomposed by one eigh on the
    # first CG fit that builds a rectangle, and its two CG fits and two
    # feature maps share it
    rng = np.random.default_rng(8)
    kx, ky = (gaussian_kernel(rng.uniform(size=(side, 1)), 0.02) for side in (40, 36))
    kk = KroneckerKernel(kx, ky)
    obs = observe(rng.normal(size=(40, 36)), uniform_sample(40, 36, 1152, seed=1))
    for mu in (1e-1, 5e-2):
        # both admitted to CG (kappa about 2.6e3 and 5.1e3), with a rectangle
        assert planned(kk, 1152, mu)[0] > 0
        kkmcex_fit(kk, obs, mu)
        assert eig_calls == {"eigh": 2, "eigvalsh": 2}
    for d in (10, 20):
        features_from_eig(kx, ky, d)
    assert eig_calls == {"eigh": 2, "eigvalsh": 2}
    # a spectral kernel carries its pairs (the Laplacians' eigh, counted
    # when the dataset is built), so fits and maps decompose nothing more
    data = generate_synthetic(40, 40, 0.15, 1.0, seed=3)
    kk = KroneckerKernel(data.kx, data.ky)
    before = dict(eig_calls)
    kkmcex_fit(kk, observe(data.f, uniform_sample(40, 40, 1280, seed=1)), 1e-3)
    features_from_eig(data.kx, data.ky, 20)
    assert eig_calls == before
    # kronmc fit at the cli-fit workload's size, S = 625 on 250 x 250,
    # takes the Cholesky path: the kernels read from CSV are checked by one
    # eigvalsh a side and never decomposed
    from kronmc import cli, save_matrix_csv
    data = generate_synthetic(250, 250, 0.03, 1.0, seed=11)
    for key, matrix in (("f", data.f), ("kx", data.kx.matrix), ("ky", data.ky.matrix)):
        save_matrix_csv(tmp_path / f"{key}.csv", matrix)
    config = tmp_path / "fit.cfg"
    config.write_text("".join(f"{key}={tmp_path / key}.csv\n" for key in ("f", "kx", "ky")))
    before = dict(eig_calls)
    assert cli.main(["fit", "--config", str(config), "--out", str(tmp_path / "fit"),
                     "--method", "kkmcex", "--ps", "1.0", "--mu", "1e-3", "--seed", "1"]) == 0
    assert eig_calls == {"eigh": before["eigh"], "eigvalsh": before["eigvalsh"] + 2}


def test_kkmcex_overflow_is_a_numerical_error_naming_mu_s_and_kappa():
    huge = KernelMatrix(1e200 * np.eye(4))
    obs = observe(np.ones((4, 4)), uniform_sample(4, 4, 8, seed=1))
    with pytest.raises(NumericalError, match=r"mu=0\.01, S=8, condition bound inf"):
        kkmcex_fit(KroneckerKernel(huge, huge), obs, 1e-2)


def test_kkmcex_failed_cholesky_names_mu_s_and_kappa():
    # finite, but mu vanishes against the rank-one block's 1.6e301
    big = KernelMatrix(1e150 * np.ones((4, 4)))
    obs = observe(np.ones((4, 4)), uniform_sample(4, 4, 8, seed=1))
    with pytest.raises(NumericalError, match=r"not positive definite .*mu=1e-100, S=8"):
        kkmcex_fit(KroneckerKernel(big, big), obs, 1e-100)


def test_a_failed_ridge_or_als_solve_names_mu_and_s(monkeypatch):
    # the ridge Gram of 1e160-sized features overflows to inf, which SciPy
    # reports by a plain ValueError
    from scipy.linalg import LinAlgError
    obs = ObservationSet(uniform_sample(4, 3, 6, seed=1), np.ones(6))
    with pytest.raises(NumericalError, match=r"infs or NaNs \(mu=0\.1, S=6\)"):
        rrmcex_fit(FeatureMap(np.full((4, 2), 1e160), np.ones((3, 2))), obs, 0.1)
    # ALS's first half step solves for N p = 4 x 2 unknowns at once; the
    # factorization refuses that 8 x 8 system
    cho_factor = solvers.cho_factor

    def refuse(a, **kwargs):
        if a.shape == (8, 8):
            raise LinAlgError("forced")
        return cho_factor(a, **kwargs)

    monkeypatch.setattr(solvers, "cho_factor", refuse)
    with pytest.raises(NumericalError, match=r"forced \(mu=0\.1, S=6\)"):
        als_fit(obs, KernelMatrix(np.eye(4)), KernelMatrix(np.eye(3)), 2, 0.1)


def test_an_overflowing_als_fit_names_mu_and_s():
    # observations of 1e200 overflow the half step's outer products; the
    # overflow warning escaped before the solve could name the fit
    obs = ObservationSet(uniform_sample(4, 3, 6, 0), np.full(6, 1e200))
    with pytest.raises(NumericalError,
                       match=r"positive-definite solve failed: .*\(mu=0\.1, S=6\)"):
        als_fit(obs, KernelMatrix(np.eye(4)), KernelMatrix(np.eye(3)), 2, 0.1)


def test_rrmcex_fit_peak_memory_is_one_block_not_phi_s(peak_bytes):
    # Phi_S (S x d, 6.4 MB here) is never formed: the fit holds one gathered
    # block of FEATURE_BLOCK_BYTES (256 KB), its row-factor temporary of the
    # same size and the d x d Gram, about 0.08 of Phi_S; forming Phi_S in
    # one piece costs at least 1.0
    rng = np.random.default_rng(43)
    n, l, d, count = 200, 250, 20, 40000
    fmap = FeatureMap(rng.normal(size=(n, d)), rng.normal(size=(l, d)))
    obs = ObservationSet(uniform_sample(n, l, count, seed=5), rng.normal(size=count))
    peak = peak_bytes(lambda: rrmcex_fit(fmap, obs, 1e-2))
    assert peak <= 0.25 * count * d * 8


def test_spd_solve_rejects_non_finite_right_hand_side():
    from kronmc.errors import NumericalError
    from kronmc.solvers import _spd_solve
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericalError, match=r"right-hand side .*\(mu=1, S=2\)"):
            _spd_solve(np.eye(2), np.array([1.0, bad]), "mu=1, S=2")


def test_spd_solve_rejects_indefinite_or_non_finite_matrix():
    # SciPy reports the indefinite matrix by a LinAlgError and the
    # non-finite one by a plain ValueError; both become a NumericalError
    # that names the caller's context
    from kronmc.errors import NumericalError
    from kronmc.solvers import _spd_solve
    for a in (np.array([[1.0, 2.0], [2.0, 1.0]]),
              np.asfortranarray([[1.0, 0.0], [0.0, -1.0]]),
              np.array([[np.inf, 0.0], [0.0, 1.0]])):
        with pytest.raises(NumericalError, match=r"\(mu=1, S=2\)$"):
            _spd_solve(a, np.ones(2), "mu=1, S=2")


def test_spd_solve_factors_fortran_input_in_place():
    from kronmc.solvers import _spd_solve
    a = np.asfortranarray([[4.0, 2.0], [2.0, 3.0]])
    expected = np.linalg.solve(a, [1.0, 2.0])
    x = _spd_solve(a, np.array([1.0, 2.0]), "")
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
    dense_est = unvec(dense_kron(kk) @ full_dual_vector(model), 4, 3)
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
    fmap = FeatureMap(qx[:, [0, 1, 2, 0]], qy[:, [0, 0, 1, 1]])
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


def test_orrmcex_update_examples():
    # ORRMCEX's one update, which orrmcex_run's sweep calls: a zero step
    # leaves xi unchanged, and a step from xi = 0 moves along t m phi.
    # Criterion 10 checks its direction against the loss's gradient
    rng = np.random.default_rng(12)
    kk, f, obs = random_problem(rng, 3, 3, 5, mu=0.1)
    fmap = features_from_eig(kk.kx, kk.ky, 5)
    start = rng.normal(size=5)
    xi = start.copy()
    solvers._orrmcex_update(xi, fmap.row(1, 1), 2.0, 0.0, 0.1)
    assert np.array_equal(xi, start)
    xi = np.zeros(5)
    solvers._orrmcex_update(xi, fmap.row(2, 3), 1.5, 0.05, 0.1)
    assert np.allclose(xi, 0.05 * 1.5 * fmap.row(2, 3), atol=1e-14)


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


def test_orrmcex_run_peak_memory_is_two_blocks_and_a_few_orders(peak_bytes):
    # at criterion 9's scale (d = 50, S = 6250) an epoch, one segment
    # without a hook, holds its order, the order's row and column indices,
    # its steps (4 arrays of S words), the reused block of FEATURE_BLOCK_BYTES
    # (256 KB) and the row-factor temporary of FeatureMap.rows of the same
    # size.  Measured: two blocks plus 4.2 S words (0.73 MB) with or without
    # a hook, against this bound of 0.77 MB.  Gathering a segment's S x d
    # feature rows in one call holds 2.5 MB twice
    rng = np.random.default_rng(48)
    n, d, count = 250, 50, 6250
    fmap = FeatureMap(rng.normal(size=(n, d)), rng.normal(size=(n, d)))
    obs = ObservationSet(uniform_sample(n, n, count, seed=9), rng.normal(size=count))
    schedule = StepSchedule.decay(5e-3 * count, 5.0 * count)
    for hook in (None, lambda n, m: None):
        peak = peak_bytes(lambda: orrmcex_run(fmap, obs, schedule, 1e-4 / count, 2,
                                              eval_hook=hook, seed=1))
        assert peak <= 2 * FEATURE_BLOCK_BYTES + 5 * 8 * count


def test_orrmcex_run_determinism():
    rng = np.random.default_rng(15)
    kk, f, obs = random_problem(rng, 3, 3, 6, mu=0.0)
    fmap = features_from_eig(kk.kx, kk.ky, 4)
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
    assert StepSchedule.constant(0.2).steps(99, 2).tolist() == [0.2, 0.2]
    assert StepSchedule.decay(1.0, 4.0).steps(1, 1)[0] == pytest.approx(0.2)
    with pytest.raises(InvalidInputError):
        StepSchedule.constant(0.0)
    with pytest.raises(InvalidInputError):
        StepSchedule.decay(1.0, 0.0)


POSITIVE = st.one_of(st.integers(1, 10**6), st.floats(1e-6, 1e6))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(("constant", "decay")), POSITIVE, POSITIVE,
       st.integers(1, 10**9), st.integers(0, 300))
def test_step_schedule_steps_equal_the_scalar_rule_bit_for_bit(rule, c, n0, first, count):
    # the SGD fits take their steps as arrays; each must be the float the
    # scalar rule c / (n + n0), or c, gives in Python
    schedule = StepSchedule(rule, c, n0)
    steps = schedule.steps(first, count)
    assert steps.dtype == np.float64 and steps.shape == (count,)
    scalar = [c if rule == "constant" else c / (n + n0) for n in range(first, first + count)]
    assert all(a == b for a, b in zip(steps.tolist(), scalar))


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
                                rel_tol=0.0, seed=5, return_objectives=True)
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


def test_als_half_steps_solve_the_coupled_normal_equations():
    # each half step is the exact minimizer over its factor, so the gradient
    # -2 sum_Omega (m - w_i . h_j) e_i h_j^T + 2 mu Kx^-1 W vanishes at
    # (W, h0), and its column-side twin at the returned (W, H).  The ratios
    # read 1.5e-15 and 2.5e-15; scaling the off-diagonal mu Kinv blocks of the
    # system by 0.99 moves the first to 2.0e-3
    rng = np.random.default_rng(21)
    n, l, p, mu = 6, 5, 2, 0.05
    kx, ky = make_spd_kernel(rng, n), make_spd_kernel(rng, l)
    s = uniform_sample(n, l, 18, seed=3)
    obs = observe(rng.normal(size=(n, l)), s)
    rows, cols = s.row_indices0, s.col_indices0
    w0, h0 = _factor_init(n, l, p, seed=4)
    model = als_fit(obs, kx, ky, p, mu, max_iters=1, rel_tol=0.0, seed=4)
    w, h = model.w, model.h

    def residual(w, h):
        r = np.zeros((n, l))
        r[rows, cols] = obs.values - np.sum(w[rows] * h[cols], axis=1)
        return r

    for data, reg in ((-2 * residual(w, h0) @ h0, 2 * mu * np.linalg.inv(kx.matrix) @ w),
                      (-2 * residual(w, h).T @ w, 2 * mu * np.linalg.inv(ky.matrix) @ h)):
        scale = np.linalg.norm(data) + np.linalg.norm(reg)
        assert np.linalg.norm(data + reg) <= 1e-10 * scale


def test_als_rejects_kernels_of_another_grid():
    rng = np.random.default_rng(22)
    obs = observe(rng.normal(size=(10, 8)), uniform_sample(10, 8, 30, seed=0))
    for kx_side, ky_side in ((12, 8), (9, 8), (10, 9)):
        with pytest.raises(InvalidInputError,
                           match=f"sampling grid 10 x 8 does not match "
                                 f"model grid {kx_side} x {ky_side}"):
            als_fit(obs, KernelMatrix(np.eye(kx_side)), KernelMatrix(np.eye(ky_side)),
                    2, 0.1)


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


# the two SGD fits on the 8 observations of SGD_OBS, by seed, epochs and hook
SGD_OBS = observe(np.random.default_rng(24).normal(size=(4, 4)), uniform_sample(4, 4, 8, seed=1))
SGD_FEATURES = features_from_eig(gaussian_kernel(np.arange(4.0)[:, None], 1.0),
                                 gaussian_kernel(np.arange(4.0)[:, None], 1.0), 5)
SGD_FITS = {
    "orrmcex": lambda seed, epochs, **hook: orrmcex_run(
        SGD_FEATURES, SGD_OBS, StepSchedule.decay(0.5, 10.0), 0.1, epochs, seed=seed, **hook),
    "factor_sgd": lambda seed, epochs, **hook: factor_sgd_fit(
        SGD_OBS, 2, 0.1, StepSchedule.decay(0.5, 10.0), epochs, seed, **hook),
}


def _iterate(model):
    return (model.xi,) if isinstance(model, RrmcexModel) else (model.w, model.h)


@pytest.mark.parametrize("method", list(SGD_FITS))
@pytest.mark.parametrize("epochs", [0, -1])
def test_sgd_fits_reject_fewer_than_one_epoch(method, epochs):
    # orrmcex_run(epochs=0) returned xi = 0, factor_sgd_fit its random init
    with pytest.raises(InvalidInputError, match=f"epochs must be at least 1, got {epochs}"):
        SGD_FITS[method](0, epochs)


@pytest.mark.parametrize("method", list(SGD_FITS))
@pytest.mark.parametrize("every, iterations", [(None, [8, 16, 24]), (5, [5, 10, 15, 20]),
                                              (3, [3, 6, 9, 12, 15, 18, 21, 24]),
                                              (8, [8, 16, 24])])
def test_sgd_hook_fires_every_eval_every_updates_else_once_per_epoch(
        method, every, iterations):
    # 8 observations, 3 epochs: without eval_every the hook fires at each
    # epoch's end; strides 5 and 3 cut the orders across epochs
    seen = []
    SGD_FITS[method](2, 3, eval_hook=lambda n, m: seen.append((n, m)), eval_every=every)
    assert [n for n, _ in seen] == iterations
    # a model handed to the hook keeps the iterate after its n updates: the
    # epochs' orders are drawn in turn, so a fit of n / 8 epochs ends there
    for n, model in seen:
        if n % 8 == 0:
            ref = SGD_FITS[method](2, n // 8)
            assert all(map(np.array_equal, _iterate(model), _iterate(ref)))


@pytest.mark.parametrize("method", list(SGD_FITS))
@pytest.mark.parametrize("every", [1, 3, 5, 7, 8, 13])
def test_sgd_cuts_leave_the_arithmetic_unchanged(method, every):
    # cutting the orders at each evaluation changes which updates one call
    # of the method's sweep runs, and no bit of the end point
    plain = SGD_FITS[method](4, 5)
    cut = SGD_FITS[method](4, 5, eval_hook=lambda n, m: None, eval_every=every)
    assert all(map(np.array_equal, _iterate(cut), _iterate(plain)))


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
    and what reads its bundle back: load_kkmcex_model for a kkmcex bundle,
    the values parse_bundle reads for the bundles no loader reads."""
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
        fmap = FeatureMap(np.ones((n, d)), np.ones((l, d)))
        xi = draw(arrays(float, d, elements=finite_floats))

        def load(path):
            (_, _, _, _, mu), body = parse_bundle(path)
            return RrmcexModel(fmap, mu, body.ravel())
        return RrmcexModel(fmap, mu, xi), load
    w = draw(arrays(float, (n, d), elements=finite_floats))
    h = draw(arrays(float, (l, d), elements=finite_floats))

    def load(path):
        (_, n, _, _, mu), body = parse_bundle(path)
        return FactorModel(body[:n], body[n:], mu)
    return FactorModel(w, h, mu), load


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(bundles())
def test_model_csv_round_trips(case):
    model, load = case
    loaded = csv_round_trip(save_model, load, model)
    assert type(loaded) is type(model) and loaded.mu == model.mu
    if isinstance(model, KkmcexModel):
        assert loaded.sampling == model.sampling
        pairs = [(loaded.dual_coeffs, model.dual_coeffs)]
    elif isinstance(model, RrmcexModel):
        pairs = [(loaded.xi, model.xi)]
    else:
        pairs = [(loaded.w, model.w), (loaded.h, model.h)]
    for got, want in pairs:
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_save_model_names_a_type_it_cannot_serialize(tmp_path):
    path = tmp_path / "m.csv"
    with pytest.raises(InvalidInputError, match="^cannot serialize model of type "
                                                "<class 'object'>$"):
        save_model(path, object())
    assert not path.exists()


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


# a kkmcex bundle with its header mu and the coefficient on line 3 left open
BUNDLE = "kkmcex,2,2,2,{mu}\n1,1,0.25\n2,1,{value}\n"


def _load_bundle(path):
    eye = KernelMatrix(np.eye(2))
    return load_kkmcex_model(path, KroneckerKernel(eye, eye))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_kkmcex_model_rejects_a_non_finite_coefficient_by_line(tmp_path, value):
    path = tmp_path / "m.csv"
    path.write_text(BUNDLE.format(mu=0.5, value=value))
    with pytest.raises(InvalidInputError, match=f"line 3: value '{value}' is not finite") as info:
        _load_bundle(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("mu", ["nan", "inf", "-inf", "0", "-0.5"])
def test_load_kkmcex_model_rejects_a_bundle_mu_not_positive_and_finite(tmp_path, mu):
    path = tmp_path / "m.csv"
    path.write_text(BUNDLE.format(mu=mu, value=0.75))
    with pytest.raises(InvalidInputError, match="line 1: mu must be positive and finite") as info:
        _load_bundle(path)
    assert str(path) in str(info.value)


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
    fmap = FeatureMap(rng.normal(size=(n, d)), rng.normal(size=(l, d)))
    s = uniform_sample(n, l, count, seed=seed) if count else SamplingSet(n, l, ())
    obs = ObservationSet(s, rng.normal(size=count))
    phi = fmap.phi
    phi_s = phi[s.vec_indices0]
    assert np.array_equal(fmap.rows(s.row_indices0, s.col_indices0), phi_s)
    mu = 0.5
    if count == 0:
        with pytest.raises(InvalidInputError, match=r"sampling is empty \(S = 0\)"):
            rrmcex_fit(fmap, obs, mu)
    else:
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
        assert rrmcex_predict(orrmcex_run(fmap, obs, schedule, 0.1, 2)).shape == (6, 5)
    dataset = generate_synthetic(6, 5, 0.3, 1.0, seed=1)
    config = ExperimentConfig("orrmcex", (50,), feature_dim=4, epochs=2)
    assert len(run_online(config, dataset, stride=5)) == 2 * 15 // 5


def _kernel_with_spectrum(rng, eigenvalues):
    q = np.linalg.qr(rng.normal(size=(len(eigenvalues), len(eigenvalues))))[0]
    return KernelMatrix((q * eigenvalues) @ q.T)


def _paired_map(kind, rng):
    """A factored map on a rectangular grid: one dominant row (column)
    eigenvalue makes every feature share its eigenvector, so the row
    (column) side pairs; "both" has several basis columns on each side; and
    "svd" asks for its full spectrum of 3 x 3 singular-value products."""
    if kind == "row":
        kx = _kernel_with_spectrum(rng, [1e3] + [1e-3] * 6)
        return features_from_eig(kx, _kernel_with_spectrum(rng, rng.uniform(1, 2, 5)), 4)
    if kind == "col":
        ky = _kernel_with_spectrum(rng, [1e3] + [1e-3] * 8)
        return features_from_eig(_kernel_with_spectrum(rng, rng.uniform(1, 2, 6)), ky, 5)
    if kind == "both":
        return features_from_eig(make_spd_kernel(rng, 6), make_spd_kernel(rng, 5), 12)
    return features_from_svd(rng.normal(size=(3, 5)), rng.normal(size=(4, 3)), 9)


@pytest.mark.parametrize("kind, pairs_on", [("row", "rows"), ("col", "cols"),
                                            ("both", None), ("svd", None)])
def test_both_ridge_grams_match_the_dense_table(kind, pairs_on, monkeypatch):
    # a Gram entry's rounding error is a few eps times sum_s |phi_sc phi_sc'|,
    # at most sqrt(G_cc G_c'c') by Cauchy-Schwarz, and a right-hand side
    # entry's a few eps times sqrt(G_cc) ||m||; both are checked to 1e-12 of
    # those scales.  Scaling one off-diagonal group block by 1 + 1e-9 fails
    # on "both" and "svd", and pairing a side with the other side's sample
    # indices fails on all four maps.  The rule never groups maps this
    # small, so it is told that pairs cost nothing, and hands out the
    # pairing it would take
    rng = np.random.default_rng(48)
    fmap = _paired_map(kind, rng)
    monkeypatch.setattr(solvers, "GROUPED_PAIR_COST", 0)
    pairing = solvers._pairing(fmap, 10**6)
    on_cols, basis, _, _ = pairing
    assert {"rows": not on_cols, "cols": on_cols, None: basis.shape[1] > 1}[pairs_on]
    n, l = fmap.n_rows, fmap.n_cols
    phi = fmap.phi
    lower = np.tril_indices(fmap.dim)
    for count in sorted({1, 2, n * l // 3, n * l - 1, n * l}):
        s = uniform_sample(n, l, count, seed=count)
        values = rng.normal(size=count)
        phi_s = phi[s.vec_indices0]
        gram, rhs = phi_s.T @ phi_s, phi_s.T @ values
        scale = np.sqrt(np.diag(gram))
        for helper, source in ((solvers._syrk_gram, fmap), (solvers._grouped_gram, pairing)):
            a, r = helper(source, s.row_indices0, s.col_indices0, values)
            error = np.abs(a - gram)[lower]
            assert np.all(error <= 1e-12 * np.outer(scale, scale)[lower]), (helper, count)
            assert np.all(np.abs(r - rhs) <= 1e-12 * scale * np.linalg.norm(values))
        # the grouped Gram is filled on both sides of the diagonal
        assert np.all(np.abs(a - gram) <= 1e-12 * np.outer(scale, scale))


@pytest.mark.parametrize("s, d, m, other, grouped", [
    (250_000, 50, 1, 1250, True),    # ridge-stations
    (10_000, 50, 1, 1250, True),     # the station grid at P_s = 1 %
    (625, 250, 41, 250, False),      # criterion 7 at P_s = 1 %
    (6250, 250, 41, 250, False),     # and at 10 %
    (6250, 50, 13, 250, False),      # 250 x 250 at d = 50
    (62_410, 50, 23, 790, False),    # 790 x 790 at d = 50
])
def test_ridge_gram_rule_picks_the_faster_path(s, d, m, other, grouped):
    # a map of d features whose row side has m basis columns (P = m (m +
    # 1) / 2 pairs: 1, 861, 91 and 276 above) and whose column side has d,
    # of length ``other``.  The paths' times (min-median of 10
    # interleaved, 2 cores), dsyrk -> grouped: 45-50 -> 4.0-4.3 ms,
    # 1.7-1.8 -> 0.56-0.61 ms, 1.4-1.7 -> 19-25 ms, 14-16 -> 45-54 ms,
    # 1.1-1.2 -> 3.8-4.5 ms, 12-15 -> 77-94 ms
    fmap = _factored_map(np.zeros((1, m)), np.arange(d) % m, np.zeros((other, d)),
                         np.arange(d), np.ones(d))
    pairing = solvers._pairing(fmap, s)
    assert (pairing is not None) is grouped
    if grouped:
        assert not pairing[0] and pairing[1].shape[1] == m


def test_rrmcex_grouped_fit_holds_no_s_by_d_array(peak_bytes):
    # at S = 40000, d = 50 and three row basis columns (6 pairs), Phi_S
    # would take 16 MB and an S x P array 1.92 MB; the grouped fit holds two
    # length-S buffers of 0.32 MB and one transient length-S array at a time
    rng = np.random.default_rng(49)
    kx = _kernel_with_spectrum(rng, [1e3, 0.9995e3, 0.999e3] + [1e-3] * 197)
    fmap = features_from_eig(kx, _kernel_with_spectrum(rng, rng.uniform(1, 1.1, 250)), 50)
    count = 40000
    on_cols, basis, _, _ = solvers._pairing(fmap, count)
    assert not on_cols and basis.shape[1] == 3
    obs = ObservationSet(uniform_sample(200, 250, count, seed=6), rng.normal(size=count))
    peak = peak_bytes(lambda: rrmcex_fit(fmap, obs, 1e-2))
    assert peak <= 4 * count * 8


FITS = {
    "kkmcex": lambda kk, fmap, obs, schedule: kkmcex_fit(kk, obs, 0.1),
    "rrmcex": lambda kk, fmap, obs, schedule: rrmcex_fit(fmap, obs, 0.1),
    "orrmcex": lambda kk, fmap, obs, schedule: orrmcex_run(fmap, obs, schedule, 0.1, 1),
    "als": lambda kk, fmap, obs, schedule: als_fit(obs, kk.kx, kk.ky, 2, 0.1),
    "factor_sgd": lambda kk, fmap, obs, schedule: factor_sgd_fit(obs, 2, 0.1, schedule,
                                                                 1, seed=0),
}


@pytest.mark.parametrize("method", list(FITS))
def test_every_fit_rejects_an_empty_sampling(method):
    # with no observation, four fits would return an all-zero estimate and
    # factor SGD its random initial factors
    rng = np.random.default_rng(46)
    kk = KroneckerKernel(make_spd_kernel(rng, 12), make_spd_kernel(rng, 10))
    fmap = features_from_eig(kk.kx, kk.ky, 6)
    empty = ObservationSet(SamplingSet(12, 10, ()), np.zeros(0))
    with pytest.raises(InvalidInputError, match=r"sampling is empty \(S = 0\)"):
        FITS[method](kk, fmap, empty, StepSchedule.constant(0.01))


@pytest.mark.parametrize("method", list(FITS))
def test_every_fit_names_a_non_finite_observation(method):
    # observation 4 of 8 is NaN; the message gives its 1-based position in
    # the sampling and its 1-based grid entry
    rng = np.random.default_rng(50)
    kk = KroneckerKernel(make_spd_kernel(rng, 12), make_spd_kernel(rng, 10))
    fmap = features_from_eig(kk.kx, kk.ky, 6)
    sampling = uniform_sample(12, 10, 8, seed=1)
    values = rng.normal(size=8)
    values[3] = np.nan
    entry = (sampling.row_indices0[3] + 1, sampling.col_indices0[3] + 1)
    with pytest.raises(InvalidInputError,
                       match=rf"observation 4, at grid entry \({entry[0]}, {entry[1]}\), is not"):
        FITS[method](kk, fmap, ObservationSet(sampling, values), StepSchedule.constant(0.01))


@pytest.mark.parametrize("method, step", [("orrmcex", 50.0), ("factor_sgd", 5.0)])
def test_a_diverging_sgd_fit_is_a_numerical_error(method, step):
    # at these constant steps both fits overflow to NaN within 5 epochs on
    # this grid, where the sweep returned NMSE nan and the overflow
    # warnings escaped; the online protocol evaluates the iterate every 7
    # updates, and each evaluation is checked first
    from kronmc.bench import ExperimentConfig, run_online, run_sweep
    dataset = generate_synthetic(20, 15, 0.2, 1.0, seed=3)
    config = ExperimentConfig(method, (40,), realizations=2, mu_grid=(0.1,), epochs=5,
                              schedule=StepSchedule.constant(step))
    message = rf"{method} diverged: the iterate after iteration \d+, step size {step:g}, "
    with pytest.raises(NumericalError, match=message + r"is not finite \(mu=0\.1, S=120\)"):
        run_sweep(config, dataset)
    with pytest.raises(NumericalError, match=message):
        run_online(config, dataset, stride=7)


def test_an_unallocatable_kkmcex_block_is_a_numerical_error(monkeypatch, tmp_path):
    from kronmc.cli import main

    def refuse(kernel, sampling):
        raise MemoryError(f"Unable to allocate an array of {len(sampling)}^2 floats")

    monkeypatch.setattr(solvers, "kron_submatrix", refuse)
    rng = np.random.default_rng(47)
    kk, _, obs = random_problem(rng, 6, 5, 12, mu=0.1)
    with pytest.raises(NumericalError, match=r"1152 bytes .*mu=0\.1, S=12"):
        kkmcex_fit(kk, obs, 0.1)
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("synth = 1\nn = 12\nl = 10\n")
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 "--method", "kkmcex", "--ps", "10", "--mu", "1e-4"]) == 2
    assert not (tmp_path / "x.pred.csv").exists()


def test_fits_reject_a_sampling_of_another_grid():
    # a 3 x 4 sampling on a 4 x 3 model indexes valid but wrong entries
    rng = np.random.default_rng(45)
    fmap = FeatureMap(rng.normal(size=(4, 2)), rng.normal(size=(3, 2)))
    obs = ObservationSet(uniform_sample(3, 4, 5, seed=1), rng.normal(size=5))
    kk = KroneckerKernel(make_spd_kernel(rng, 4), make_spd_kernel(rng, 3))
    with pytest.raises(InvalidInputError, match="grid"):
        kkmcex_fit(kk, obs, 0.1)
    with pytest.raises(InvalidInputError, match="grid"):
        rrmcex_fit(fmap, obs, 0.1)
    with pytest.raises(InvalidInputError, match="grid"):
        orrmcex_run(fmap, obs, StepSchedule.constant(0.01), 0.1, 1)
