import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kronmc import (Bandlimited, Diffusion, FeatureMap, Graph, InvalidInputError,
                    KernelMatrix, KroneckerKernel, RegularizedLaplacian,
                    build_laplacian, erdos_renyi, features_from_eig,
                    features_from_svd, gaussian_kernel, kron_submatrix,
                    linear_kernel, pearson_kernel, SamplingSet, spectral_kernel,
                    uniform_sample)

from helpers import dense_kron, kron_entry, make_spd_kernel


def path_laplacian(n):
    adj = np.zeros((n, n))
    idx = np.arange(n - 1)
    adj[idx, idx + 1] = adj[idx + 1, idx] = 1.0
    return build_laplacian(Graph(adj))


def test_kernel_matrix_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError, match=r"\(1, 1\)"):
            KernelMatrix(np.array([[bad, 0.0], [0.0, 1.0]]))
        k = np.eye(3)
        k[2, 1] = k[1, 2] = bad
        with pytest.raises(InvalidInputError, match=r"\(2, 3\)"):
            KernelMatrix(k)


def test_kernel_matrix_rejects_non_psd():
    with pytest.raises(InvalidInputError):
        KernelMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
    with pytest.raises(InvalidInputError):
        KernelMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric


def test_spectral_kernel_empty_graph_diffusion_is_identity():
    lap = build_laplacian(Graph(np.zeros((4, 4))))
    for eta in (0.5, 1.0, 3.0):
        k = spectral_kernel(lap, Diffusion(eta))
        assert np.allclose(k.matrix, np.eye(4), atol=1e-12)


def test_spectral_kernel_two_node_diffusion_closed_form():
    lap = path_laplacian(2)
    k = spectral_kernel(lap, Diffusion(1.0))
    q = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    expected = q @ np.diag([1.0, np.exp(-2.0)]) @ q.T
    assert np.allclose(k.matrix, expected, atol=1e-12)


def test_regularized_laplacian_weights():
    lap = path_laplacian(4)
    k = spectral_kernel(lap, RegularizedLaplacian(2.0))
    evals, q = np.linalg.eigh(lap.matrix)
    expected = (q / (1.0 + 2.0 * evals)) @ q.T
    assert np.allclose(k.matrix, expected, atol=1e-12)


def test_bandlimited_kernel_is_rank_one_projector():
    lap = path_laplacian(5)
    k = spectral_kernel(lap, Bandlimited({1}))
    evals = np.linalg.eigvalsh(k.matrix)
    # eigen oracle: exactly one unit eigenvalue
    assert np.sum(evals > 1e-8) == 1
    assert abs(evals[-1] - 1.0) <= 1e-10
    evecs = np.linalg.eigh(lap.matrix)[1]
    q1 = evecs[:, 0]
    assert np.allclose(k.matrix, np.outer(q1, q1), atol=1e-10)


def test_bandlimited_validation():
    with pytest.raises(InvalidInputError):
        Bandlimited(set())
    with pytest.raises(InvalidInputError):
        Bandlimited({0})
    lap = path_laplacian(3)
    with pytest.raises(InvalidInputError):
        spectral_kernel(lap, Bandlimited({4}))


def test_weighting_validation():
    with pytest.raises(InvalidInputError):
        Diffusion(0.0)
    with pytest.raises(InvalidInputError):
        RegularizedLaplacian(-1.0)


def test_spectral_kernel_carries_its_laplacian_spectrum():
    lap = build_laplacian(erdos_renyi(12, 0.3, seed=2))
    for weighting in (Diffusion(0.7), RegularizedLaplacian(2.0), Bandlimited({1, 3})):
        k = spectral_kernel(lap, weighting)
        w, q = k._spectrum
        assert q is lap.spectrum[1]
        assert np.array_equal(w, weighting.inverse_weights(lap.spectrum[0]))
        assert np.abs((q * w) @ q.T - k.matrix).max() <= 1e-12
        assert k._top_eigenvalue == w.max()


def test_kernel_matrix_psd_check_reads_the_carried_spectrum():
    with pytest.raises(InvalidInputError, match=r"min eigenvalue -0\.5"):
        KernelMatrix(np.eye(2), _spectrum=(np.array([1.0, -0.5]), np.eye(2)))


def test_non_spectral_kernels_are_decomposed_by_check_and_features(eig_calls):
    # a Pearson kernel and a kernel read from a CSV carry no spectrum: the PSD
    # check runs one eigvalsh per side and features_from_eig one eigh per side
    rng = np.random.default_rng(4)
    kx = pearson_kernel(rng.normal(size=(6, 4)))
    ky = KernelMatrix(np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]))
    assert eig_calls == {"eigh": 0, "eigvalsh": 2}
    assert ky._top_eigenvalue == pytest.approx(2.0 + np.sqrt(2.0), rel=1e-14)
    features_from_eig(kx, ky, 5)
    assert eig_calls == {"eigh": 2, "eigvalsh": 2}


def test_linear_kernel_examples():
    assert np.array_equal(linear_kernel(np.eye(4)).matrix, np.eye(4))
    ones = np.ones((3, 1))
    assert np.array_equal(linear_kernel(ones).matrix, np.ones((3, 3)))
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 3))
    k = linear_kernel(x)
    oracle = np.array([[x[i] @ x[j] for j in range(5)] for i in range(5)])
    assert np.allclose(k.matrix, oracle, atol=1e-12)
    assert np.linalg.eigvalsh(k.matrix)[0] >= -1e-8


def test_gaussian_kernel_examples():
    x = np.tile(np.array([1.0, 2.0]), (3, 1))
    assert np.allclose(gaussian_kernel(x, 1.0).matrix, np.ones((3, 3)))
    rng = np.random.default_rng(1)
    y = rng.normal(size=(4, 2))
    assert np.allclose(gaussian_kernel(y, 1e12).matrix, np.ones((4, 4)), atol=1e-9)
    k = gaussian_kernel(y[:3], 1.0)
    oracle = np.array([[np.exp(-np.sum((y[i] - y[j]) ** 2) / 2.0) for j in range(3)]
                       for i in range(3)])
    assert np.allclose(k.matrix, oracle, atol=1e-12)
    with pytest.raises(InvalidInputError):
        gaussian_kernel(y, 0.0)


def test_pearson_kernel_examples():
    rng = np.random.default_rng(2)
    base = rng.normal(size=10)
    x = np.vstack([base, 2.0 * base + 3.0, -base + 1.0])
    k = pearson_kernel(x).matrix
    assert abs(k[0, 1] - 1.0) <= 1e-12  # affine dependence
    assert abs(k[0, 2] + 1.0) <= 1e-12  # sign flip after centering
    assert np.allclose(np.diag(k), 1.0)

    binary = (rng.random((6, 10)) > 0.5).astype(float)
    k2 = pearson_kernel(binary).matrix
    oracle = np.corrcoef(binary)
    assert np.max(np.abs(k2 - oracle)) <= 1e-12

    with pytest.raises(InvalidInputError, match="constant"):
        pearson_kernel(np.vstack([base, np.ones(10)]))


def test_kron_entry_identity_factors():
    kk = KroneckerKernel(KernelMatrix(np.eye(2)), KernelMatrix(np.eye(2)))
    assert kron_entry(kk, 1, 1) == 1.0
    assert kron_entry(kk, 1, 2) == 0.0
    with pytest.raises(InvalidInputError):
        kron_entry(kk, 0, 1)
    with pytest.raises(InvalidInputError):
        kron_entry(kk, 1, 5)


@pytest.mark.parametrize("n,l", [(n, l) for n in range(1, 5) for l in range(1, 5)])
def test_kron_entry_matches_dense_oracle_exhaustively(n, l):
    rng = np.random.default_rng(n * 10 + l)
    kk = KroneckerKernel(make_spd_kernel(rng, n), make_spd_kernel(rng, l))
    dense = dense_kron(kk)
    nl = n * l
    for a in range(nl):
        for b in range(nl):
            assert abs(kron_entry(kk, a + 1, b + 1) - dense[a, b]) <= 1e-12


def test_kron_entry_symmetry():
    rng = np.random.default_rng(5)
    kk = KroneckerKernel(make_spd_kernel(rng, 3), make_spd_kernel(rng, 3))
    assert kron_entry(kk, 3, 7) == pytest.approx(kron_entry(kk, 7, 3), abs=1e-14)


def test_kron_submatrix_examples():
    rng = np.random.default_rng(6)
    kk = KroneckerKernel(make_spd_kernel(rng, 3), make_spd_kernel(rng, 2))
    # singleton
    s1 = uniform_sample(3, 2, 1, seed=1)
    (i, j), = s1.entries
    g1 = kron_submatrix(kk, s1)
    assert g1.shape == (1, 1)
    assert g1[0, 0] == pytest.approx(
        kk.kx.matrix[i - 1, i - 1] * kk.ky.matrix[j - 1, j - 1], abs=1e-14)
    # full sampling in vectorization order equals the dense product
    from kronmc import SamplingSet
    full = SamplingSet(3, 2, tuple((i, j) for j in range(1, 3) for i in range(1, 4)))
    assert np.allclose(kron_submatrix(kk, full), dense_kron(kk), atol=1e-12)
    # PSD for arbitrary sampling on PSD factors
    s = uniform_sample(3, 2, 4, seed=3)
    g = kron_submatrix(kk, s)
    eigs = np.linalg.eigvalsh(g)
    assert eigs[0] >= -1e-8 * max(1.0, eigs[-1])


def test_kron_submatrix_row_blocks_match_ix_gather():
    from kronmc import kernels
    rng = np.random.default_rng(12)
    n, l, count = 60, 50, 2500
    kk = KroneckerKernel(make_spd_kernel(rng, n), make_spd_kernel(rng, l))
    s = uniform_sample(n, l, count, seed=13)
    step = kernels.GATHER_BLOCK_BYTES // (8 * count)
    assert 1 < step < count and count % step != 0  # several blocks, ragged last
    rows, cols = s.row_indices0, s.col_indices0
    ref = kk.kx.matrix[np.ix_(rows, rows)] * kk.ky.matrix[np.ix_(cols, cols)]
    g = kron_submatrix(kk, s)
    assert g.flags.c_contiguous
    assert np.array_equal(g, ref)
    assert np.array_equal(g, g.T)


@st.composite
def kron_cases(draw):
    """(kernel, sampling): random PSD factors on an N x L grid and a
    sampling of it in arbitrary order."""
    n, l = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entries = st.floats(-2.0, 2.0, allow_nan=False)
    bx = draw(arrays(float, (n, n), elements=entries))
    by = draw(arrays(float, (l, l), elements=entries))
    vec = draw(st.lists(st.integers(0, n * l - 1), unique=True, max_size=n * l))
    sampling = SamplingSet(n, l, [(v % n + 1, v // n + 1) for v in vec])
    return KroneckerKernel(KernelMatrix(bx @ bx.T), KernelMatrix(by @ by.T)), sampling


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kron_cases())
def test_kron_submatrix_is_the_dense_product_at_the_sample(case):
    kk, sampling = case
    v = sampling.vec_indices0
    g = kron_submatrix(kk, sampling)
    assert g.shape == (len(v), len(v))
    assert np.array_equal(g, dense_kron(kk)[np.ix_(v, v)])


def test_features_from_eig_diagonal_example():
    kx = KernelMatrix(np.diag([1.0, 2.0]))
    ky = KernelMatrix(np.diag([3.0, 4.0]))
    fm = features_from_eig(kx, ky, 2)
    gram = fm.phi @ fm.phi.T
    # oracle: products in vec order are (3, 6, 4, 8); keeping {8, 6} zeroes
    # vec positions 1 and 3
    assert np.allclose(gram, np.diag([0.0, 6.0, 0.0, 8.0]), atol=1e-12)


def test_features_from_eig_full_rank_reconstructs_kernel():
    rng = np.random.default_rng(8)
    kk = KroneckerKernel(make_spd_kernel(rng, 4), make_spd_kernel(rng, 3))
    fm = features_from_eig(kk.kx, kk.ky, 12)
    dense = dense_kron(kk)
    err = np.linalg.norm(fm.phi @ fm.phi.T - dense) / np.linalg.norm(dense)
    assert err <= 1e-8
    with pytest.raises(InvalidInputError):
        features_from_eig(kk.kx, kk.ky, 13)


def test_features_from_eig_deterministic_under_ties():
    kx = KernelMatrix(np.eye(3))
    ky = KernelMatrix(np.eye(2))
    a = features_from_eig(kx, ky, 3).phi
    b = features_from_eig(kx, ky, 3).phi
    assert np.array_equal(a, b)
    gram = a @ a.T
    # identical products tie-break toward the smallest composite vec index
    assert np.allclose(gram, np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]), atol=1e-12)


def test_features_from_svd_orthonormal_columns():
    q1 = np.linalg.qr(np.random.default_rng(9).normal(size=(5, 2)))[0]
    q2 = np.linalg.qr(np.random.default_rng(10).normal(size=(4, 2)))[0]
    fm = features_from_svd(q1, q2, 4)
    assert np.allclose(fm.phi.T @ fm.phi, np.eye(4), atol=1e-10)


def test_features_from_svd_full_reconstruction():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 2))
    y = rng.normal(size=(2, 2))
    fm = features_from_svd(x, y, 4)
    target = np.kron(y, x) @ np.kron(y, x).T
    err = np.linalg.norm(fm.phi @ fm.phi.T - target) / np.linalg.norm(target)
    assert err <= 1e-8


def test_features_from_svd_rank_deficient_gives_zero_columns():
    rng = np.random.default_rng(12)
    x = np.outer(rng.normal(size=4), rng.normal(size=2))  # rank 1
    y = np.outer(rng.normal(size=3), rng.normal(size=2))  # rank 1
    fm = features_from_svd(x, y, 3)
    norms = np.linalg.norm(fm.phi, axis=0)
    assert norms[0] > 0
    assert np.allclose(norms[1:], 0.0, atol=1e-10)
    with pytest.raises(InvalidInputError):
        features_from_svd(x, y, 5)  # d > tx * ty


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_features_from_svd_names_a_non_finite_feature(value):
    x, y = np.ones((3, 2)), np.ones((4, 2))
    y[2, 1] = value
    with pytest.raises(InvalidInputError,
                       match=r"column feature matrix entry \(3, 2\) is not finite"):
        features_from_svd(x, y, 2)


@pytest.mark.parametrize("n,l", [(2, 3), (4, 4), (3, 5)])
def test_kron_spectrum_is_product_of_factor_spectra(n, l):
    rng = np.random.default_rng(100 + n + l)
    kk = KroneckerKernel(make_spd_kernel(rng, n), make_spd_kernel(rng, l))
    ex = np.linalg.eigvalsh(kk.kx.matrix)
    ey = np.linalg.eigvalsh(kk.ky.matrix)
    products = np.sort(np.outer(ey, ex).ravel())
    dense_eigs = np.sort(np.linalg.eigvalsh(dense_kron(kk)))
    assert np.max(np.abs(products - dense_eigs)) <= 1e-8


def test_feature_map_holds_validated_factors():
    rng = np.random.default_rng(14)
    x, y = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
    fm = FeatureMap(x, y, "random")
    assert (fm.n_rows, fm.n_cols, fm.dim) == (3, 4, 2)
    # row (j - 1) * N + i of the dense table is the feature row of entry (i, j)
    assert np.array_equal(fm.phi[2 * 3 + 1], fm.row(2, 3))
    assert np.array_equal(fm.row(2, 3), x[1] * y[2])
    for i, j in ((0, 1), (4, 1), (1, 5)):
        with pytest.raises(InvalidInputError, match="outside"):
            fm.row(i, j)
    inf_x = x.copy()
    inf_x[2, 1] = np.inf
    for bad_x, bad_y, message in ((x[0], y, "2-D"), (x, y[:, :1], "disagree"),
                                  (inf_x, y, r"row feature factor entry \(3, 2\) is not finite"),
                                  (x, np.full((4, 2), np.nan),
                                   r"column feature factor entry \(1, 1\) is not finite")):
        with pytest.raises(InvalidInputError, match=message):
            FeatureMap(bad_x, bad_y, "bad")
