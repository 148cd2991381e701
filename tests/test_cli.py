import contextlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kronmc import (KernelMatrix, KroneckerKernel, bench, factor_predict,
                    features_from_eig, kkmcex_fit, kkmcex_predict, load_factor_model,
                    load_kkmcex_model, load_matrix_csv, load_rrmcex_model, observe,
                    rrmcex_predict, uniform_sample)
from kronmc.cli import UsageError, _load_dataset, main, parse_args, parse_config


def run_kronmc(*args):
    """``python -m kronmc args`` in a fresh process, on this checkout's source."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-m", "kronmc", *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_parse_args_sweep_invocation():
    ns = parse_args(["sweep", "--config", "c.cfg", "--out", "r.csv"])
    assert ns.subcommand == "sweep"
    assert ns.config == "c.cfg"
    assert ns.out == "r.csv"


def test_parse_args_missing_required_flag():
    with pytest.raises(UsageError, match="--config"):
        parse_args(["sweep", "--out", "r.csv"])


def test_parse_args_bad_seed_names_flag():
    with pytest.raises(UsageError, match="--seed"):
        parse_args(["synth", "--out", "x", "--seed", "abc"])


def test_parse_args_requires_subcommand():
    with pytest.raises(UsageError, match="subcommand"):
        parse_args([])


def test_parse_args_unknown_flag():
    with pytest.raises(UsageError, match="--bogus"):
        parse_args(["synth", "--out", "x", "--bogus", "1"])


def test_main_maps_usage_error_to_exit_1(capsys):
    assert main(["sweep"]) == 1
    assert "error" in capsys.readouterr().err


def test_parse_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\nn = 10\nmethod=kkmcex\n\nmu = 1e-3,1\n")
    parsed = parse_config(cfg)
    assert parsed == {"n": "10", "method": "kkmcex", "mu": "1e-3,1"}


@pytest.fixture
def synth_dataset(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("n = 10\nl = 10\ngraph_p = 0.3\n")
    out = tmp_path / "data"
    status = main(["synth", "--config", str(cfg), "--out", str(out), "--seed", "4"])
    assert status == 0
    return tmp_path, out


def test_synth_fit_verify_end_to_end(synth_dataset, capsys):
    tmp_path, out = synth_dataset
    for suffix in (".f.csv", ".kx.csv", ".ky.csv"):
        path = out.parent / (out.name + suffix)
        assert path.exists() and path.stat().st_size > 0

    fit_cfg = tmp_path / "fit.cfg"
    fit_cfg.write_text(
        f"f = {out}.f.csv\nkx = {out}.kx.csv\nky = {out}.ky.csv\n")
    pred_out = tmp_path / "run"
    status = main(["fit", "--config", str(fit_cfg), "--out", str(pred_out),
                   "--method", "kkmcex", "--mu", "1e-8", "--ps", "100",
                   "--seed", "1"])
    assert status == 0
    pred = load_matrix_csv(f"{pred_out}.pred.csv")
    truth = load_matrix_csv(f"{out}.f.csv")
    assert np.linalg.norm(pred - truth) / np.linalg.norm(truth) <= 1e-5
    assert (tmp_path / "run.model.csv").stat().st_size > 0

    status = main(["verify", "--seed", "0", "--out", str(tmp_path / "report.csv")])
    assert status == 0
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert report[0] == "instance,bias_sq,variance,empirical_mse,bound,margin"
    assert len(report) > 1
    for line in report[1:]:
        assert all(field == "" or np.isfinite(float(field)) for field in line.split(","))
    assert "verify: PASS" in capsys.readouterr().out


def test_fit_rejects_nonpositive_mu(synth_dataset, capsys):
    tmp_path, out = synth_dataset
    fit_cfg = tmp_path / "fit.cfg"
    fit_cfg.write_text(
        f"f = {out}.f.csv\nkx = {out}.kx.csv\nky = {out}.ky.csv\n")
    status = main(["fit", "--config", str(fit_cfg), "--out", str(tmp_path / "x"),
                   "--method", "kkmcex", "--mu", "0"])
    assert status == 1
    assert "--mu" in capsys.readouterr().err


def test_fit_rejects_non_finite_mu(synth_dataset, capsys):
    tmp_path, out = synth_dataset
    fit_cfg = tmp_path / "fit.cfg"
    fit_cfg.write_text(
        f"f = {out}.f.csv\nkx = {out}.kx.csv\nky = {out}.ky.csv\n")
    for mu in ("nan", "inf"):
        status = main(["fit", "--config", str(fit_cfg), "--out", str(tmp_path / "x"),
                       "--method", "kkmcex", "--mu", mu])
        assert status == 1
        assert "--mu" in capsys.readouterr().err
    assert not (tmp_path / "x.pred.csv").exists()


def test_fit_fits_once_and_predicts_from_the_saved_model(synth_dataset, monkeypatch):
    from kronmc import KernelMatrix, KroneckerKernel, bench, load_kkmcex_model
    from kronmc.solvers import kkmcex_predict

    tmp_path, out = synth_dataset
    fit_cfg = tmp_path / "fit.cfg"
    fit_cfg.write_text(
        f"f = {out}.f.csv\nkx = {out}.kx.csv\nky = {out}.ky.csv\n")
    calls = []
    fit = bench.kkmcex_fit

    def counted_fit(*args):
        calls.append(args)
        return fit(*args)

    monkeypatch.setattr(bench, "kkmcex_fit", counted_fit)
    status = main(["fit", "--config", str(fit_cfg), "--out", str(tmp_path / "once"),
                   "--method", "kkmcex", "--mu", "1e-3", "--ps", "30", "--seed", "2"])
    assert status == 0
    assert len(calls) == 1
    kernel = KroneckerKernel(KernelMatrix(load_matrix_csv(f"{out}.kx.csv")),
                             KernelMatrix(load_matrix_csv(f"{out}.ky.csv")))
    model = load_kkmcex_model(tmp_path / "once.model.csv", kernel)
    assert np.array_equal(load_matrix_csv(tmp_path / "once.pred.csv"),
                          kkmcex_predict(model))


def test_synth_outputs_are_byte_identical(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = 8\nl = 8\ngraph_p = 0.3\n")
    for name in ("a", "b"):
        assert main(["synth", "--config", str(cfg), "--out",
                     str(tmp_path / name), "--seed", "7"]) == 0
    for suffix in (".f.csv", ".kx.csv", ".ky.csv"):
        a = (tmp_path / ("a" + suffix)).read_bytes()
        b = (tmp_path / ("b" + suffix)).read_bytes()
        assert a == b


def test_sweep_csv_deterministic_modulo_seconds(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("synth = 1\nn = 10\nl = 10\ngraph_p = 0.3\n"
                   "method = kkmcex\nps = 20,50\nrealizations = 2\nmu = 1e-6\n")
    outs = []
    for name in ("r1.csv", "r2.csv"):
        assert main(["sweep", "--config", str(cfg), "--out",
                     str(tmp_path / name), "--seed", "3"]) == 0
        lines = (tmp_path / name).read_text().splitlines()
        masked = [",".join(f for k, f in enumerate(line.split(",")) if k != 4)
                  for line in lines]
        outs.append(masked)
    assert outs[0] == outs[1]
    assert len(outs[0]) == 1 + 4


def test_gridsearch_cli(tmp_path):
    cfg = tmp_path / "gs.cfg"
    cfg.write_text("synth = 1\nn = 10\nl = 10\ngraph_p = 0.3\n"
                   "method = kkmcex\nps = 50\nmu = 1e-8,1.0,1e6\nsnr = 1\n")
    out = tmp_path / "best.csv"
    assert main(["gridsearch", "--config", str(cfg), "--out", str(out),
                 "--seed", "2"]) == 0
    header, row = out.read_text().strip().splitlines()
    assert header == "mu,eta"
    a = out.read_bytes()
    assert main(["gridsearch", "--config", str(cfg), "--out", str(out),
                 "--seed", "2"]) == 0
    assert out.read_bytes() == a


@pytest.mark.parametrize("method, step", [("orrmcex", 50), ("factor_sgd", 5)])
@pytest.mark.parametrize("subcommand", ["sweep", "online", "fit"])
def test_a_diverging_sgd_fit_exits_2(tmp_path, capsys, subcommand, method, step):
    # constant steps at which both SGD fits overflow to NaN within 5 epochs
    cfg = tmp_path / "c.cfg"
    cfg.write_text("synth = 1\nn = 20\nl = 15\ngraph_p = 0.2\nps = 40\nmu = 0.1\n"
                   f"epochs = 5\nstep_rule = constant\nstep_c = {step}\n")
    flags = ["--ps", "40", "--mu", "0.1"] if subcommand == "fit" else []
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "x"),
                 "--method", method, "--seed", "3", *flags]) == 2
    assert f"numerical error: {method} diverged" in capsys.readouterr().err
    assert not any(tmp_path.glob("x*"))


def test_an_overflowing_als_fit_exits_2(tmp_path, capsys):
    # no noise: the snr target rejects an overflowing sum(f**2) first
    for name, matrix in (("f", np.full((4, 3), 1e200)), ("kx", np.eye(4)), ("ky", np.eye(3))):
        np.savetxt(tmp_path / f"{name}.csv", matrix, delimiter=",")
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("".join(f"{name} = {tmp_path / name}.csv\n" for name in ("f", "kx", "ky")))
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "x"), "--method", "als",
                 "--ps", "50", "--mu", "0.1", "--rank", "2"]) == 2
    assert "numerical error: positive-definite solve failed" in capsys.readouterr().err
    assert not any(tmp_path.glob("x*"))


def test_online_cli_trace(tmp_path):
    cfg = tmp_path / "online.cfg"
    cfg.write_text("synth = 1\nn = 8\nl = 8\ngraph_p = 0.3\n"
                   "method = orrmcex\nps = 50\nmu = 1e-6\ndim = 16\n"
                   "step_rule = decay\nstep_c = 1.0\nstep_n0 = 20\n")
    out = tmp_path / "trace.csv"
    assert main(["online", "--config", str(cfg), "--out", str(out),
                 "--epochs", "3", "--stride", "16", "--seed", "1"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iteration,seconds,nmse"
    assert len(lines) == 1 + 3 * 32 // 16


def test_cli_writes_only_declared_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = 6\nl = 6\ngraph_p = 0.3\n")
    before = set(p.name for p in tmp_path.iterdir())
    assert main(["synth", "--config", str(cfg), "--out", "ds", "--seed", "0"]) == 0
    after = set(p.name for p in tmp_path.iterdir())
    assert after - before == {"ds.f.csv", "ds.kx.csv", "ds.ky.csv"}


def test_fit_rejects_non_integer_index_field_without_traceback(synth_dataset):
    tmp_path, out = synth_dataset
    obs = tmp_path / "obs.csv"
    obs.write_text("1,1,0.5\n2,two,0.25\n")
    fit_cfg = tmp_path / "fit.cfg"
    fit_cfg.write_text(f"f = {out}.f.csv\nkx = {out}.kx.csv\n"
                       f"ky = {out}.ky.csv\nobs = {obs}\n")
    result = run_kronmc("fit", "--config", fit_cfg, "--out", tmp_path / "x",
                        "--method", "kkmcex", "--mu", "1e-3")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert f"{obs}: line 2" in result.stderr
    assert not (tmp_path / "x.pred.csv").exists()


@pytest.mark.parametrize("subcommand,text,key", [
    ("synth", "n = abc\n", "n"),
    ("synth", "graph_p = high\n", "graph_p"),
    ("sweep", "synth = 1\nmethod = kkmcex\nps = ten\n", "ps"),
    ("sweep", "synth = 1\nmethod = kkmcex\nrealizations = 2.5\n", "realizations"),
    ("sweep", "synth = 1\nmethod = kkmcex\nsnr = loud\n", "snr"),
    ("online", "synth = 1\nmethod = orrmcex\nstep_c = big\n", "step_c"),
])
def test_malformed_numeric_config_key_is_named_without_traceback(tmp_path, subcommand,
                                                                 text, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    result = run_kronmc(subcommand, "--config", cfg, "--out", tmp_path / "x")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert f"config key {key!r}" in result.stderr


@pytest.mark.parametrize("subcommand,flags,name", [
    ("online", ["--stride", "0"], "stride"),
    ("online", ["--epochs", "-1"], "epochs"),
    ("online", ["--rank", "0"], "rank"),
    ("online", ["--dim", "0"], "feature_dim"),
    ("fit", ["--ps", "200", "--mu", "1e-3"], "ps"),
])
def test_out_of_range_flag_is_named_without_traceback(tmp_path, subcommand, flags, name):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("synth = 1\nmethod = factor_sgd\n")
    result = run_kronmc(subcommand, "--config", cfg, "--out", tmp_path / "x", *flags)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert f"{name} must" in result.stderr
    assert not any(tmp_path.glob("x*"))


@pytest.mark.parametrize("method", bench.METHODS)
def test_fit_prediction_equals_the_reloaded_models_prediction(synth_dataset, method):
    tmp_path, out = synth_dataset
    fit_cfg = tmp_path / "fit.cfg"
    fit_cfg.write_text(f"f = {out}.f.csv\nkx = {out}.kx.csv\nky = {out}.ky.csv\n"
                       "rank = 2\ndim = 6\nepochs = 3\n")
    assert main(["fit", "--config", str(fit_cfg), "--out", str(tmp_path / "m"),
                 "--method", method, "--mu", "1e-2", "--ps", "40", "--seed", "5"]) == 0
    kx, ky = (KernelMatrix(load_matrix_csv(f"{out}.{side}.csv")) for side in ("kx", "ky"))
    path = tmp_path / "m.model.csv"
    if method == "kkmcex":
        pred = kkmcex_predict(load_kkmcex_model(path, KroneckerKernel(kx, ky)))
    elif method in ("rrmcex", "orrmcex"):
        pred = rrmcex_predict(load_rrmcex_model(path, features_from_eig(kx, ky, 6)))
    else:
        pred = factor_predict(load_factor_model(path))
    assert np.array_equal(load_matrix_csv(tmp_path / "m.pred.csv"), pred)


def test_readme_session_runs_on_csv_kernels(tmp_path, monkeypatch):
    # the README's typical session: CSV kernels carry no kernel builder, so
    # the sweep and the grid search run them on the default one-point eta grid
    monkeypatch.chdir(tmp_path)
    (tmp_path / "synth.cfg").write_text("n = 40\nl = 40\ngraph_p = 0.18\n")
    assert main(["synth", "--config", "synth.cfg", "--out", "data", "--seed", "7"]) == 0
    sweep_cfg = ("f = data.f.csv\nkx = data.kx.csv\nky = data.ky.csv\nmethod = kkmcex\n"
                 "ps = 10,25,50\nrealizations = 5\nmu = 1e-6,1e-4,1e-2\nsnr = 4\n")
    (tmp_path / "sweep.cfg").write_text(sweep_cfg)
    assert main(["sweep", "--config", "sweep.cfg", "--out", "results.csv",
                 "--seed", "0"]) == 0
    assert len((tmp_path / "results.csv").read_text().splitlines()) == 1 + 3 * 5
    assert main(["gridsearch", "--config", "sweep.cfg", "--out", "best.csv",
                 "--seed", "0"]) == 0
    assert (tmp_path / "best.csv").read_text().splitlines()[0] == "mu,eta"
    (tmp_path / "eta.cfg").write_text(sweep_cfg + "eta = 0.5,1\n")
    result = run_kronmc("sweep", "--config", "eta.cfg", "--out", "eta.csv")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "eta: the dataset has no kernel builder" in result.stderr


def test_non_finite_data_entry_is_named_without_traceback(synth_dataset):
    tmp_path, out = synth_dataset
    f = load_matrix_csv(f"{out}.f.csv")
    f[3, 6] = np.nan
    bench.save_matrix_csv(tmp_path / "bad.f.csv", f)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"f = {tmp_path / 'bad.f.csv'}\nkx = {out}.kx.csv\n"
                   f"ky = {out}.ky.csv\nmethod = kkmcex\nps = 20\n")
    result = run_kronmc("sweep", "--config", cfg, "--out", tmp_path / "r.csv")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "data matrix entry (4, 7) is not finite" in result.stderr
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("subcommand,flags,protocol", [
    ("online", [], "the online protocol"),
    ("fit", ["--mu", "1e-3"], "fit"),
], ids=["online", "fit"])
def test_grid_of_several_points_is_named_without_traceback(tmp_path, subcommand, flags,
                                                           protocol):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("synth = 1\nmethod = orrmcex\nps = 10,50\nmu = 1e-3,1e2\n")
    result = run_kronmc(subcommand, "--config", cfg, "--out", tmp_path / "t", *flags)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert f"ps: {protocol} runs one grid point" in result.stderr
    assert not any(tmp_path.glob("t*"))


def test_fit_builds_the_kernels_at_the_eta_flag(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("synth = 1\nn = 12\nl = 10\ngraph_p = 0.3\n")
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "m"),
                 "--method", "kkmcex", "--mu", "1e-2", "--ps", "30", "--eta", "3",
                 "--seed", "1"]) == 0
    # the flag sets the eta of the data as well as that of the fit kernels
    ds = bench.generate_synthetic(12, 10, 0.3, 3.0, 1)
    obs = observe(ds.f, uniform_sample(12, 10, 36, 1))
    model = kkmcex_fit(KroneckerKernel(*ds.kernel_builder(3.0)), obs, 1e-2)
    assert np.array_equal(load_matrix_csv(tmp_path / "m.pred.csv"),
                          kkmcex_predict(model))


@pytest.mark.parametrize("subcommand", ["fit", "sweep"])
def test_eta_flag_and_eta_key_write_the_same_bytes(tmp_path, subcommand):
    base = "synth = 1\nn = 12\nl = 10\ngraph_p = 0.3\nmethod = kkmcex\n"
    flag_cfg, key_cfg = tmp_path / "flag.cfg", tmp_path / "key.cfg"
    flag_cfg.write_text(base)
    key_cfg.write_text(base + "eta = 3\n")
    args = ["--mu", "1e-2", "--ps", "30", "--seed", "1"]
    with_flag, with_key = tmp_path / "flag", tmp_path / "key"
    assert main([subcommand, "--config", str(flag_cfg), "--out", str(with_flag),
                 "--eta", "3", *args]) == 0
    assert main([subcommand, "--config", str(key_cfg), "--out", str(with_key), *args]) == 0
    if subcommand == "fit":
        for suffix in (".pred.csv", ".model.csv"):
            assert ((tmp_path / f"flag{suffix}").read_bytes()
                    == (tmp_path / f"key{suffix}").read_bytes())
    else:
        # the sweep rows differ only in their seconds column
        rows = [[line.split(",") for line in path.read_text().splitlines()]
                for path in (with_flag, with_key)]
        seconds = rows[0][0].index("seconds")
        for a, b in zip(*rows, strict=True):
            assert a[:seconds] + a[seconds + 1:] == b[:seconds] + b[seconds + 1:]


def test_fit_overflowing_kernels_exit_2_naming_mu_s_and_kappa(tmp_path):
    # finite kernels whose Kronecker product overflows
    for key, matrix in (("f", np.ones((4, 4))), ("kx", 1e200 * np.eye(4)),
                        ("ky", 1e200 * np.eye(4))):
        bench.save_matrix_csv(tmp_path / f"{key}.csv", matrix)
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("".join(f"{key} = {tmp_path / key}.csv\n" for key in ("f", "kx", "ky")))
    result = run_kronmc("fit", "--config", cfg, "--out", tmp_path / "x",
                        "--method", "kkmcex", "--ps", "50", "--mu", "1e-2")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "mu=0.01, S=8, condition bound inf" in result.stderr
    assert not (tmp_path / "x.pred.csv").exists()


def test_fit_names_the_line_of_a_non_finite_observation(synth_dataset):
    tmp_path, out = synth_dataset
    obs = tmp_path / "obs.csv"
    obs.write_text("1,1,0.5\n2,3,nan\n")
    fit_cfg = tmp_path / "fit.cfg"
    fit_cfg.write_text(f"f = {out}.f.csv\nkx = {out}.kx.csv\n"
                       f"ky = {out}.ky.csv\nobs = {obs}\n")
    result = run_kronmc("fit", "--config", fit_cfg, "--out", tmp_path / "x",
                        "--method", "kkmcex", "--mu", "1e-3")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert f"{obs}: line 2: value 'nan' is not finite" in result.stderr
    assert not (tmp_path / "x.pred.csv").exists()


def test_fit_draws_its_noise_from_the_seed(synth_dataset, monkeypatch):
    tmp_path, out = synth_dataset
    fit_cfg = tmp_path / "fit.cfg"
    fit_cfg.write_text(f"f = {out}.f.csv\nkx = {out}.kx.csv\nky = {out}.ky.csv\n"
                       "nu_sq = 0.25\n")
    f = load_matrix_csv(f"{out}.f.csv")
    fit = bench.kkmcex_fit
    noises = []

    def noise_of_fit(kernel, obs, mu):
        # the noise at the sampled cells, in sampling order
        s = obs.sampling
        noises.append(obs.values - f[s.row_indices0, s.col_indices0])
        return fit(kernel, obs, mu)

    monkeypatch.setattr(bench, "kkmcex_fit", noise_of_fit)
    for seed in (1, 2):
        assert main(["fit", "--config", str(fit_cfg), "--out", str(tmp_path / "m"),
                     "--method", "kkmcex", "--mu", "1e-2", "--ps", "40",
                     "--seed", str(seed)]) == 0
        rng = np.random.default_rng(bench.derive_seed(seed, 1))
        want = rng.normal(scale=0.5, size=len(noises[-1]))
        assert np.allclose(noises[-1], want, rtol=0, atol=1e-12)
    assert not np.allclose(noises[0], noises[1])


@pytest.mark.parametrize("subcommand", ["synth", "sweep", "gridsearch"])
def test_synthetic_dataset_runs_an_eta_grid(tmp_path, subcommand):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("synth = 1\nn = 10\nl = 8\ngraph_p = 0.3\nmethod = kkmcex\n"
                   "ps = 50\nmu = 1e-3\neta = 1,3\n")
    result = run_kronmc(subcommand, "--config", cfg, "--out", tmp_path / "r")
    assert result.returncode == 0, result.stderr
    # the data are drawn at the grid's first point, the builder's base eta
    f = bench.generate_synthetic(10, 8, 0.3, 1.0, 0).f
    dataset = _load_dataset(parse_config(cfg), 0)
    assert np.array_equal(dataset.f, f)
    for own, built in zip((dataset.kx, dataset.ky), dataset.kernel_builder(1.0)):
        assert own is built
    if subcommand == "synth":
        assert np.array_equal(load_matrix_csv(tmp_path / "r.f.csv"), f)


@pytest.mark.parametrize("fraction", ["0", "1", "2", "-0.5"])
def test_validation_fraction_out_of_range_is_named(tmp_path, fraction):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("synth = 1\nmethod = kkmcex\nps = 50\nmu = 1e-3\n"
                   f"validation_fraction = {fraction}\n")
    result = run_kronmc("sweep", "--config", cfg, "--out", tmp_path / "r.csv")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "validation_fraction must lie strictly in (0, 1)" in result.stderr
    assert not (tmp_path / "r.csv").exists()


_FUZZ_JUNK = st.text(alphabet="abe01.,-+= #x", max_size=6)
_FUZZ_NUMBERS = st.one_of(
    st.integers(-3, 12).map(str),
    st.floats(-2.0, 12.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "0", "1e-300", "1e300", "0.5,2"]))
# n and l are capped at 40 so that no draw allocates a large grid
_FUZZ_SIDES = st.one_of(st.integers(-3, 40).map(str), st.sampled_from(["nan", "inf"]),
                        _FUZZ_JUNK)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A 6 x 5 dataset as CSV files, a triplets file on its grid, a 7 x 7
    kernel of the wrong size and a file of junk, by config key."""
    root = tmp_path_factory.mktemp("fuzz")
    data = bench.generate_synthetic(6, 5, 0.5, 1.0, seed=2)
    paths = {name: root / f"{name}.csv" for name in ("f", "kx", "ky", "big", "obs", "junk")}
    bench.save_matrix_csv(paths["f"], data.f)
    bench.save_matrix_csv(paths["kx"], data.kx.matrix)
    bench.save_matrix_csv(paths["ky"], data.ky.matrix)
    bench.save_matrix_csv(paths["big"], np.eye(7))
    bench.save_triplets_csv(paths["obs"], observe(data.f, uniform_sample(6, 5, 9, 1)))
    paths["junk"].write_text("1,2\nx,,\n")
    files = st.sampled_from([str(p) for p in paths.values()]) | _FUZZ_JUNK
    values = {"n": _FUZZ_SIDES, "l": _FUZZ_SIDES,
              "method": st.sampled_from(bench.METHODS) | _FUZZ_JUNK,
              "synth": st.sampled_from(["1", "0", "yes"]) | _FUZZ_JUNK,
              "step_rule": st.sampled_from(["constant", "decay"]) | _FUZZ_JUNK,
              **{key: files for key in ("f", "kx", "ky", "obs")}}
    keys = ("graph_p", "eta", "ps", "mu", "rank", "dim", "epochs", "step_c", "step_n0",
            "snr", "nu_sq", "realizations", "validation_fraction", "dataset_seed",
            *values)
    pair = st.one_of(
        st.sampled_from(keys).flatmap(
            lambda key: values.get(key, _FUZZ_NUMBERS | _FUZZ_JUNK).map(
                lambda value: f"{key} = {value}")),
        _FUZZ_JUNK.map(lambda key: f"{key} = 1"),
        _FUZZ_JUNK)
    bases = (["synth = 1"],
             [f"{key} = {paths[key]}" for key in ("f", "kx", "ky")])
    return root, st.tuples(st.sampled_from(bases), st.lists(pair, max_size=6))


def test_no_fit_config_exits_other_than_0_1_2(fuzz_files):
    # a config is a valid base (synthetic, or the 6 x 5 CSV files) with up
    # to six lines of known keys or junk after it; kronmc fit must answer
    # every one with status 0, 1 or 2, and an exception escaping main would
    # be a traceback on the command line
    root, configs = fuzz_files

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(configs)
    def run(config):
        base, lines = config
        cfg = root / "fuzz.cfg"
        cfg.write_text("\n".join(base + lines) + "\n")
        with open(os.devnull, "w") as sink:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                status = main(["fit", "--config", str(cfg), "--out", str(root / "run"),
                               "--mu", "1e-2"])
        assert status in (0, 1, 2)

    run()


_PROBE_BASE = "synth = 1\nn = 10\nl = 8\ngraph_p = 0.3\nps = 40\n"


@pytest.mark.parametrize("subcommand,lines,flags,message", [
    ("online", "method = orrmcex\nstep_c = nan\n", [],
     "step_c must be positive and finite, got nan"),
    ("sweep", "method = orrmcex\nstep_c = nan\n", [],
     "step_c must be positive and finite, got nan"),
    ("online", "method = factor_sgd\nstep_n0 = inf\n", [],
     "step_n0 must be positive and finite, got inf"),
    ("sweep", "method = factor_sgd\nstep_n0 = inf\n", [],
     "step_n0 must be positive and finite, got inf"),
    ("sweep", "method = kkmcex\neta = nan\n", [], "eta must be positive and finite, got nan"),
    ("sweep", "method = kkmcex\nnu_sq = nan\n", [],
     "nu_sq must be nonnegative and finite, got nan"),
    ("sweep", "method = kkmcex\nsnr = nan\n", [], "snr must be positive and finite, got nan"),
    ("sweep", "method = kkmcex\nmu = 1e-3,nan\n", [], "mu must be positive and finite, got nan"),
    ("gridsearch", "method = kkmcex\nmu = 1e-3,nan\n", [],
     "mu must be positive and finite, got nan"),
    ("fit", "method = kkmcex\n", ["--mu", "1e-3", "--eta", "inf"],
     "eta must be positive and finite, got inf"),
    ("fit", "method = kkmcex\n", ["--mu", "1e-3", "--snr", "nan"],
     "snr must be positive and finite, got nan"),
    ("sweep", "method = kkmcex\nstep_rule = decy\n", [],
     "step_rule must be 'constant' or 'decay', got 'decy'"),
    ("verify", None, ["--mu", "5", "--method", "x"], "unrecognized arguments: --mu 5 --method x"),
    ("synth", None, ["--stride", "9"], "unrecognized arguments: --stride 9"),
    ("sweep", "method = kkmcex\nmu_grid = 1e-2\n", [],
     "{cfg}: line 7: unknown config key 'mu_grid'"),
    ("synth", "n = 6\nl = 6\nmethd = kkmcex\n", [], "{cfg}: line 3: unknown config key 'methd'"),
    ("sweep", "method = kkmcex\ngraph_p = nan\n", [], "graph_p must lie in [0, 1], got nan"),
    ("synth", "graph_p = 1.5\n", [], "graph_p must lie in [0, 1], got 1.5"),
    ("sweep", "method = kkmcex\nn = 1\n", [], "n must be at least 2, got 1"),
    ("synth", "l = 1\n", [], "l must be at least 2, got 1"),
    ("online", "method = orrmcex\nl = 1\n", [], "l must be at least 2, got 1"),
    ("sweep", "method = kkmcex\nrealizations = 0\n", [],
     "realizations must be at least 1, got 0"),
    *((subcommand, "method = kkmcex\n" if subcommand != "synth" else "",
       ["--seed", "-1", *(["--mu", "1e-3"] if subcommand == "fit" else [])],
       "--seed must be nonnegative and finite, got -1")
      for subcommand in ("fit", "sweep", "online", "gridsearch", "synth")),
    ("verify", None, ["--seed", "-1"], "--seed must be nonnegative and finite, got -1"),
    ("sweep", "method = kkmcex\ndataset_seed = -2\n", [],
     "dataset_seed must be nonnegative and finite, got -2"),
    *((subcommand, f"method = {method}\n", ["--dim", "81", *flags],
       "dim: feature dimension must lie in 1..80 (N*L), got 81")
      for subcommand, method, flags in (("sweep", "rrmcex", []),
                                        ("fit", "orrmcex", ["--mu", "1e-3"]),
                                        ("online", "orrmcex", []))),
])
def test_bad_number_flag_or_key_exits_1_naming_it(tmp_path, subcommand, lines, flags, message):
    # each is rejected before any fit, naming its key or flag
    cfg = tmp_path / "c.cfg"
    args = [subcommand, "--out", tmp_path / "r", *flags]
    if lines is not None:
        cfg.write_text((_PROBE_BASE if subcommand != "synth" else "") + lines)
        args += ["--config", cfg]
    result = run_kronmc(*args)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr == f"kronmc: error: {message.format(cfg=cfg)}\n"
    assert not any(tmp_path.glob("r*"))


@pytest.mark.parametrize("subcommand,flags", [("sweep", []), ("fit", ["--mu", "1e-2"])])
def test_size_mismatch_names_the_keys_and_files(tmp_path, capsys, subcommand, flags):
    paths = {name: tmp_path / f"{name}.csv" for name in ("f", "kx", "ky")}
    bench.save_matrix_csv(paths["f"], np.ones((3, 4)))
    for name in ("kx", "ky"):
        bench.save_matrix_csv(paths[name], np.eye(3))
    cfg = tmp_path / "c.cfg"
    cfg.write_text("method = kkmcex\n" + "".join(f"{name} = {path}\n"
                                                  for name, path in paths.items()))
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "r"), *flags]) == 1
    assert capsys.readouterr().err == (
        f"kronmc: error: config keys 'f' ({paths['f']}), 'kx' ({paths['kx']}), "
        f"'ky' ({paths['ky']}): matrix shape (3, 4) does not match kernel sides (3, 3)\n")
    assert not any(tmp_path.glob("r*"))


@pytest.mark.parametrize("key", ["kx", "ky"])
@pytest.mark.parametrize("bad,message", [
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "kernel matrix must be square, got shape (2, 3)"),
    ([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "kernel matrix must be symmetric"),
    ([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
     "kernel matrix is not positive semidefinite (min eigenvalue -1)"),
], ids=["non-square", "non-symmetric", "non-psd"])
def test_bad_kernel_file_names_its_key_and_path(tmp_path, capsys, key, bad, message):
    paths = {name: tmp_path / f"{name}.csv" for name in ("f", "kx", "ky")}
    for name, path in paths.items():
        bench.save_matrix_csv(path, bad if name == key else np.eye(3))
    cfg = tmp_path / "c.cfg"
    cfg.write_text("method = kkmcex\n" + "".join(f"{name} = {path}\n"
                                                  for name, path in paths.items()))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err == (
        f"kronmc: error: config key {key!r}: {paths[key]}: {message}\n")
    assert not (tmp_path / "r.csv").exists()


def test_each_subcommand_takes_only_its_flags():
    every = {"config", "out", "seed", "method", "ps", "mu", "eta", "rank", "dim", "snr",
             "epochs", "stride"}
    run = every - {"stride"}
    takes = {"synth": {"config", "out", "seed", "eta"}, "fit": run, "sweep": run,
             "online": every, "gridsearch": run, "verify": {"out", "seed"}}
    for subcommand, flags in takes.items():
        required = {"synth": ["--out", "x"], "verify": []}.get(
            subcommand, ["--config", "c", "--out", "x", "--mu", "1"])
        for flag in every:
            argv = [subcommand, *required, f"--{flag}", "1"]
            if flag in flags:
                assert getattr(parse_args(argv), flag) in ("1", 1, 1.0)
            else:
                with pytest.raises(UsageError, match=f"unrecognized arguments: --{flag} 1"):
                    parse_args(argv)


def test_fit_draws_its_synthetic_data_from_dataset_seed(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("synth = 1\nn = 12\nl = 10\ngraph_p = 0.3\ndataset_seed = 8\n")
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "m"),
                 "--method", "kkmcex", "--mu", "1e-2", "--ps", "30", "--seed", "1"]) == 0
    # the data come from dataset_seed, the sampling from --seed
    ds = bench.generate_synthetic(12, 10, 0.3, 1.0, 8)
    obs = observe(ds.f, uniform_sample(12, 10, 36, 1))
    model = kkmcex_fit(KroneckerKernel(ds.kx, ds.ky), obs, 1e-2)
    assert np.array_equal(load_matrix_csv(tmp_path / "m.pred.csv"), kkmcex_predict(model))
