"""Line-oriented command front end.

Subcommands: synth (generate a dataset), fit (one model, one prediction),
sweep (full protocol to CSV), online (streaming trace), gridsearch
(parameter selection), verify (error-theory checks).  Exit statuses:
0 success, 1 validation/usage error, 2 solver or numerical error.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np
from scipy.linalg import LinAlgError

from . import bench
from .analysis import verify_theory
from .errors import InvalidInputError, NumericalError
from .kernels import KernelMatrix
from .sampling import NoiseSpec, observe, uniform_sample
from .solvers import StepSchedule, save_model

__all__ = ["parse_args", "main"]


class UsageError(InvalidInputError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="kronmc", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    def add(name, **required):
        p = sub.add_parser(name)
        p.add_argument("--config", required=required.get("config", False))
        p.add_argument("--out", required=required.get("out", False))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--method", default=None)
        p.add_argument("--ps", type=float, default=None)
        p.add_argument("--mu", type=float, default=None)
        p.add_argument("--eta", type=float, default=None)
        p.add_argument("--rank", type=int, default=None)
        p.add_argument("--dim", type=int, default=None)
        p.add_argument("--snr", type=float, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--stride", type=int, default=None)
        return p

    add("synth", out=True)
    add("fit", config=True, out=True)
    add("sweep", config=True, out=True)
    add("online", config=True, out=True)
    add("gridsearch", config=True, out=True)
    add("verify")
    return parser


def parse_args(argv):
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.subcommand is None:
        raise UsageError("a subcommand is required "
                         "(synth | fit | sweep | online | verify | gridsearch)")
    return ns


def parse_config(path):
    """Flat key=value file; blank lines and # comments ignored."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidInputError(f"{path}: line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _floats(text):
    return tuple(float(v) for v in text.split(","))


def _number(cfg, key, default, convert=float):
    """Config value of ``key`` (``default`` when absent) through ``convert``
    (int, float or _floats); a malformed value is an input error naming the key."""
    try:
        return convert(cfg.get(key, default))
    except ValueError as exc:
        raise InvalidInputError(f"config key {key!r}: {exc}") from exc


def _config_file(cfg, key):
    """The path the config gives under ``key``; a missing file names the key."""
    path = cfg[key]
    if not os.path.isfile(path):
        raise InvalidInputError(f"config key {key!r}: file not found: {path!r}")
    return path


def _synthetic(cfg, seed, eta):
    """The config's synthetic dataset, drawn at ``eta`` (the --eta flag) when
    given, else at the first point of the config's eta grid."""
    if eta is None:
        eta = _number(cfg, "eta", "1", _floats)[0]
    return bench.generate_synthetic(
        _number(cfg, "n", 10, int), _number(cfg, "l", 10, int),
        _number(cfg, "graph_p", 0.2), eta, seed)


def _load_dataset(cfg, seed, eta=None):
    """The config's dataset: a synthetic one (see _synthetic), or the matrix
    and kernels its CSV files hold."""
    if cfg.get("synth", "0") in ("1", "true", "yes"):
        return _synthetic(cfg, seed, eta)
    for key in ("f", "kx", "ky"):
        if key not in cfg:
            raise InvalidInputError(f"config needs {key}=<path> (or synth=1)")
    f = bench.load_matrix_csv(_config_file(cfg, "f"))
    kx = KernelMatrix(bench.load_matrix_csv(_config_file(cfg, "kx")))
    ky = KernelMatrix(bench.load_matrix_csv(_config_file(cfg, "ky")))
    return bench.DatasetBundle(f, kx, ky, provenance={"generator": "files"})


def _noise_from(cfg, opts):
    if opts.snr is not None:
        return NoiseSpec.target_snr(opts.snr)
    if "snr" in cfg:
        return NoiseSpec.target_snr(_number(cfg, "snr", None))
    if "nu_sq" in cfg:
        return NoiseSpec.variance(_number(cfg, "nu_sq", None))
    return NoiseSpec.none()


def _schedule_from(cfg):
    rule = cfg.get("step_rule", "decay")
    if rule == "constant":
        return StepSchedule.constant(_number(cfg, "step_c", 0.1))
    return StepSchedule.decay(_number(cfg, "step_c", 0.5), _number(cfg, "step_n0", 10.0))


def _config_from(cfg, opts):
    method = opts.method or cfg.get("method")
    if method is None:
        raise InvalidInputError("a method is required (--method or method= in config)")
    ps_grid = (opts.ps,) if opts.ps is not None else _number(cfg, "ps", "10", _floats)
    mu_grid = (opts.mu,) if opts.mu is not None else _number(cfg, "mu", "1e-3", _floats)
    eta_grid = (opts.eta,) if opts.eta is not None else _number(cfg, "eta", "1", _floats)
    return bench.ExperimentConfig(
        method=method,
        ps_grid=ps_grid,
        realizations=_number(cfg, "realizations", 1, int),
        mu_grid=mu_grid,
        eta_grid=eta_grid,
        rank=opts.rank if opts.rank is not None else _number(cfg, "rank", 10, int),
        feature_dim=opts.dim if opts.dim is not None else _number(cfg, "dim", 10, int),
        noise=_noise_from(cfg, opts),
        seed=opts.seed,
        epochs=opts.epochs if opts.epochs is not None else _number(cfg, "epochs", 20, int),
        schedule=_schedule_from(cfg),
        validation_fraction=_number(cfg, "validation_fraction", 0.2),
    )


def _cmd_synth(opts):
    cfg = parse_config(opts.config) if opts.config else {}
    dataset = _synthetic(cfg, opts.seed, opts.eta)
    bench.save_matrix_csv(f"{opts.out}.f.csv", dataset.f)
    bench.save_matrix_csv(f"{opts.out}.kx.csv", dataset.kx.matrix)
    bench.save_matrix_csv(f"{opts.out}.ky.csv", dataset.ky.matrix)
    print(f"wrote {opts.out}.f.csv {opts.out}.kx.csv {opts.out}.ky.csv")
    return 0


def _cmd_fit(opts):
    cfg = parse_config(opts.config)
    dataset = _load_dataset(cfg, opts.seed, opts.eta)
    n, l = dataset.shape
    if opts.mu is None:
        raise InvalidInputError("fit requires --mu")
    if not np.isfinite(opts.mu) or opts.mu <= 0:
        raise InvalidInputError(f"--mu must be positive and finite, got {opts.mu}")
    config = _config_from({**cfg, "method": opts.method or cfg.get("method", "kkmcex")},
                          opts)
    bench._require_one_point(config, "fit")
    if "obs" in cfg:
        obs = bench.load_triplets_csv(_config_file(cfg, "obs"), n, l)
    else:
        count = bench._sample_count(config.ps_grid[0], n, l)
        noise = replace(config.noise, seed=bench.derive_seed(opts.seed, 1))
        obs = observe(dataset.f, uniform_sample(n, l, count, opts.seed), noise)
    method = bench._METHOD_TABLE[config.method]
    kernels = bench._kernels_for_eta(config, dataset)(config.eta_grid[0])
    model = method.fit(method.prepare(*kernels, config), obs, opts.mu, config, opts.seed)
    bench.save_matrix_csv(f"{opts.out}.pred.csv", method.predict(model))
    save_model(f"{opts.out}.model.csv", model)
    print(f"wrote {opts.out}.pred.csv {opts.out}.model.csv")
    return 0


def _cmd_sweep(opts):
    cfg = parse_config(opts.config)
    dataset = _load_dataset(cfg, _number(cfg, "dataset_seed", opts.seed, int), opts.eta)
    config = _config_from(cfg, opts)
    result = bench.run_sweep(config, dataset)
    result.write_csv(opts.out)
    for key, agg in sorted(result.summary().items()):
        print(f"{key[0]} P_s={key[1]:g}: nmse={agg['nmse']:.6g} "
              f"seconds={agg['seconds']:.3f} mu={agg['mu']:g} eta={agg['eta']:g}")
    return 0


def _cmd_online(opts):
    cfg = parse_config(opts.config)
    dataset = _load_dataset(cfg, _number(cfg, "dataset_seed", opts.seed, int), opts.eta)
    config = _config_from(cfg, opts)
    trace = bench.run_online(config, dataset, stride=opts.stride)
    bench.write_trace_csv(opts.out, trace)
    final = trace[-1]
    print(f"{config.method}: {final['iteration']} iterations, "
          f"final nmse={final['nmse']:.6g}")
    return 0


def _cmd_gridsearch(opts):
    cfg = parse_config(opts.config)
    dataset = _load_dataset(cfg, _number(cfg, "dataset_seed", opts.seed, int), opts.eta)
    config = _config_from(cfg, opts)
    mu, eta = bench.grid_search(config, dataset)
    bench._write_csv(opts.out, [(mu, eta)], ("mu", "eta"))
    print(f"selected mu={mu:g} eta={eta:g}")
    return 0


def _cmd_verify(opts):
    rows, summary = verify_theory(seed=opts.seed)
    all_ok = True
    for name, (passed, total) in summary.items():
        print(f"{name}: {passed}/{total} passed")
        all_ok = all_ok and passed == total
    if opts.out:
        keys = ("instance", "bias_sq", "variance", "empirical_mse", "bound", "margin")
        bench._write_csv(opts.out, (["" if r[k] is None else r[k] for k in keys]
                                    for r in rows), keys)
    print("verify: PASS" if all_ok else "verify: FAIL")
    return 0 if all_ok else 2


_COMMANDS = {
    "synth": _cmd_synth,
    "fit": _cmd_fit,
    "sweep": _cmd_sweep,
    "online": _cmd_online,
    "gridsearch": _cmd_gridsearch,
    "verify": _cmd_verify,
}


def _check_paths(options):
    """Validate input/output paths before any work starts."""
    if options.config is not None and not os.path.isfile(options.config):
        raise InvalidInputError(f"config file not found: {options.config}")
    if options.out is not None:
        parent = os.path.dirname(os.path.abspath(options.out))
        if not os.path.isdir(parent):
            raise InvalidInputError(f"output directory does not exist: {parent}")


def main(argv=None):
    """Entry point; returns the process exit status."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = parse_args(list(argv))
        _check_paths(ns)
        return _COMMANDS[ns.subcommand](ns)
    except (UsageError, InvalidInputError) as exc:
        print(f"kronmc: error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, LinAlgError, np.linalg.LinAlgError) as exc:
        print(f"kronmc: numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
