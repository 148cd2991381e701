"""Line-oriented command front end.

Subcommands: synth (generate a dataset), fit (one model, one prediction),
sweep (full protocol to CSV), online (streaming trace), gridsearch
(parameter selection), verify (error-theory checks).  Exit statuses:
0 success, 1 validation/usage error, 2 solver or numerical error.
"""

import argparse
import os
import sys

import numpy as np
from scipy.linalg import LinAlgError

from . import bench
from .analysis import verify_theory
from .errors import InvalidInputError, NumericalError, check_number
from .kernels import KernelMatrix
from .sampling import NoiseSpec
from .solvers import StepSchedule, save_model

__all__ = ["parse_args", "main"]


class UsageError(InvalidInputError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _floats(text):
    return tuple(float(v) for v in text.split(","))


# Every option, by name: the type of its flag --name, the conversion of its
# config key "name = value", and the ExperimentConfig field it sets (None:
# no such flag, key or field).  A given flag overrides its key; the flag of
# a grid key (ps, mu, eta) gives a grid of one point.
_OPTIONS = {
    **dict.fromkeys(("config", "out"), (str, None, None)),
    **dict.fromkeys(("seed", "stride"), (int, None, None)),
    "method": (str, str, "method"),
    "ps": (float, _floats, "ps_grid"),
    "mu": (float, _floats, "mu_grid"),
    "eta": (float, _floats, "eta_grid"),
    "rank": (int, int, "rank"),
    "dim": (int, int, "feature_dim"),
    "epochs": (int, int, "epochs"),
    "realizations": (None, int, "realizations"),
    "validation_fraction": (None, float, "validation_fraction"),
    "snr": (float, float, None),
    **dict.fromkeys(("n", "l", "dataset_seed"), (None, int, None)),
    **dict.fromkeys(("graph_p", "nu_sq", "step_c", "step_n0"), (None, float, None)),
    **dict.fromkeys(("synth", "step_rule", "f", "kx", "ky", "obs"), (None, str, None)),
}
# the flags of fit, sweep, online and gridsearch besides --config and --out
_RUN = ("seed", "method", "ps", "mu", "eta", "rank", "dim", "snr", "epochs")


def _build_parser():
    parser = _Parser(prog="kronmc", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, (_, required, optional) in _SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for flag in dict.fromkeys(required + optional):
            p.add_argument(f"--{flag}", type=_OPTIONS[flag][0], required=flag in required,
                           default=0 if flag == "seed" else None)
    return parser


def parse_args(argv):
    ns = _build_parser().parse_args(argv)
    if ns.subcommand is None:
        raise UsageError(f"a subcommand is required ({' | '.join(_SUBCOMMANDS)})")
    check_number("--seed", ns.seed, "nonnegative")
    return ns


def parse_config(path):
    """Flat key=value file; blank lines and # comments ignored.  A key that
    no subcommand reads is rejected, naming its line."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidInputError(f"{path}: line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if _OPTIONS.get(key, (None, None))[1] is None:
                raise InvalidInputError(f"{path}: line {lineno}: unknown config key {key!r}")
            out[key] = value.strip()
    return out


def _option(name, cfg, opts=None, default=None):
    """Option ``name``: its flag in ``opts`` when given, else its config key
    converted, else ``default``; a malformed key value is an input error
    naming the key."""
    _, convert, _ = _OPTIONS[name]
    flag = getattr(opts, name, None)
    if flag is not None:
        return (flag,) if convert is _floats else flag
    if name not in cfg:
        return default
    try:
        return convert(cfg[name])
    except ValueError as exc:
        raise InvalidInputError(f"config key {name!r}: {exc}") from exc


def _config_file(cfg, key):
    """The path the config gives under ``key``; a missing key or file names
    the key."""
    if key not in cfg:
        raise InvalidInputError(f"config needs {key}=<path> (or synth=1)")
    path = cfg[key]
    if not os.path.isfile(path):
        raise InvalidInputError(f"config key {key!r}: file not found: {path!r}")
    return path


def _kernel_file(cfg, key):
    """The kernel matrix in the config's ``key`` file; a matrix that is no
    kernel is an input error naming the key and the path."""
    path = _config_file(cfg, key)
    matrix = bench.load_matrix_csv(path)
    try:
        return KernelMatrix(matrix)
    except InvalidInputError as exc:
        raise InvalidInputError(f"config key {key!r}: {path}: {exc}") from exc


def _load_dataset(cfg, seed, eta=None):
    """The config's dataset: the matrix and kernels its CSV files hold, or,
    with synth = 1, a synthetic one drawn from ``seed`` at ``eta`` when
    given, else at the first point of the config's eta grid."""
    if cfg.get("synth", "0") not in ("1", "true", "yes"):
        f = bench.load_matrix_csv(_config_file(cfg, "f"))
        kx, ky = (_kernel_file(cfg, key) for key in ("kx", "ky"))
        try:
            return bench.DatasetBundle(f, kx, ky)
        except InvalidInputError as exc:
            files = ", ".join(f"{key!r} ({cfg[key]})" for key in ("f", "kx", "ky"))
            raise InvalidInputError(f"config keys {files}: {exc}") from exc
    if eta is None:
        eta = _option("eta", cfg, default=bench.ExperimentConfig.eta_grid)[0]
    return bench.generate_synthetic(
        _option("n", cfg, default=10), _option("l", cfg, default=10),
        _option("graph_p", cfg, default=0.2), eta, seed)


def _noise_from(cfg, opts):
    snr = _option("snr", cfg, opts)
    if snr is not None:
        return NoiseSpec.target_snr(snr)
    nu_sq = _option("nu_sq", cfg)
    return NoiseSpec.none() if nu_sq is None else NoiseSpec.variance(nu_sq)


def _schedule_from(cfg):
    default = bench.ExperimentConfig.schedule
    rule = cfg.get("step_rule", default.rule)
    c = _option("step_c", cfg, default=0.1 if rule == "constant" else default.c)
    return StepSchedule(rule, c, _option("step_n0", cfg, default=default.n0))


def _config_from(cfg, opts):
    """The ExperimentConfig of the options given; ExperimentConfig's own
    defaults stand for the others (P_s defaults to 10 %)."""
    given = {field: _option(name, cfg, opts)
             for name, (_, _, field) in _OPTIONS.items() if field is not None}
    given = {"ps_grid": (10.0,), **{k: v for k, v in given.items() if v is not None}}
    if "method" not in given:
        raise InvalidInputError("a method is required (--method or method= in config)")
    return bench.ExperimentConfig(noise=_noise_from(cfg, opts), seed=opts.seed,
                                  schedule=_schedule_from(cfg), **given)


def _experiment(opts, **defaults):
    """The config keys (over ``defaults``), the ExperimentConfig and the
    dataset of a run subcommand; the options are checked before any data
    file is read.  A synthetic dataset is drawn from ``dataset_seed``
    (default --seed) at the first point of the eta grid."""
    cfg = {**defaults, **parse_config(opts.config)}
    config = _config_from(cfg, opts)
    seed = _option("dataset_seed", cfg, default=opts.seed)
    check_number("dataset_seed", seed, "nonnegative")
    return cfg, config, _load_dataset(cfg, seed, config.eta_grid[0])


def _cmd_synth(opts):
    cfg = parse_config(opts.config) if opts.config else {}
    dataset = _load_dataset({**cfg, "synth": "1"}, opts.seed, opts.eta)
    bench.save_matrix_csv(f"{opts.out}.f.csv", dataset.f)
    bench.save_matrix_csv(f"{opts.out}.kx.csv", dataset.kx.matrix)
    bench.save_matrix_csv(f"{opts.out}.ky.csv", dataset.ky.matrix)
    print(f"wrote {opts.out}.f.csv {opts.out}.kx.csv {opts.out}.ky.csv")
    return 0


def _cmd_fit(opts):
    check_number("--mu", opts.mu)
    cfg, config, dataset = _experiment(opts, method="kkmcex")
    obs = (bench.load_triplets_csv(_config_file(cfg, "obs"), *dataset.shape)
           if "obs" in cfg else None)
    model, estimate = bench.run_fit(config, dataset, obs)
    bench.save_matrix_csv(f"{opts.out}.pred.csv", estimate)
    save_model(f"{opts.out}.model.csv", model)
    print(f"wrote {opts.out}.pred.csv {opts.out}.model.csv")
    return 0


def _cmd_sweep(opts):
    _, config, dataset = _experiment(opts)
    result = bench.run_sweep(config, dataset)
    result.write_csv(opts.out)
    for key, agg in sorted(result.summary().items()):
        print(f"{key[0]} P_s={key[1]:g}: nmse={agg['nmse']:.6g} "
              f"seconds={agg['seconds']:.3f} mu={agg['mu']:g} eta={agg['eta']:g}")
    return 0


def _cmd_online(opts):
    _, config, dataset = _experiment(opts)
    trace = bench.run_online(config, dataset, stride=opts.stride)
    bench.write_trace_csv(opts.out, trace)
    final = trace[-1]
    print(f"{config.method}: {final['iteration']} iterations, "
          f"final nmse={final['nmse']:.6g}")
    return 0


def _cmd_gridsearch(opts):
    _, config, dataset = _experiment(opts)
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


# Every subcommand: its handler, its required flags and its other flags
_SUBCOMMANDS = {
    "synth": (_cmd_synth, ("out",), ("config", "seed", "eta")),
    "fit": (_cmd_fit, ("config", "out", "mu"), _RUN),
    "sweep": (_cmd_sweep, ("config", "out"), _RUN),
    "online": (_cmd_online, ("config", "out"), (*_RUN, "stride")),
    "gridsearch": (_cmd_gridsearch, ("config", "out"), _RUN),
    "verify": (_cmd_verify, (), ("out", "seed")),
}


def _check_paths(options):
    """Validate input/output paths before any work starts."""
    config, out = getattr(options, "config", None), options.out
    if config is not None and not os.path.isfile(config):
        raise InvalidInputError(f"config file not found: {config}")
    if out is not None:
        parent = os.path.dirname(os.path.abspath(out))
        if not os.path.isdir(parent):
            raise InvalidInputError(f"output directory does not exist: {parent}")


def main(argv=None):
    """Entry point; returns the process exit status."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = parse_args(list(argv))
        _check_paths(ns)
        return _SUBCOMMANDS[ns.subcommand][0](ns)
    except (UsageError, InvalidInputError) as exc:
        print(f"kronmc: error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, LinAlgError, np.linalg.LinAlgError) as exc:
        print(f"kronmc: numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
