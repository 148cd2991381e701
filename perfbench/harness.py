"""Run one workload as a closed loop and compute its metrics.

One client in one process: each realization starts after the previous one
and its check have finished.  Realization r is seeded with
``derive_seed(seed, r)``.  Checks and the garbage collector run outside the
realization clock.

Untraced runs give the end-to-end metrics.  Traced runs interleave
untraced and traced realizations and give the per-layer metrics, each the
median over traced realizations unless it describes set-up.
"""

import gc
import os
import platform
import resource
import statistics
import subprocess
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np
import scipy

from kronmc.bench import derive_seed
from kronmc.errors import InvalidInputError, NumericalError

from tracer import Target, Tracer, self_times
from workloads import CheckFailed

# an untraced run splits its timed phase into SEGMENTS, each after a set-up
# of its own: how fast a run's realizations go depends on where its set-up
# placed the arrays (ridge-stations, 8 realizations after each of 8 set-ups
# in one process: medians 0.54-0.88 s; after one set-up reused: 0.60-0.75 s).
# More set-ups follow while all took under SETUP_BUDGET_S, up to MAX_SETUPS;
# setup_s is their median
SEGMENTS, MAX_SETUPS, SETUP_BUDGET_S = 3, 15, 3.0
P90_TAIL = 10  # a p90 needs at least this many samples beyond it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")

GRAPH_SPANS = ("build_laplacian", "erdos_renyi", "knn_symmetric", "geodesic_distances",
               "heat_adjacency", "band_graph")
DATASET_SPANS = ("generate_synthetic", "synthetic_station_day_bundle", "station_day_bundle")
INDEX_SPANS = ("row_indices0", "col_indices0", "vec_indices0")


def _sampled(args):
    return len(args["sampling"] if "sampling" in args else args["obs"].sampling)


TARGETS = (
    *(Target("kronmc.graphs", name) for name in GRAPH_SPANS[:-1]),
    Target("kronmc.bench", "band_graph"),
    Target("kronmc.kernels", "spectral_kernel"),
    Target("kronmc.kernels", "features_from_eig",
           lambda a, r: {"phi_mb": r.phi.nbytes / 1e6}),
    Target("kronmc.kernels", "kron_submatrix",
           lambda a, r: {"gram_mb": _sampled(a) ** 2 * 8 / 1e6}),
    Target("kronmc.sampling", "uniform_sample"),
    Target("kronmc.sampling", "observe"),
    *(Target("kronmc.sampling", f"SamplingSet.{name}") for name in INDEX_SPANS),
    Target("kronmc.solvers", "kkmcex_fit",
           lambda a, r: {"cholesky_gflop": _sampled(a) ** 3 / 3 / 1e9}),
    Target("kronmc.solvers", "kkmcex_predict"),
    Target("kronmc.solvers", "rrmcex_fit",
           lambda a, r: {"syrk_gflop": _sampled(a) * a["features"].dim ** 2 / 1e9}),
    Target("kronmc.solvers", "rrmcex_predict"),
    Target("kronmc.solvers", "save_model"),
    Target("kronmc.analysis", "nmse"),
    *(Target("kronmc.bench", name) for name in DATASET_SPANS),
    Target("kronmc.bench", "load_matrix_csv"),
    Target("kronmc.bench", "save_matrix_csv"),
    Target("kronmc.cli", "main"),
)

# end-to-end metric -> unit; the names and units BENCHMARK.json lists
END_TO_END = {"setup_s": "s", "completions_per_s": "1/s", "peak_rss_mb": "MB", "nmse": "ratio"}

# per-layer metric -> (unit, how it is measured); set-up metrics come from the
# one traced set-up, the rest are medians over traced realizations
PER_LAYER = {
    "graphs.setup_s": ("s", "set-up"),
    "kernels.spectral_kernel_s": ("s", "set-up"),
    "kernels.features_from_eig_s": ("s", "set-up"),
    "kernels.phi_mb": ("MB", "computed from sizes"),
    "bench.dataset_self_s": ("s", "set-up, self time"),
    "kernels.kron_submatrix_s": ("s", "self time"),
    "kernels.gram_mb": ("MB", "computed from sizes"),
    "sampling.uniform_sample_s": ("s", "self time"),
    "sampling.observe_s": ("s", "self time"),
    "sampling.index_calls": ("count", "count"),
    "sampling.index_s": ("s", "self time"),
    "solvers.kkmcex_fit_self_s": ("s", "self time"),
    "solvers.kkmcex_fit_calls": ("count", "count"),
    "solvers.cholesky_gflop": ("GFLOP", "computed from sizes"),
    "solvers.kkmcex_predict_s": ("s", "self time"),
    "solvers.rrmcex_fit_self_s": ("s", "self time"),
    "solvers.syrk_gflop": ("GFLOP", "computed from sizes"),
    "solvers.rrmcex_predict_s": ("s", "self time"),
    "solvers.save_model_s": ("s", "self time"),
    "bench.load_matrix_csv_s": ("s", "self time"),
    "bench.save_matrix_csv_s": ("s", "self time"),
    "cli.self_s": ("s", "self time"),
    "analysis.nmse_s": ("s", "in the checks, outside the clock"),
    "trace.unwrapped_frac": ("ratio", "share outside every wrapped call"),
    "trace.overhead_frac": ("ratio", "traced p50 over untraced p50, minus 1"),
}


@dataclass
class Outcome:
    seconds: float | None = None
    nmse: float | None = None
    error: str | None = None


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    labels: dict  # metric -> how it was measured, for the printed table
    extra: dict  # printed lines that are not metrics of BENCHMARK.json
    errors: list


def machine_record(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": _commit(),
        "seed": seed,
    }


def _commit():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _realize(workload, state, seed, r, tracer=None):
    gc.collect()
    rseed = derive_seed(seed, r)
    outcome = Outcome()
    try:
        if tracer is None:
            tic = time.perf_counter()
            out = workload.realize(state, rseed)
            outcome.seconds = time.perf_counter() - tic
            outcome.nmse = workload.check(state, out)
        else:
            with tracer.installed():
                tracer.realization, tracer.phase = r, "run"
                with tracer.span("realization") as root:
                    out = workload.realize(state, rseed)
                outcome.seconds = root.seconds
                tracer.phase = "check"
                outcome.nmse = workload.check(state, out)
    except (InvalidInputError, NumericalError, CheckFailed) as exc:
        outcome.error = f"realization {r}: {type(exc).__name__}: {exc}"
    return outcome


def _loop(workload, state, seed, seconds, outcomes, least, tracer=None):
    """Add realizations to ``outcomes`` until ``seconds`` have passed and the
    untraced ones number at least ``least``.

    Realizations are numbered over the whole run.  With a tracer, even
    realizations run untraced and odd ones traced, and each kind needs
    ``least``.  Realization 0 warms up: it is checked like the others, but
    its time is left out of every timing.
    """
    start = time.perf_counter()
    r = len(outcomes[False]) + len(outcomes[True])
    while (time.perf_counter() - start < seconds
           or len(outcomes[False]) < least
           or (tracer is not None and len(outcomes[True]) < least)):
        traced = tracer is not None and r % 2 == 1
        outcomes[traced].append(_realize(workload, state, seed, r,
                                         tracer if traced else None))
        r += 1


def _setup(workload, workdir, setup_times):
    gc.collect()
    tic = time.perf_counter()
    state = workload.setup(workdir)
    setup_times.append(time.perf_counter() - tic)
    return state


def _timings(outcomes):
    return [o.seconds for o in outcomes if o.error is None]


def run(workload, seed, seconds, trace, workdir):
    """Set up and run ``workload``; return a ``RunResult``."""
    tracer = Tracer(TARGETS) if trace else None
    outcomes = {False: [], True: []}
    if tracer is None:
        setup_times = []
        for segment in range(SEGMENTS):
            state = None  # at most one set-up's arrays alive at a time
            state = _setup(workload, workdir, setup_times)
            least = workload.min_realizations if segment == SEGMENTS - 1 else 0
            _loop(workload, state, seed, seconds / SEGMENTS, outcomes, least)
        state = None
        while sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < MAX_SETUPS:
            _setup(workload, workdir, setup_times)
    else:
        tracer.realization = "setup"
        with tracer.installed():
            state = workload.setup(workdir)
        _loop(workload, state, seed, seconds, outcomes, workload.min_realizations, tracer)
    every = outcomes[False] + outcomes[True]
    errors = [o.error for o in every if o.error is not None]
    untraced = _timings(outcomes[False][1:])
    if not untraced:
        raise RuntimeError("no realization succeeded:\n" + "\n".join(errors))
    if tracer is None:
        # a failed realization has no estimate to score
        first = [o.nmse for o in outcomes[False][:workload.min_realizations] if o.error is None]
        metrics = {
            "setup_s": statistics.median(setup_times),
            # over the summed time of the timed realizations: a mean, which
            # moves less with the host's load than the median of a run
            "completions_per_s": len(untraced) / sum(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "nmse": float(np.mean(first)),
        }
        labels = {
            "setup_s": f"median of {len(setup_times)} set-ups",
            "completions_per_s": f"n={len(untraced)}, over their summed time",
            "nmse": f"mean of {len(first)} estimates from the first "
                    f"{workload.min_realizations} realizations",
        }
        units = END_TO_END
        if len(untraced) >= 10 * P90_TAIL:
            p90 = f"{statistics.quantiles(untraced, n=10)[-1]:.6g} s"
        else:
            p90 = f"n/a: n={len(untraced)}, needs {10 * P90_TAIL}"
        extra = {"realization_s.p50": f"{statistics.median(untraced):.6g} s (n={len(untraced)})",
                 "realization_s.p90": p90}
    else:
        traced_ids = [2 * k + 1 for k, o in enumerate(outcomes[True]) if o.error is None]
        if not traced_ids:
            raise RuntimeError("no traced realization succeeded:\n" + "\n".join(errors))
        metrics = layer_metrics(tracer, traced_ids)
        traced = _timings(outcomes[True])
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
        labels = {name: kind for name, (_, kind) in PER_LAYER.items()}
        labels["trace.overhead_frac"] += f"; traced n={len(traced)}, untraced n={len(untraced)}"
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        extra = {}
    extra["failed_frac"] = f"{len(errors) / len(every):.6g} ({len(errors)} of {len(every)})"
    return RunResult(
        correct=not errors,
        attempted=len(every),
        failed=len(errors),
        metrics={name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        labels=labels,
        extra=extra,
        errors=errors,
    ), tracer


def layer_metrics(tracer, realization_ids):
    """Per-layer metrics from the traced set-up and traced realizations."""
    spans = tracer.spans
    own = self_times(spans)
    metrics = {}

    setup = [k for k, s in enumerate(spans) if s.realization == "setup"]
    graph_top = [k for k in setup if spans[k].name in GRAPH_SPANS
                 and (spans[k].parent is None or spans[spans[k].parent].name not in GRAPH_SPANS)]
    metrics["graphs.setup_s"] = sum(spans[k].seconds for k in graph_top)
    for name in ("spectral_kernel", "features_from_eig"):
        metrics[f"kernels.{name}_s"] = sum(spans[k].seconds for k in setup if spans[k].name == name)
    metrics["kernels.phi_mb"] = max((spans[k].sizes["phi_mb"] for k in setup
                                     if spans[k].name == "features_from_eig"), default=0.0)
    metrics["bench.dataset_self_s"] = sum(own[k] for k in setup if spans[k].name in DATASET_SPANS)

    per_realization = []
    for r in realization_ids:
        ids = [k for k, s in enumerate(spans) if s.realization == r]
        run_ids = [k for k in ids if spans[k].phase == "run"]
        total, count, sizes = defaultdict(float), Counter(), defaultdict(list)
        for k in run_ids:
            span = spans[k]
            total[span.name] += own[k]
            count[span.name] += 1
            for key, value in (span.sizes or {}).items():
                sizes[key].append(value)
        root = next(k for k in run_ids if spans[k].name == "realization")
        covered = sum(spans[k].seconds for k in run_ids if spans[k].parent == root)
        per_realization.append({
            "kernels.kron_submatrix_s": total["kron_submatrix"],
            "kernels.gram_mb": max(sizes["gram_mb"], default=0.0),
            "sampling.uniform_sample_s": total["uniform_sample"],
            "sampling.observe_s": total["observe"],
            "sampling.index_calls": sum(count[name] for name in INDEX_SPANS),
            "sampling.index_s": sum(total[name] for name in INDEX_SPANS),
            "solvers.kkmcex_fit_self_s": total["kkmcex_fit"],
            "solvers.kkmcex_fit_calls": count["kkmcex_fit"],
            "solvers.cholesky_gflop": sum(sizes["cholesky_gflop"]),
            "solvers.kkmcex_predict_s": total["kkmcex_predict"],
            "solvers.rrmcex_fit_self_s": total["rrmcex_fit"],
            "solvers.syrk_gflop": sum(sizes["syrk_gflop"]),
            "solvers.rrmcex_predict_s": total["rrmcex_predict"],
            "solvers.save_model_s": total["save_model"],
            "bench.load_matrix_csv_s": total["load_matrix_csv"],
            "bench.save_matrix_csv_s": total["save_matrix_csv"],
            "cli.self_s": total["main"],
            "analysis.nmse_s": sum(own[k] for k in ids
                                   if spans[k].phase == "check" and spans[k].name == "nmse"),
            "trace.unwrapped_frac": (spans[root].seconds - covered) / spans[root].seconds,
        })
    for name in per_realization[0]:
        metrics[name] = statistics.median(row[name] for row in per_realization)
    return metrics
