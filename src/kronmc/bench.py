"""Benchmark datasets, experiment protocols, and CSV plumbing.

A sweep draws a fresh uniform sampling set per realization, observes the
ground truth (optionally with noise), fits the configured method, and
accumulates normalized errors and wall-clock seconds.  Timing covers fit
plus predict only; kernel and feature-map construction happen outside the
clock and are reported separately.
"""

import math
import time
from dataclasses import dataclass, field, replace
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from . import _blas
from .analysis import nmse
from .errors import InvalidInputError, check_number
from .graphs import (Graph, build_laplacian, erdos_renyi, geodesic_distances,
                     heat_adjacency, knn_symmetric)
from .kernels import (Diffusion, KroneckerKernel, _reject_non_finite,
                      features_from_eig, pearson_kernel, spectral_kernel)
from .sampling import (NoiseSpec, ObservationSet, SamplingSet, observe,
                       uniform_sample)
from .solvers import (StepSchedule, _factor_init, _factor_sgd_epochs,
                      _orrmcex_epochs, als_fit, factor_predict, factor_sgd_fit,
                      kkmcex_fit, kkmcex_predict, orrmcex_run, rrmcex_fit,
                      rrmcex_predict)

__all__ = [
    "DatasetBundle",
    "ExperimentConfig",
    "ExperimentResult",
    "derive_seed",
    "generate_synthetic",
    "band_graph",
    "station_day_bundle",
    "synthetic_station_day_bundle",
    "class_agreement_bundle",
    "synthetic_categorical_table",
    "load_matrix_csv",
    "save_matrix_csv",
    "load_triplets_csv",
    "save_triplets_csv",
    "load_sampling_csv",
    "save_sampling_csv",
    "onehot_features",
    "run_sweep",
    "grid_search",
    "run_online",
]

def derive_seed(*parts):
    """Deterministic child seed from a tuple of integer tags."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


@dataclass(frozen=True)
class DatasetBundle:
    """Ground truth matrix with its row/column kernels and optional features.

    ``kernel_builder``, when present, rebuilds (kx, ky) for a new kernel
    parameter so grid search can sweep it.
    """

    f: np.ndarray
    kx: object
    ky: object
    x: np.ndarray = None
    y: np.ndarray = None
    provenance: dict = field(default_factory=dict)
    kernel_builder: object = None

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if f.shape != (self.kx.side, self.ky.side):
            raise InvalidInputError(
                f"matrix shape {f.shape} does not match kernel sides "
                f"({self.kx.side}, {self.ky.side})"
            )
        _reject_non_finite(f, "data matrix")
        object.__setattr__(self, "f", f)

    @property
    def shape(self):
        return self.f.shape


@dataclass(frozen=True)
class ExperimentConfig:
    """Protocol knobs for a sweep: method, sampling percentages, grids, noise."""

    method: str
    ps_grid: tuple
    realizations: int = 1
    mu_grid: tuple = (1e-3,)
    eta_grid: tuple = (1.0,)
    rank: int = 10
    feature_dim: int = 10
    noise: NoiseSpec = NoiseSpec.none()
    seed: int = 0
    epochs: int = 20
    schedule: StepSchedule = StepSchedule.decay(0.5, 10.0)
    max_iters: int = 500
    validation_fraction: float = 0.2

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidInputError(f"unknown method {self.method!r}")
        if not self.ps_grid or not all(0 < p <= 100 for p in self.ps_grid):
            raise InvalidInputError(
                f"sampling percentages ps must lie in (0, 100], got {self.ps_grid}")
        if not self.mu_grid or not self.eta_grid:
            raise InvalidInputError("parameter grids must be nonempty")
        for name in ("mu", "eta"):
            for point in getattr(self, f"{name}_grid"):
                check_number(name, point)
        if self.realizations < 1:
            raise InvalidInputError("need at least one realization")
        for name in ("rank", "feature_dim", "epochs"):
            if getattr(self, name) < 1:
                raise InvalidInputError(
                    f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0 < self.validation_fraction < 1:
            raise InvalidInputError(f"validation_fraction must lie strictly in (0, 1), "
                                    f"got {self.validation_fraction}")


@dataclass
class ExperimentResult:
    """Per-realization rows plus aggregate views."""

    rows: list
    estimates: dict = field(default_factory=dict)

    def summary(self):
        """Mean error and total seconds per (method, P_s)."""
        out = {}
        for row in self.rows:
            key = (row["method"], row["p_s"])
            out.setdefault(key, []).append(row)
        return {
            key: {
                "nmse": float(np.mean([r["nmse"] for r in group])),
                "seconds": float(np.sum([r["seconds"] for r in group])),
                "mu": group[0]["mu"],
                "eta": group[0]["eta"],
            }
            for key, group in out.items()
        }

    def write_csv(self, path):
        keys = ("method", "p_s", "realization", "nmse", "seconds", "mu", "eta")
        _write_csv(path, ([r[k] for k in keys] for r in self.rows),
                   ("method", "P_s", *keys[2:]))


def generate_synthetic(n, l, graph_p, eta, seed):
    """Random smooth matrix: two random graphs, diffusion kernels, F = Kx G Ky.

    G has iid standard Gaussian entries.  Deterministic for a fixed seed; the
    bundle carries a kernel builder so the diffusion weight can be re-swept.
    """
    if n < 2 or l < 2:
        raise InvalidInputError("synthetic grids need at least 2 rows and columns")
    rng = np.random.default_rng(seed)
    seed_x, seed_y = (int(s) for s in rng.integers(2**63, size=2))
    builder = _diffusion_builder(build_laplacian(erdos_renyi(n, graph_p, seed_x)),
                                 build_laplacian(erdos_renyi(l, graph_p, seed_y)))
    kx, ky = builder(eta)
    gamma = rng.normal(size=(n, l))
    f = _blas.gemm(_blas.gemm(kx.matrix, gamma), ky.matrix)
    return DatasetBundle(
        f, kx, ky,
        provenance={"generator": "synthetic", "n": n, "l": l,
                    "graph_p": graph_p, "eta": eta, "seed": seed},
        kernel_builder=builder,
    )


def _diffusion_builder(lap_x, lap_y):
    """Builder eta -> (kx, ky) of diffusion kernels on two fixed Laplacians."""
    return lambda eta: (spectral_kernel(lap_x, Diffusion(eta)),
                        spectral_kernel(lap_y, Diffusion(eta)))


def band_graph(n, half_width):
    """Chain-like graph joining each vertex to its ``half_width`` neighbours
    on either side (unweighted)."""
    if half_width < 0:
        raise InvalidInputError("band half-width must be nonnegative")
    idx = np.arange(n)
    adj = (np.abs(idx[:, None] - idx[None, :]) <= half_width).astype(float)
    np.fill_diagonal(adj, 0.0)
    return Graph(adj)


def station_day_bundle(f, station_distances, k=8, day_band=10, eta=1.0):
    """Measurement-station recipe: rows are stations, columns are days.

    The station kernel diffuses over a heat-weighted adjacency built from
    hop-count geodesics on the symmetrized k-nearest graph of the supplied
    pairwise distances; the day kernel diffuses over a +/- ``day_band``
    band graph.  ``f`` is the user-supplied readings matrix.
    """
    f = np.asarray(f, dtype=float)
    n, l = f.shape
    hops = geodesic_distances(knn_symmetric(station_distances, k))
    builder = _diffusion_builder(build_laplacian(heat_adjacency(hops, n)),
                                 build_laplacian(band_graph(l, day_band)))
    kx, ky = builder(eta)
    return DatasetBundle(f, kx, ky,
                         provenance={"generator": "station-day", "k": k,
                                     "day_band": day_band, "eta": eta},
                         kernel_builder=builder)


def synthetic_station_day_bundle(n_stations=30, n_days=60, k=8, day_band=10,
                                 eta=1.0, seed=0):
    """Synthetic stand-in with the station-day shape, for tests and demos.

    Stations get random planar coordinates; the readings are drawn smooth
    against the recipe's own kernels so completion is meaningful.
    """
    rng = np.random.default_rng(seed)
    coords = rng.uniform(size=(n_stations, 2))
    diffs = coords[:, None, :] - coords[None, :, :]
    distances = np.sqrt(np.sum(diffs**2, axis=-1))
    np.fill_diagonal(distances, 0.0)
    bundle = station_day_bundle(np.zeros((n_stations, n_days)), distances, k=k,
                                day_band=day_band, eta=eta)
    f = _blas.gemm(_blas.gemm(bundle.kx.matrix, rng.normal(size=(n_stations, n_days))),
                   bundle.ky.matrix)
    return replace(bundle, f=f, provenance={**bundle.provenance,
                                            "generator": "station-day-synthetic",
                                            "seed": seed})


def class_agreement_bundle(rows, labels, subsample=400, seed=0):
    """Clustering-style recipe: the target is the label-agreement matrix.

    The categorical ``rows`` are one-hot encoded; both side kernels are the
    Pearson correlation of the encoded rows (rows and columns index the same
    items), and the target has +1 where two items share a label and -1
    elsewhere.  Items are subsampled to ``subsample`` (seeded) to keep the
    grid at desk scale.
    """
    rows = list(rows)
    labels = list(labels)
    if len(rows) != len(labels):
        raise InvalidInputError(f"{len(rows)} rows but {len(labels)} labels")
    if subsample < len(rows):
        keep = np.random.default_rng(seed).choice(len(rows), size=subsample,
                                                  replace=False)
        keep.sort()
        rows = [rows[i] for i in keep]
        labels = [labels[i] for i in keep]
    x = onehot_features(rows)
    kx = pearson_kernel(x)
    lab = np.array(labels)
    f = np.where(lab[:, None] == lab[None, :], 1.0, -1.0)
    return DatasetBundle(f, kx, kx, x=x, y=x,
                         provenance={"generator": "class-agreement",
                                     "subsample": len(rows), "seed": seed})


def synthetic_categorical_table(n_rows=120, n_attrs=22, seed=0):
    """Random categorical table plus binary labels, shaped like a species
    catalogue; a stand-in used by tests and demos.

    Labels are a thresholded random linear score of the one-hot encoding,
    so attribute similarity is informative about label agreement.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 7, size=n_attrs)
    rows = [tuple(f"a{a}v{rng.integers(sizes[a])}" for a in range(n_attrs))
            for _ in range(n_rows)]
    enc = onehot_features(rows)
    score = _blas.gemv(enc, rng.normal(size=enc.shape[1]))
    labels = [int(v) for v in score > np.median(score)]
    return rows, labels


def _read_csv(path, convert=float, first=1, last=None):
    """Rows of the CSV file ``path`` and their 1-based line numbers.

    Reads lines ``first`` to ``last`` (None: to the end) and skips blank
    ones.  Each line is split on commas and its fields converted by
    ``convert``: one function for every field, with as many fields on each
    line as on the first, or a tuple of one function per field.  A line of
    another field count, or with a field ``convert`` rejects, raises an
    InvalidInputError naming the path and line.
    """
    per_field = not callable(convert)
    width = len(convert) if per_field else None
    rows, linenos = [], []
    with open(path) as fh:
        for lineno, line in islice(enumerate(fh, start=1), first - 1, last):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            if len(fields) != width:
                raise InvalidInputError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(fields)}")
            try:
                rows.append([c(v) for c, v in zip(convert, fields)] if per_field
                            else list(map(convert, fields)))
            except ValueError as exc:
                raise InvalidInputError(f"{path}: line {lineno}: {exc}") from exc
            linenos.append(lineno)
    return rows, linenos


def _finite(text):
    """The float ``text`` spells; NaN and infinity are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"value {text.strip()!r} is not finite")
    return value


def _write_csv(path, rows, header=None):
    """Write the ``header`` row, if given, and then ``rows`` to ``path``.

    A row is a sequence of Python scalars, written by ``str`` and joined by
    commas, so a float is written by its ``repr`` and reads back exactly.
    """
    with open(path, "w") as fh:
        if header is not None:
            rows = chain([header], rows)
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def save_matrix_csv(path, m):
    np.savetxt(path, np.atleast_2d(np.asarray(m, dtype=float)),
               fmt="%.17g", delimiter=",")


def load_matrix_csv(path):
    """Dense CSV matrix; raises with the offending line number on bad input."""
    rows, _ = _read_csv(path)
    if not rows:
        raise InvalidInputError(f"{path}: empty matrix file")
    return np.array(rows)


def _read_entries(path, n_rows, n_cols, convert, first=1):
    """Rows ``i,j,...`` of ``path`` from line ``first`` on, read by
    ``_read_csv``; an (i, j) outside the grid or seen on an earlier line
    raises an InvalidInputError naming the path and line."""
    rows, linenos = _read_csv(path, convert, first)
    seen = set()
    for lineno, (i, j, *_) in zip(linenos, rows):
        if not (1 <= i <= n_rows and 1 <= j <= n_cols):
            raise InvalidInputError(f"{path}: line {lineno}: index ({i}, {j}) outside "
                                    f"{n_rows} x {n_cols} grid")
        if (i, j) in seen:
            raise InvalidInputError(f"{path}: line {lineno}: duplicate entry ({i}, {j})")
        seen.add((i, j))
    return rows


def _triplet_rows(sampling, values):
    return zip((sampling.row_indices0 + 1).tolist(), (sampling.col_indices0 + 1).tolist(),
               np.asarray(values, dtype=float).tolist())


def save_triplets_csv(path, obs):
    _write_csv(path, _triplet_rows(obs.sampling, obs.values))


def load_triplets_csv(path, n_rows, n_cols, first=1):
    """Observation triplets ``i,j,value`` (1-based) from line ``first`` on;
    duplicates and non-finite values are rejected."""
    rows = _read_entries(path, n_rows, n_cols, (int, int, _finite), first)
    return ObservationSet(SamplingSet(n_rows, n_cols, [r[:2] for r in rows]),
                          np.array([r[2] for r in rows], dtype=float))


def save_sampling_csv(path, sampling):
    _write_csv(path, sampling.entries)


def load_sampling_csv(path, n_rows, n_cols):
    """Sampling pairs ``i,j`` (1-based), one per line, in sampling order."""
    return SamplingSet(n_rows, n_cols, _read_entries(path, n_rows, n_cols, (int, int)))


def onehot_features(rows):
    """Binary indicator matrix for rows of categorical tuples.

    One column per (attribute, category) pair; categories are ordered by
    first appearance within each attribute.
    """
    rows = list(rows)
    if not rows:
        raise InvalidInputError("need at least one row")
    arity = len(rows[0])
    for r, row in enumerate(rows):
        if len(row) != arity:
            raise InvalidInputError(
                f"row {r + 1} has {len(row)} attributes, expected {arity}"
            )
    categories = [[] for _ in range(arity)]
    for row in rows:
        for a, cat in enumerate(row):
            if cat not in categories[a]:
                categories[a].append(cat)
    offsets = np.cumsum([0] + [len(c) for c in categories])
    out = np.zeros((len(rows), int(offsets[-1])))
    for r, row in enumerate(rows):
        for a, cat in enumerate(row):
            out[r, offsets[a] + categories[a].index(cat)] = 1.0
    return out


class _Method(NamedTuple):
    """How every protocol drives one method: ``prepare(kx, ky, config)``
    builds its state before the clock starts, ``fit(state, obs, mu, config,
    seed)`` returns a model and ``predict(model)`` its N x L estimate, and
    ``stream(state, obs, mu, config, seed, orders, eval_hook, eval_every)``
    runs an SGD method over one visit order per epoch (None: batch only).
    Each field names its solver inside a function, so the name is looked up
    here at call time and a solver patched in this module (by a tracer or a
    test) is seen by every protocol."""

    prepare: object
    fit: object
    predict: object
    stream: object = None


def _features(kx, ky, config):
    return features_from_eig(kx, ky, config.feature_dim)


_METHOD_TABLE = {
    "kkmcex": _Method(
        lambda kx, ky, config: KroneckerKernel(kx, ky),
        lambda kernel, obs, mu, config, seed: kkmcex_fit(kernel, obs, mu),
        lambda model: kkmcex_predict(model)),
    "rrmcex": _Method(
        _features,
        lambda features, obs, mu, config, seed: rrmcex_fit(features, obs, mu),
        lambda model: rrmcex_predict(model)),
    "orrmcex": _Method(
        _features,
        lambda features, obs, mu, config, seed: orrmcex_run(
            features, obs, config.schedule, mu, config.epochs, seed=seed),
        lambda model: rrmcex_predict(model),
        lambda features, obs, mu, config, seed, orders, hook, every: _orrmcex_epochs(
            features, obs, config.schedule, mu, orders, hook, every)),
    "als": _Method(
        lambda kx, ky, config: (kx, ky),
        lambda kernels, obs, mu, config, seed: als_fit(
            obs, *kernels, config.rank, mu, max_iters=config.max_iters, seed=seed),
        lambda model: factor_predict(model)),
    "factor_sgd": _Method(
        lambda kx, ky, config: None,
        lambda _, obs, mu, config, seed: factor_sgd_fit(
            obs, config.rank, mu, config.schedule, config.epochs, seed),
        lambda model: factor_predict(model),
        lambda _, obs, mu, config, seed, orders, hook, every: _factor_sgd_epochs(
            obs, *_factor_init(obs.sampling.n_rows, obs.sampling.n_cols,
                               config.rank, seed),
            mu, config.schedule, orders, hook, every)),
}

METHODS = tuple(_METHOD_TABLE)


def _kernels_for_eta(config, dataset):
    """The builder eta -> (kx, ky) one protocol run uses: the dataset's own
    kernels at its base eta, else its kernel builder's.  A dataset without a
    builder has only its own kernels, so its eta grid must be one point."""
    own = (dataset.kx, dataset.ky)
    if dataset.kernel_builder is None:
        if len(config.eta_grid) > 1:
            raise InvalidInputError(
                f"eta: the dataset has no kernel builder, so the eta grid must be "
                f"a single point, got {config.eta_grid}")
        return lambda eta: own
    base_eta = dataset.provenance.get("eta")
    return lambda eta: own if eta == base_eta else dataset.kernel_builder(eta)


def _require_one_point(config, protocol):
    """Reject a P_s, mu or eta grid of more than one point, naming its key."""
    for key in ("ps", "mu", "eta"):
        grid = getattr(config, f"{key}_grid")
        if len(grid) > 1:
            raise InvalidInputError(f"{key}: {protocol} runs one grid point, got {grid}")


def _sample_count(p_s, n, l):
    count = int(round(p_s / 100.0 * n * l))
    return min(max(count, 1), n * l)


def grid_search(config, dataset, p_s=None):
    """Pick (mu, eta) minimizing held-out error on one observation draw.

    The config's ``validation_fraction`` of the observed entries is held
    out; each grid point is fit on the rest and scored on the holdout.  Ties
    break toward the larger mu.
    """
    if p_s is None:
        p_s = config.ps_grid[0]
    kernels_for = _kernels_for_eta(config, dataset)
    n, l = dataset.shape
    count = _sample_count(p_s, n, l)
    sampling = uniform_sample(n, l, count, derive_seed(config.seed, 9001))
    noise = replace(config.noise, seed=derive_seed(config.seed, 9002))
    obs = observe(dataset.f, sampling, noise)

    n_val = int(round(config.validation_fraction * count))
    if n_val == 0 or n_val == count:
        raise InvalidInputError(
            f"validation split is degenerate ({n_val} of {count} observations)"
        )
    rows0, cols0 = obs.sampling.row_indices0, obs.sampling.col_indices0
    val_rows, val_cols = rows0[:n_val], cols0[:n_val]
    val_values = obs.values[:n_val]
    fit_pairs = np.column_stack((rows0[n_val:], cols0[n_val:])) + 1
    fit_obs = ObservationSet(SamplingSet(n, l, fit_pairs), obs.values[n_val:])
    val_norm = float(np.sum(val_values**2))
    if val_norm == 0:
        raise InvalidInputError("validation values are all zero; score undefined")

    method = _METHOD_TABLE[config.method]
    best = None
    for eta in config.eta_grid:
        state = method.prepare(*kernels_for(eta), config)
        for mu in config.mu_grid:
            model = method.fit(state, fit_obs, mu, config, derive_seed(config.seed, 9003))
            est = method.predict(model)
            score = float(np.sum((est[val_rows, val_cols] - val_values) ** 2)) / val_norm
            if best is None or score < best[0] or (score == best[0] and mu > best[1]):
                best = (score, mu, eta)
    return best[1], best[2]


def run_sweep(config, dataset, keep_estimates=False):
    """Run the full protocol: per P_s and realization, sample, observe, fit.

    Wall-clock seconds cover fit plus predict only.  When a parameter grid
    has several points the choice is made once per P_s by grid search.
    Fully reproducible from (config, seed).
    """
    n, l = dataset.shape
    kernels_for = _kernels_for_eta(config, dataset)
    method = _METHOD_TABLE[config.method]
    result = ExperimentResult(rows=[])
    for ps_idx, p_s in enumerate(config.ps_grid):
        if len(config.mu_grid) == 1 and len(config.eta_grid) == 1:
            mu, eta = config.mu_grid[0], config.eta_grid[0]
        else:
            mu, eta = grid_search(config, dataset, p_s=p_s)
        state = method.prepare(*kernels_for(eta), config)
        count = _sample_count(p_s, n, l)
        estimates = []
        for r in range(config.realizations):
            sampling = uniform_sample(n, l, count,
                                      derive_seed(config.seed, ps_idx, r, 0))
            noise = replace(config.noise, seed=derive_seed(config.seed, ps_idx, r, 1))
            obs = observe(dataset.f, sampling, noise)
            fit_seed = derive_seed(config.seed, ps_idx, r, 2)
            tic = time.perf_counter()
            est = method.predict(method.fit(state, obs, mu, config, fit_seed))
            seconds = time.perf_counter() - tic
            result.rows.append({
                "method": config.method,
                "p_s": float(p_s),
                "realization": r,
                "nmse": nmse(est, dataset.f),
                "seconds": seconds,
                "mu": float(mu),
                "eta": float(eta),
            })
            if keep_estimates:
                estimates.append(est)
        if keep_estimates:
            result.estimates[(config.method, float(p_s))] = estimates
    return result


def run_online(config, dataset, stride=None):
    """Reveal one observation per iteration, cycling, and trace the error.

    The config's P_s, mu and eta grids must each be one point.  The reveal
    order is a seeded permutation of the sampling set repeated circularly.
    Trace rows are (iteration, elapsed seconds, nmse) recorded every
    ``stride`` iterations and at the last one (None: last only); the elapsed
    clock stops while a row is evaluated.
    """
    method = _METHOD_TABLE[config.method]
    if method.stream is None:
        online = " and ".join(name for name, m in _METHOD_TABLE.items() if m.stream)
        raise InvalidInputError(f"online protocol supports {online}, got {config.method!r}")
    if stride is not None and stride < 1:
        raise InvalidInputError(f"stride must be at least 1, got {stride}")
    _require_one_point(config, "the online protocol")
    n, l = dataset.shape
    count = _sample_count(config.ps_grid[0], n, l)
    sampling = uniform_sample(n, l, count, derive_seed(config.seed, 0, 0, 0))
    noise = replace(config.noise, seed=derive_seed(config.seed, 0, 0, 1))
    obs = observe(dataset.f, sampling, noise)
    order = np.random.default_rng(derive_seed(config.seed, 0, 0, 2)).permutation(count)
    kernels = _kernels_for_eta(config, dataset)(config.eta_grid[0])
    state = method.prepare(*kernels, config)
    trace = []
    elapsed = 0.0
    tic = time.perf_counter()

    def record(iteration, model):
        nonlocal elapsed, tic
        elapsed += time.perf_counter() - tic
        trace.append({"iteration": iteration, "seconds": elapsed,
                      "nmse": nmse(method.predict(model), dataset.f)})
        tic = time.perf_counter()

    # without a stride the hook stays off: ORRMCEX would fire it every epoch
    model = method.stream(state, obs, config.mu_grid[0], config, derive_seed(config.seed, 0, 0, 3),
                          [order] * config.epochs,
                          None if stride is None else record, stride)
    total = config.epochs * count
    if not trace or trace[-1]["iteration"] < total:
        record(total, model)
    return trace


def write_trace_csv(path, trace):
    keys = ("iteration", "seconds", "nmse")
    _write_csv(path, ([row[k] for k in keys] for row in trace), keys)
