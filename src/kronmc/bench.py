"""Benchmark datasets, experiment protocols, and CSV plumbing.

A sweep draws a fresh uniform sampling set per realization, observes the
ground truth (optionally with noise), fits the configured method, and
accumulates normalized errors and wall-clock seconds.  Timing covers fit
plus predict only; kernel and feature-map construction happen outside the
clock and are reported separately.
"""

import math
import time
from dataclasses import dataclass, replace
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from . import _blas
from .analysis import nmse
from .errors import InvalidInputError, check_integer, check_number
from .graphs import (Graph, build_laplacian, erdos_renyi, geodesic_distances,
                     heat_adjacency, knn_symmetric)
from .kernels import (Diffusion, KroneckerKernel, _reject_non_finite,
                      features_from_eig, pearson_kernel, spectral_kernel)
from .sampling import (NoiseSpec, ObservationSet, SamplingSet, observe,
                       uniform_sample)
from .solvers import (StepSchedule, als_fit, factor_predict, factor_sgd_fit,
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
    "onehot_features",
    "run_fit",
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

    ``kernel_builder``, when present, gives (kx, ky) at a kernel parameter
    eta, the bundle's own at the eta they were built at; every protocol
    takes its kernels from it.  Without one the bundle's own are used.
    """

    f: np.ndarray
    kx: object
    ky: object
    x: np.ndarray = None
    y: np.ndarray = None
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
        for name in ("realizations", "rank", "feature_dim", "epochs", "max_iters"):
            check_integer(name, getattr(self, name), 1)
        check_integer("seed", self.seed, 0)
        if not 0 < self.validation_fraction < 1:
            raise InvalidInputError(f"validation_fraction must lie strictly in (0, 1), "
                                    f"got {self.validation_fraction}")


@dataclass
class ExperimentResult:
    """Per-realization rows plus aggregate views."""

    rows: list

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
    for name, value, least in (("n", n, 2), ("l", l, 2), ("seed", seed, 0)):
        check_integer(name, value, least)
    if not 0 <= graph_p <= 1:
        raise InvalidInputError(f"graph_p must lie in [0, 1], got {graph_p}")
    rng = np.random.default_rng(seed)
    seed_x, seed_y = (int(s) for s in rng.integers(2**63, size=2))
    lap_x, lap_y = (build_laplacian(erdos_renyi(size, graph_p, side_seed))
                    for size, side_seed in ((n, seed_x), (l, seed_y)))
    (kx, ky), builder = _diffusion_builder(lap_x, lap_y, eta)
    gamma = rng.normal(size=(n, l))
    f = _blas.gemm(_blas.gemm(kx.matrix, gamma), ky.matrix)
    return DatasetBundle(f, kx, ky, kernel_builder=builder)


def _diffusion_builder(lap_x, lap_y, eta):
    """The diffusion kernels (kx, ky) at ``eta`` on two fixed Laplacians, and
    a builder eta' -> (kx, ky) on them that hands back those same kernels at
    ``eta``, so a protocol at the bundle's own eta never rebuilds them."""
    def build(at):
        # the larger side first, before the smaller side's spectrum is held
        swap = lap_y.side > lap_x.side
        first, second = (spectral_kernel(lap, Diffusion(at))
                         for lap in ((lap_y, lap_x) if swap else (lap_x, lap_y)))
        return (second, first) if swap else (first, second)
    own = build(eta)
    return own, lambda at: own if at == eta else build(at)


def band_graph(n, half_width):
    """Chain-like graph joining each vertex to its ``half_width`` neighbours
    on either side (unweighted)."""
    check_integer("vertex count n", n, 1)
    check_integer("band half-width", half_width, 0)
    adj = np.zeros((n, n))
    for k in range(1, min(half_width, n - 1) + 1):
        np.fill_diagonal(adj[k:], 1.0)
        np.fill_diagonal(adj[:, k:], 1.0)
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
    lap_x = build_laplacian(heat_adjacency(hops, n))
    del hops
    (kx, ky), builder = _diffusion_builder(lap_x, build_laplacian(band_graph(l, day_band)), eta)
    return DatasetBundle(f, kx, ky, kernel_builder=builder)


def synthetic_station_day_bundle(n_stations=30, n_days=60, k=8, day_band=10,
                                 eta=1.0, seed=0):
    """Synthetic stand-in with the station-day shape, for tests and demos.

    Stations get random planar coordinates; the readings are drawn smooth
    against the recipe's own kernels so completion is meaningful.
    """
    for name, value, least in (("n_stations", n_stations, 1), ("n_days", n_days, 1),
                               ("seed", seed, 0)):
        check_integer(name, value, least)
    rng = np.random.default_rng(seed)
    coords = rng.uniform(size=(n_stations, 2))
    # one coordinate at a time, with no n x n x 2 array of differences
    distances = np.zeros((n_stations, n_stations))
    for c in coords.T:
        distances += np.subtract.outer(c, c) ** 2
    np.sqrt(distances, out=distances)
    np.fill_diagonal(distances, 0.0)
    bundle = station_day_bundle(np.zeros((n_stations, n_days)), distances, k=k,
                                day_band=day_band, eta=eta)
    del distances
    f = _blas.gemm(_blas.gemm(bundle.kx.matrix, rng.normal(size=(n_stations, n_days))),
                   bundle.ky.matrix)
    return replace(bundle, f=f)


def class_agreement_bundle(rows, labels, subsample=400, seed=0):
    """Clustering-style recipe: the target is the label-agreement matrix.

    The categorical ``rows`` are one-hot encoded; both side kernels are the
    Pearson correlation of the encoded rows (rows and columns index the same
    items), and the target has +1 where two items share a label and -1
    elsewhere.  Items are subsampled to ``subsample`` (seeded) to keep the
    grid at desk scale.
    """
    check_integer("seed", seed, 0)
    rows = list(rows)
    labels = list(labels)
    if len(rows) != len(labels):
        raise InvalidInputError(f"{len(rows)} rows but {len(labels)} labels")
    check_integer("subsample", subsample, 1)
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
    return DatasetBundle(f, kx, kx, x=x, y=x)


def synthetic_categorical_table(n_rows=120, n_attrs=22, seed=0):
    """Random categorical table plus binary labels, shaped like a species
    catalogue; a stand-in used by tests and demos.

    Labels are a thresholded random linear score of the one-hot encoding,
    so attribute similarity is informative about label agreement.
    """
    check_integer("seed", seed, 0)
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


def _triplet_rows(sampling, values):
    return zip((sampling.row_indices0 + 1).tolist(), (sampling.col_indices0 + 1).tolist(),
               np.asarray(values, dtype=float).tolist())


def save_triplets_csv(path, obs):
    _write_csv(path, _triplet_rows(obs.sampling, obs.values))


def load_triplets_csv(path, n_rows, n_cols, first=1):
    """Observation triplets ``i,j,value`` (1-based) from line ``first`` on.
    A malformed line, an (i, j) outside the grid or seen on an earlier line
    and a non-finite value raise an InvalidInputError naming the path and
    line."""
    rows, linenos = _read_csv(path, (int, int, _finite), first)
    seen = set()
    for lineno, (i, j, _) in zip(linenos, rows):
        if not (1 <= i <= n_rows and 1 <= j <= n_cols):
            raise InvalidInputError(f"{path}: line {lineno}: index ({i}, {j}) outside "
                                    f"{n_rows} x {n_cols} grid")
        if (i, j) in seen:
            raise InvalidInputError(f"{path}: line {lineno}: duplicate entry ({i}, {j})")
        seen.add((i, j))
    return ObservationSet(SamplingSet(n_rows, n_cols, [r[:2] for r in rows]),
                          np.array([r[2] for r in rows], dtype=float))


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
    """How every protocol, ``run_fit`` among them, drives one method:
    ``prepare(kx, ky, config)`` builds its state before the clock starts,
    ``fit(state, obs, mu, config, seed)`` returns a model and
    ``predict(model)`` its N x L estimate.  An ``online`` (SGD) method's fit
    also takes the ``eval_hook, eval_every`` of its solver.  Each field
    names its solver inside a function, so a solver patched in this module
    (by a tracer or a test) is looked up at call time and seen by every
    protocol."""

    prepare: object
    fit: object
    predict: object
    online: bool = False


def _features(kx, ky, config):
    nl = kx.side * ky.side
    if config.feature_dim > nl:
        raise InvalidInputError(f"dim: feature dimension must lie in 1..{nl} (N*L), "
                                f"got {config.feature_dim}")
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
        lambda features, obs, mu, config, seed, hook=None, every=None: orrmcex_run(
            features, obs, config.schedule, mu, config.epochs, hook, seed, every),
        lambda model: rrmcex_predict(model), online=True),
    "als": _Method(
        lambda kx, ky, config: (kx, ky),
        lambda kernels, obs, mu, config, seed: als_fit(
            obs, *kernels, config.rank, mu, max_iters=config.max_iters, seed=seed),
        lambda model: factor_predict(model)),
    "factor_sgd": _Method(
        lambda kx, ky, config: None,
        lambda _, obs, mu, config, seed, hook=None, every=None: factor_sgd_fit(
            obs, config.rank, mu, config.schedule, config.epochs, seed, hook, every),
        lambda model: factor_predict(model), online=True),
}

METHODS = tuple(_METHOD_TABLE)


def _kernels_for_eta(config, dataset, eta):
    """(kx, ky) at ``eta``: the dataset's kernel builder's, else its own
    kernels.  A dataset without a builder has only its own kernels, so its
    eta grid must be one point."""
    if dataset.kernel_builder is not None:
        return dataset.kernel_builder(eta)
    if len(config.eta_grid) > 1:
        raise InvalidInputError(
            f"eta: the dataset has no kernel builder, so the eta grid must be "
            f"a single point, got {config.eta_grid}")
    return dataset.kx, dataset.ky


def _require_one_point(config, protocol):
    """Reject a P_s, mu or eta grid of more than one point, naming its key."""
    for key in ("ps", "mu", "eta"):
        grid = getattr(config, f"{key}_grid")
        if len(grid) > 1:
            raise InvalidInputError(f"{key}: {protocol} runs one grid point, got {grid}")


def _sample_count(p_s, n, l):
    count = int(round(p_s / 100.0 * n * l))
    return min(max(count, 1), n * l)


def _draw(config, dataset, p_s, sample_seed, noise_seed):
    """Observations of ``p_s`` percent of the dataset's entries: a uniform
    sampling drawn from ``sample_seed`` under the config's noise drawn from
    ``noise_seed``."""
    n, l = dataset.shape
    sampling = uniform_sample(n, l, _sample_count(p_s, n, l), sample_seed)
    return observe(dataset.f, sampling, replace(config.noise, seed=noise_seed))


def run_fit(config, dataset, obs=None):
    """One fit at the config's single grid point, seeded by the config's
    seed: the model and its N x L estimate.  Fits ``obs``, else draws the
    sampling from the seed and the noise from ``derive_seed(seed, 1)``."""
    _require_one_point(config, "fit")
    method = _METHOD_TABLE[config.method]
    state = method.prepare(*_kernels_for_eta(config, dataset, config.eta_grid[0]), config)
    if obs is None:
        obs = _draw(config, dataset, config.ps_grid[0], config.seed,
                    derive_seed(config.seed, 1))
    model = method.fit(state, obs, config.mu_grid[0], config, config.seed)
    return model, method.predict(model)


def grid_search(config, dataset, p_s=None):
    """Pick (mu, eta) minimizing held-out error on one observation draw.

    The config's ``validation_fraction`` of the observed entries is held
    out; each grid point is fit on the rest and scored on the holdout.  Ties
    break toward the larger mu.
    """
    if p_s is None:
        p_s = config.ps_grid[0]
    method = _METHOD_TABLE[config.method]
    states = [(eta, method.prepare(*_kernels_for_eta(config, dataset, eta), config))
              for eta in config.eta_grid]
    obs = _draw(config, dataset, p_s, derive_seed(config.seed, 9001),
                derive_seed(config.seed, 9002))
    count = len(obs.values)
    n_val = int(round(config.validation_fraction * count))
    if n_val == 0 or n_val == count:
        raise InvalidInputError(
            f"validation split is degenerate ({n_val} of {count} observations)"
        )
    s = obs.sampling
    val_rows, val_cols = s.row_indices0[:n_val], s.col_indices0[:n_val]
    val_values = obs.values[:n_val]
    fit_obs = ObservationSet(SamplingSet._from_vec0(*dataset.shape, s.vec_indices0[n_val:]),
                             obs.values[n_val:])
    val_norm = float(np.sum(val_values**2))
    if val_norm == 0:
        raise InvalidInputError("validation values are all zero; score undefined")

    best = None
    for eta, state in states:
        for mu in config.mu_grid:
            model = method.fit(state, fit_obs, mu, config, derive_seed(config.seed, 9003))
            est = method.predict(model)
            score = float(np.sum((est[val_rows, val_cols] - val_values) ** 2)) / val_norm
            if best is None or score < best[0] or (score == best[0] and mu > best[1]):
                best = (score, mu, eta)
    return best[1], best[2]


def run_sweep(config, dataset):
    """Run the full protocol: per P_s and realization, sample, observe, fit.

    Wall-clock seconds cover fit plus predict only.  When a parameter grid
    has several points the choice is made once per P_s by grid search.
    Fully reproducible from (config, seed).
    """
    method = _METHOD_TABLE[config.method]
    result = ExperimentResult(rows=[])
    for ps_idx, p_s in enumerate(config.ps_grid):
        if len(config.mu_grid) == 1 and len(config.eta_grid) == 1:
            mu, eta = config.mu_grid[0], config.eta_grid[0]
        else:
            mu, eta = grid_search(config, dataset, p_s=p_s)
        state = method.prepare(*_kernels_for_eta(config, dataset, eta), config)
        for r in range(config.realizations):
            obs = _draw(config, dataset, p_s, derive_seed(config.seed, ps_idx, r, 0),
                        derive_seed(config.seed, ps_idx, r, 1))
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
    return result


def run_online(config, dataset, stride=None):
    """Reveal one observation per iteration and trace the error.

    The config's P_s, mu and eta grids must each be one point.  Runs the SGD
    method's fit, seeded by ``derive_seed(seed, 0, 0, 2)``, whose evaluation
    hook records a trace row (iteration, elapsed seconds, nmse) every
    ``stride`` iterations; the last iteration is recorded too (None: last
    only).  The elapsed clock stops while a row is evaluated.
    """
    method = _METHOD_TABLE[config.method]
    if not method.online:
        online = " and ".join(name for name, m in _METHOD_TABLE.items() if m.online)
        raise InvalidInputError(f"online protocol supports {online}, got {config.method!r}")
    if stride is not None:
        check_integer("stride", stride, 1)
    _require_one_point(config, "the online protocol")
    state = method.prepare(*_kernels_for_eta(config, dataset, config.eta_grid[0]), config)
    obs = _draw(config, dataset, config.ps_grid[0], derive_seed(config.seed, 0, 0, 0),
                derive_seed(config.seed, 0, 0, 1))
    trace, elapsed, tic = [], 0.0, time.perf_counter()

    def record(iteration, model):
        nonlocal elapsed, tic
        elapsed += time.perf_counter() - tic
        trace.append({"iteration": iteration, "seconds": elapsed,
                      "nmse": nmse(method.predict(model), dataset.f)})
        tic = time.perf_counter()

    model = method.fit(state, obs, config.mu_grid[0], config, derive_seed(config.seed, 0, 0, 2),
                       None if stride is None else record, stride)
    total = config.epochs * len(obs.values)
    if not trace or trace[-1]["iteration"] < total:
        record(total, model)
    return trace


def write_trace_csv(path, trace):
    keys = ("iteration", "seconds", "nmse")
    _write_csv(path, ([row[k] for k in keys] for row in trace), keys)
