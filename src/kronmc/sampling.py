"""Observation masks, vectorization indexing, and noise injection.

Matrices are vectorized column-major: entry (i, j) of an N x L matrix maps
to vector index (j - 1) N + i (1-based).  A sampling set is an ordered list
of distinct (i, j) pairs; its order defines the rows of the implied binary
selector, and every downstream object indexed by observations inherits it.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import _blas
from .errors import InvalidInputError, check_integer, check_number

__all__ = [
    "SamplingSet",
    "ObservationSet",
    "NoiseSpec",
    "uniform_sample",
    "observe",
]


class SamplingSet:
    """Ordered set of observed (i, j) positions in an N x L matrix (1-based).

    ``entries`` holds the 1-based pairs, as a sequence of (i, j) or an
    S x 2 integer array.  They are validated once and kept as read-only
    0-based index arrays.  Instances are immutable.
    """

    __slots__ = ("n_rows", "n_cols", "_rows0", "_cols0", "_vec0")

    def __init__(self, n_rows, n_cols, entries):
        try:
            pairs = np.asarray(entries, dtype=np.intp)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(
                f"sampling entries must be integer (i, j) pairs: {exc}") from exc
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InvalidInputError(
                f"sampling entries must be (i, j) pairs, got shape {pairs.shape}"
            )
        rows, cols = pairs[:, 0], pairs[:, 1]
        outside = (rows < 1) | (rows > n_rows) | (cols < 1) | (cols > n_cols)
        if outside.any():
            i, j = pairs[np.argmax(outside)]
            raise InvalidInputError(f"entry ({i}, {j}) outside {n_rows} x {n_cols} grid")
        vec0 = (cols - 1) * n_rows + rows - 1
        # a sort costs O(S log S) whatever the grid size; np.unique is far slower
        ordered = np.sort(vec0)
        if np.any(ordered[1:] == ordered[:-1]):
            k = np.setdiff1d(np.arange(len(vec0)), np.unique(vec0, return_index=True)[1])[0]
            raise InvalidInputError(f"sampling entries must be distinct: entry {k + 1}, "
                                    f"({pairs[k, 0]}, {pairs[k, 1]}), repeats an earlier one")
        self._store(n_rows, n_cols, vec0)

    @classmethod
    def _from_vec0(cls, n_rows, n_cols, vec0):
        """The set of 0-based column-major indices ``vec0``, an intp array
        the caller hands over, distinct and on the grid; nothing is checked."""
        self = cls.__new__(cls)
        self._store(n_rows, n_cols, vec0)
        return self

    def _store(self, n_rows, n_cols, vec0):
        cols0, rows0 = np.divmod(vec0, n_rows)
        rows0.flags.writeable = cols0.flags.writeable = vec0.flags.writeable = False
        for name, value in zip(self.__slots__, (n_rows, n_cols, rows0, cols0, vec0)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"SamplingSet is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, SamplingSet):
            return NotImplemented
        return ((self.n_rows, self.n_cols) == (other.n_rows, other.n_cols)
                and np.array_equal(self._vec0, other._vec0))

    def __repr__(self):
        return f"SamplingSet(n_rows={self.n_rows}, n_cols={self.n_cols}, S={len(self)})"

    def __len__(self):
        return len(self._vec0)

    @property
    def row_indices0(self):
        """0-based row indices, in sampling order (read-only)."""
        return self._rows0

    @property
    def col_indices0(self):
        """0-based column indices, in sampling order (read-only)."""
        return self._cols0

    @property
    def vec_indices0(self):
        """0-based column-major vector indices, in sampling order (read-only)."""
        return self._vec0


@dataclass(frozen=True)
class ObservationSet:
    """Observed values paired with their sampling positions."""

    sampling: SamplingSet
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size != len(self.sampling):
            raise InvalidInputError(
                f"{v.size} values for {len(self.sampling)} sampled entries"
            )
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive iid Gaussian noise at the observed entries: disabled, of
    variance ``nu_sq``, or rescaled to an exact SNR target per observed
    entry (over the whole grid it holds in expectation; see ``observe``)."""

    mode: str = "none"
    nu_sq: float = 0.0
    snr: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("none", "variance", "target_snr"):
            raise InvalidInputError(f"unknown noise mode {self.mode!r}")
        if self.mode == "variance":
            check_number("nu_sq", self.nu_sq, "nonnegative")
        if self.mode == "target_snr":
            check_number("snr", self.snr)
        check_integer("seed", self.seed, 0)

    @classmethod
    def none(cls):
        return cls(mode="none")

    @classmethod
    def variance(cls, nu_sq, seed=0):
        return cls(mode="variance", nu_sq=nu_sq, seed=seed)

    @classmethod
    def target_snr(cls, snr, seed=0):
        return cls(mode="target_snr", snr=snr, seed=seed)


def uniform_sample(n_rows, n_cols, count, seed):
    """Draw ``count`` distinct positions uniformly without replacement.

    The sampling order is the draw order; deterministic for a fixed seed.
    """
    check_integer("n_rows", n_rows, 1)
    check_integer("n_cols", n_cols, 1)
    check_integer("seed", seed, 0)
    total = n_rows * n_cols
    if not (isinstance(count, Integral) and not isinstance(count, bool)
            and 0 <= count <= total):
        raise InvalidInputError(f"count must be an integer in 0..{total}, got {count}")
    flat = np.random.default_rng(seed).choice(total, size=count, replace=False)
    # distinct and on the grid by construction
    return SamplingSet._from_vec0(n_rows, n_cols, flat.astype(np.intp, copy=False))


def observe(f, sampling, noise=NoiseSpec.none()):
    """Sample ``f`` at the given positions and add noise drawn there only,
    in sampling order.  In target-SNR mode the S draws are rescaled so that
    their mean square is exactly ||F||^2 / (snr N L)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (sampling.n_rows, sampling.n_cols):
        raise InvalidInputError(
            f"matrix shape {f.shape} does not match sampling grid "
            f"{(sampling.n_rows, sampling.n_cols)}"
        )
    rows0, cols0 = sampling.row_indices0, sampling.col_indices0
    # row-major flat positions: a flat take is twice as fast as f[rows0, cols0]
    values = f.take(rows0 * f.shape[1] + cols0)
    bad = ~np.isfinite(values)
    if bad.any():
        k = np.argmax(bad)
        raise InvalidInputError(
            f"data matrix entry ({rows0[k] + 1}, {cols0[k] + 1}) is not finite")
    if noise.mode == "none" or len(values) == 0:
        return ObservationSet(sampling, values)
    rng = np.random.default_rng(noise.seed)
    if noise.mode == "variance":
        return ObservationSet(
            sampling, values + rng.normal(scale=np.sqrt(noise.nu_sq), size=len(values)))
    cells = f.ravel(order="K")
    signal = _blas.dot(cells, cells)
    check_number("target-snr signal sum(f**2)", signal)
    e = rng.normal(size=len(values))
    scale = np.sqrt(signal * len(e) / (noise.snr * f.size * np.sum(e**2)))
    return ObservationSet(sampling, values + e * scale)
