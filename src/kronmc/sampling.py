"""Observation masks, vectorization indexing, and noise injection.

Matrices are vectorized column-major: entry (i, j) of an N x L matrix maps
to vector index (j - 1) N + i (1-based).  A sampling set is an ordered list
of distinct (i, j) pairs; its order defines the rows of the implied binary
selector, and every downstream object indexed by observations inherits it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, check_number

__all__ = [
    "vec_index",
    "SamplingSet",
    "ObservationSet",
    "NoiseSpec",
    "uniform_sample",
    "observe",
]


def vec_index(i, j, n_rows):
    """Column-major vector index of entry (i, j), all 1-based."""
    if not 1 <= i <= n_rows:
        raise InvalidInputError(f"row index {i} outside 1..{n_rows}")
    if j < 1:
        raise InvalidInputError(f"column index {j} must be >= 1")
    return (j - 1) * n_rows + i


class SamplingSet:
    """Ordered set of observed (i, j) positions in an N x L matrix (1-based).

    ``entries`` holds the 1-based pairs, as a sequence of (i, j) or an
    S x 2 integer array.  They are validated once and kept as read-only
    0-based index arrays; the ``entries`` tuple is rebuilt from those on
    first use.  Instances are immutable.
    """

    __slots__ = ("n_rows", "n_cols", "_rows0", "_cols0", "_vec0", "_entries")

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
        rows0, cols0 = rows - 1, cols - 1
        vec0 = cols0 * n_rows + rows0
        # a sort costs O(S log S) whatever the grid size; np.unique is far slower
        ordered = np.sort(vec0)
        if np.any(ordered[1:] == ordered[:-1]):
            raise InvalidInputError("sampling entries must be distinct")
        rows0.flags.writeable = cols0.flags.writeable = vec0.flags.writeable = False
        for name, value in zip(self.__slots__, (n_rows, n_cols, rows0, cols0, vec0, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"SamplingSet is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, SamplingSet):
            return NotImplemented
        return ((self.n_rows, self.n_cols) == (other.n_rows, other.n_cols)
                and np.array_equal(self._vec0, other._vec0))

    def __hash__(self):
        return hash((self.n_rows, self.n_cols, self._vec0.tobytes()))

    def __repr__(self):
        return f"SamplingSet(n_rows={self.n_rows}, n_cols={self.n_cols}, S={len(self)})"

    def __len__(self):
        return len(self._vec0)

    @property
    def entries(self):
        """The 1-based (i, j) pairs as a tuple of int tuples, in sampling order."""
        if self._entries is None:
            pairs = tuple(zip((self._rows0 + 1).tolist(), (self._cols0 + 1).tolist()))
            object.__setattr__(self, "_entries", pairs)
        return self._entries

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
    """Additive Gaussian noise: disabled, fixed variance, or an exact SNR target."""

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
    total = n_rows * n_cols
    if not 0 <= count <= total:
        raise InvalidInputError(f"count must lie in 0..{total}, got {count}")
    rng = np.random.default_rng(seed)
    flat = rng.choice(total, size=count, replace=False)
    pairs = np.column_stack((flat % n_rows + 1, flat // n_rows + 1))
    return SamplingSet(n_rows, n_cols, pairs)


def noise_matrix(f, noise):
    """Full-size noise realization for ``f`` under ``noise``.

    In target-SNR mode the draw is rescaled so that the squared-Frobenius
    signal-to-noise ratio matches the target exactly.
    """
    f = np.asarray(f, dtype=float)
    if noise.mode == "none":
        return np.zeros_like(f)
    rng = np.random.default_rng(noise.seed)
    if noise.mode == "variance":
        if noise.nu_sq == 0.0:
            return np.zeros_like(f)
        return rng.normal(scale=np.sqrt(noise.nu_sq), size=f.shape)
    e = rng.normal(size=f.shape)
    signal = np.sum(f**2)
    if signal == 0:
        raise InvalidInputError("target-snr noise undefined for an all-zero matrix")
    return e * np.sqrt(signal / (noise.snr * np.sum(e**2)))


def observe(f, sampling, noise=NoiseSpec.none()):
    """Sample ``f`` at the given positions after adding full-matrix noise."""
    f = np.asarray(f, dtype=float)
    if f.shape != (sampling.n_rows, sampling.n_cols):
        raise InvalidInputError(
            f"matrix shape {f.shape} does not match sampling grid "
            f"{(sampling.n_rows, sampling.n_cols)}"
        )
    noisy = f + noise_matrix(f, noise)
    values = noisy[sampling.row_indices0, sampling.col_indices0]
    return ObservationSet(sampling, values)
