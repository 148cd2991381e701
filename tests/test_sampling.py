import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronmc import (InvalidInputError, NoiseSpec, ObservationSet, SamplingSet,
                    load_sampling_csv, load_triplets_csv, observe,
                    save_sampling_csv, save_triplets_csv, uniform_sample,
                    vec_index)

from helpers import csv_round_trip


def test_vec_index_examples():
    assert vec_index(1, 1, 4) == 1
    assert vec_index(4, 5, 4) == 20  # (N, L) -> NL
    assert vec_index(2, 3, 4) == 10  # (3-1)*4 + 2
    with pytest.raises(InvalidInputError):
        vec_index(5, 1, 4)
    with pytest.raises(InvalidInputError):
        vec_index(0, 1, 4)


def test_sampling_set_validation():
    with pytest.raises(InvalidInputError):
        SamplingSet(2, 2, ((1, 1), (1, 1)))  # duplicate
    with pytest.raises(InvalidInputError):
        SamplingSet(2, 2, ((3, 1),))  # out of range
    s = SamplingSet(3, 2, ((2, 1), (1, 2), (3, 2)))
    assert np.array_equal(s.vec_indices0, [1, 3, 5])
    assert len(set(s.vec_indices0)) == len(s)
    for bad in (((1, 1, 1),), ((1, 1), (2,)), (("a", 1),), ((2**70, 1),)):
        with pytest.raises(InvalidInputError, match="pairs"):
            SamplingSet(3, 2, bad)


def test_uniform_sample_extremes():
    full = uniform_sample(3, 4, 12, seed=0)
    assert sorted(full.entries) == [(i, j) for i in range(1, 4) for j in range(1, 5)]
    assert len(uniform_sample(3, 4, 0, seed=0)) == 0
    with pytest.raises(InvalidInputError):
        uniform_sample(3, 4, 13, seed=0)


def test_uniform_sample_deterministic():
    a = uniform_sample(6, 5, 10, seed=42)
    b = uniform_sample(6, 5, 10, seed=42)
    assert a.entries == b.entries


def test_uniform_sample_marginal_frequencies():
    # hypergeometric marginal: each cell included w.p. 20/100
    n_draws = 10_000
    counts = np.zeros((10, 10))
    for k in range(n_draws):
        s = uniform_sample(10, 10, 20, seed=k)
        counts[s.row_indices0, s.col_indices0] += 1
    freq = counts / n_draws
    p = 0.2
    sigma = np.sqrt(p * (1 - p) / n_draws)
    assert np.all(np.abs(freq - p) <= 4 * sigma)


def test_observe_noiseless_is_exact_restriction():
    rng = np.random.default_rng(1)
    f = rng.normal(size=(4, 5))
    s = uniform_sample(4, 5, 9, seed=2)
    obs = observe(f, s, NoiseSpec.none())
    assert np.array_equal(obs.values, f[s.row_indices0, s.col_indices0])
    # zero-variance noise is identical to noiseless
    obs0 = observe(f, s, NoiseSpec.variance(0.0, seed=5))
    assert np.array_equal(obs0.values, obs.values)


def test_observe_hits_exact_target_snr():
    rng = np.random.default_rng(3)
    f = rng.normal(size=(6, 6))
    s = uniform_sample(6, 6, 36, seed=0)
    from kronmc.sampling import noise_matrix

    e = noise_matrix(f, NoiseSpec.target_snr(1.0, seed=9))
    assert abs(np.sum(f**2) / np.sum(e**2) - 1.0) <= 1e-12
    obs = observe(f, s, NoiseSpec.target_snr(1.0, seed=9))
    assert np.allclose(np.sort(obs.values), np.sort((f + e).ravel(order="F")))


def test_observe_shape_mismatch():
    s = uniform_sample(3, 3, 4, seed=0)
    with pytest.raises(InvalidInputError):
        observe(np.zeros((4, 3)), s)


def test_selector_consistency_exhaustive_small():
    # explicit binary selector times vec(F) equals noiseless observe
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for l in range(1, 6):
            count = int(rng.integers(0, n * l + 1))
            s = uniform_sample(n, l, count, seed=int(rng.integers(2**32)))
            f = rng.normal(size=(n, l))
            lhs = s.selector_matrix() @ f.ravel(order="F")
            rhs = observe(f, s).values
            assert np.array_equal(lhs, rhs)


def test_noise_spec_validation():
    with pytest.raises(InvalidInputError):
        NoiseSpec.variance(-1.0)
    with pytest.raises(InvalidInputError):
        NoiseSpec.target_snr(0.0)
    with pytest.raises(InvalidInputError):
        NoiseSpec(mode="weird")


def test_observation_set_length_check():
    s = uniform_sample(3, 3, 4, seed=0)
    with pytest.raises(InvalidInputError):
        ObservationSet(s, np.zeros(3))




def test_triplet_csv_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,1,0.5\n1,1,0.7\n")
    with pytest.raises(InvalidInputError, match="line 2"):
        load_triplets_csv(path, 3, 3)
    path.write_text("1,4,0.5\n")
    with pytest.raises(InvalidInputError, match="outside"):
        load_triplets_csv(path, 3, 3)
    path.write_text("1,1\n")
    with pytest.raises(InvalidInputError, match="line 1"):
        load_triplets_csv(path, 3, 3)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_triplet_csv_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "obs.csv"
    path.write_text(f"1,1,0.5\n2,1,{value}\n")
    with pytest.raises(InvalidInputError, match="line 2: value .* is not finite") as info:
        load_triplets_csv(path, 3, 3)
    assert str(path) in str(info.value)


def test_sampling_csv_rejects_malformed_lines(tmp_path):
    path = tmp_path / "omega.csv"
    for text, lineno in (("1,1\n\n2,x\n", 3), ("1,1.5\n", 1), ("1,1\n2\n", 2),
                         ("1,1\n3,4\n", 2), ("2,3\n1,1\n\n2,3\n", 4)):
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=f"line {lineno}") as info:
            load_sampling_csv(path, 3, 3)
        assert str(path) in str(info.value)


def test_index_properties_return_one_stored_read_only_array():
    pairs = np.array([[2, 1], [1, 2], [3, 2]])
    s = SamplingSet(3, 2, pairs)
    pairs[0] = (1, 1)  # the set keeps its own arrays
    assert s.entries == ((2, 1), (1, 2), (3, 2))
    for name in ("row_indices0", "col_indices0", "vec_indices0"):
        assert isinstance(vars(SamplingSet)[name], property)
        first = getattr(s, name)
        assert getattr(s, name) is first
        assert first.dtype == np.intp and not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0
    with pytest.raises(AttributeError):
        s.n_rows = 4


# ------------------------------------------------ property tests

PROPERTY_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True,
                             database=None)


@st.composite
def samplings(draw):
    """(n, l, pairs): distinct 1-based pairs on an n x l grid, in draw order."""
    n = draw(st.integers(1, 9))
    l = draw(st.integers(1, 9))
    vec = draw(st.lists(st.integers(0, n * l - 1), unique=True, max_size=n * l))
    return n, l, [(v % n + 1, v // n + 1) for v in vec]


@PROPERTY_SETTINGS
@given(samplings())
def test_pairs_and_array_build_the_same_set(case):
    n, l, pairs = case
    from_pairs = SamplingSet(n, l, tuple(pairs))
    from_array = SamplingSet(n, l, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    assert from_pairs.entries == from_array.entries == tuple(pairs)
    assert all(type(v) is int for pair in from_array.entries for v in pair)
    assert from_pairs == from_array and len(from_pairs) == len(pairs)
    for name in ("row_indices0", "col_indices0", "vec_indices0"):
        assert np.array_equal(getattr(from_pairs, name), getattr(from_array, name))
    assert from_pairs.vec_indices0.tolist() == [vec_index(i, j, n) - 1 for i, j in pairs]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "omega.csv"
        save_sampling_csv(path, from_array)
        loaded = load_sampling_csv(path, n, l)
    assert loaded.entries == from_pairs.entries


@PROPERTY_SETTINGS
@given(samplings(), st.data())
def test_out_of_range_and_duplicate_entries_are_rejected(case, data):
    n, l, pairs = case
    bad = data.draw(st.lists(
        st.tuples(st.integers(-2, n + 2), st.integers(-2, l + 2)).filter(
            lambda p: not (1 <= p[0] <= n and 1 <= p[1] <= l)),
        min_size=1, max_size=3))
    mixed = list(pairs)
    for p in bad:
        mixed.insert(data.draw(st.integers(0, len(mixed))), p)
    # the first offending entry in sampling order, as a loop finds it
    i, j = next(p for p in mixed if not (1 <= p[0] <= n and 1 <= p[1] <= l))
    for entries in (tuple(mixed), np.array(mixed)):
        with pytest.raises(InvalidInputError) as info:
            SamplingSet(n, l, entries)
        assert str(info.value) == f"entry ({i}, {j}) outside {n} x {l} grid"
    if pairs:
        repeated = list(pairs)
        repeated.insert(data.draw(st.integers(0, len(pairs))),
                        data.draw(st.sampled_from(pairs)))
        for entries in (tuple(repeated), np.array(repeated)):
            with pytest.raises(InvalidInputError) as info:
                SamplingSet(n, l, entries)
            assert str(info.value) == "sampling entries must be distinct"


@PROPERTY_SETTINGS
@given(samplings())
def test_sampling_csv_round_trip(case):
    n, l, pairs = case
    s = SamplingSet(n, l, tuple(pairs))
    loaded = csv_round_trip(save_sampling_csv, lambda p: load_sampling_csv(p, n, l), s)
    assert loaded.entries == s.entries


@PROPERTY_SETTINGS
@given(samplings(), st.data())
def test_triplet_csv_round_trip(case, data):
    n, l, pairs = case
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=len(pairs), max_size=len(pairs)))
    obs = ObservationSet(SamplingSet(n, l, tuple(pairs)), np.array(values))
    loaded = csv_round_trip(save_triplets_csv, lambda p: load_triplets_csv(p, n, l), obs)
    assert loaded.sampling.entries == obs.sampling.entries
    assert np.array_equal(loaded.values, obs.values)
    assert np.array_equal(np.signbit(loaded.values), np.signbit(obs.values))
