import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronmc import (InvalidInputError, NoiseSpec, ObservationSet, SamplingSet,
                    load_triplets_csv, observe, uniform_sample)

from helpers import csv_round_trip, selector_matrix, vec_index


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
    assert sorted(full.vec_indices0.tolist()) == list(range(12))
    assert len(uniform_sample(3, 4, 0, seed=0)) == 0
    with pytest.raises(InvalidInputError):
        uniform_sample(3, 4, 13, seed=0)


def test_uniform_sample_rejects_a_fractional_count():
    with pytest.raises(InvalidInputError, match=r"^count must be an integer in 0\.\.25, got 2\.5$"):
        uniform_sample(5, 5, 2.5, 0)


@pytest.mark.parametrize("count", [True, False])
def test_uniform_sample_rejects_a_bool_count(count):
    # a bool is an Integral: True reached numpy's own TypeError, and False
    # passed as a 0-sample draw
    with pytest.raises(InvalidInputError,
                       match=rf"^count must be an integer in 0\.\.25, got {count}$"):
        uniform_sample(5, 5, count, 0)


@pytest.mark.parametrize("call,message", [
    (lambda: uniform_sample(2.5, 2, 1, 0), "n_rows must be an integer, got 2.5"),
    (lambda: uniform_sample(-2, 3, 0, 1), "n_rows must be at least 1, got -2"),
    (lambda: uniform_sample(3, "4", 1, 0), "n_cols must be an integer, got '4'"),
    (lambda: uniform_sample(3, 0, 0, 0), "n_cols must be at least 1, got 0"),
    (lambda: uniform_sample(3, 4, 1, -1), "seed must be at least 0, got -1"),
    (lambda: uniform_sample(3, 4, 1, 1.5), "seed must be an integer, got 1.5"),
    (lambda: NoiseSpec.variance(0.1, seed=-1), "seed must be at least 0, got -1"),
    (lambda: NoiseSpec.target_snr(1.0, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: NoiseSpec(seed=None), "seed must be an integer, got None")])
def test_sampling_boundary_names_the_bad_argument(call, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("noise", [NoiseSpec.none(), NoiseSpec.variance(0.5, seed=1),
                                   NoiseSpec.target_snr(2.0, seed=1)])
def test_observe_rejects_a_non_finite_sampled_entry(noise):
    f = np.ones((4, 3))
    s = SamplingSet(4, 3, ((1, 1), (3, 2), (2, 3)))
    for value in (np.nan, np.inf):
        f[2, 1] = value
        with pytest.raises(InvalidInputError,
                           match=r"^data matrix entry \(3, 2\) is not finite$"):
            observe(f, s, noise)


def test_target_snr_needs_a_finite_nonzero_signal():
    s = SamplingSet(4, 3, ((1, 1), (2, 3)))
    f = np.ones((4, 3))
    f[3, 0] = np.nan  # not sampled, but the signal reads every cell
    for bad, got in ((f, "nan"), (np.zeros((4, 3)), "0.0")):
        with pytest.raises(InvalidInputError, match=rf"signal sum\(f\*\*2\) .*got {got}$"):
            observe(bad, s, NoiseSpec.target_snr(1.0))
    # noise drawn at the sampled cells only never reads the unsampled NaN
    assert np.array_equal(observe(f, s, NoiseSpec.none()).values, [1.0, 1.0])


def test_uniform_sample_deterministic():
    a = uniform_sample(6, 5, 10, seed=42)
    b = uniform_sample(6, 5, 10, seed=42)
    assert a == b


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
    # the noise at the S observed entries has mean square ||F||^2 / (snr N L)
    rng = np.random.default_rng(3)
    f = rng.normal(size=(6, 7))
    for count in (1, 20, 42):
        s = uniform_sample(6, 7, count, seed=count)
        for snr in (0.5, 1.0, 4.0):
            obs = observe(f, s, NoiseSpec.target_snr(snr, seed=9))
            e = obs.values - f[s.row_indices0, s.col_indices0]
            assert abs(np.mean(e**2) / (np.sum(f**2) / (snr * f.size)) - 1.0) <= 1e-12


def test_observe_peak_memory_is_a_few_length_s_arrays(peak_bytes):
    # snr-1 observation of S = 40 000 cells of a 2000 x 2000 grid (32 MB).
    # At most four length-S float arrays are live at once: the values, the
    # noise draw, its scaled copy and their sum; the flat positions (two
    # length-S intp arrays while they are built) and the S-byte finiteness
    # mask go before the draw.  So the bound is five length-S arrays, 1.6
    # MB, where 3.13 S floats (1.0 MB) were measured; a noise draw over the
    # whole grid, the 32 MB that observe no longer allocates, exceeds it
    # twenty-fold
    n = l = 2000
    count = 40_000
    f = np.random.default_rng(52).normal(size=(n, l))
    sampling = uniform_sample(n, l, count, seed=1)
    peak = peak_bytes(lambda: observe(f, sampling, NoiseSpec.target_snr(1.0, seed=2)))
    assert peak <= 5 * 8 * count


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
            lhs = selector_matrix(s) @ f.ravel(order="F")
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
    for text, message in (
            ("1,1,0.5\n1,1,0.7\n", "line 2: duplicate entry (1, 1)"),
            ("2,3,0.5\n1,1,0.5\n\n2,3,0.5\n", "line 4: duplicate entry (2, 3)"),
            ("1,4,0.5\n", "line 1: index (1, 4) outside 3 x 3 grid"),
            ("1,1,0.5\n3,4,0.5\n", "line 2: index (3, 4) outside 3 x 3 grid"),
            ("1,1\n", "line 1: expected 3 fields, got 2"),
            ("1,1,0.5\n2,0.5\n", "line 2: expected 3 fields, got 2"),
            ("1,1,0.5\n\n2,x,0.5\n", "line 3: invalid literal for int"),
            ("1,1.5,0.5\n", "line 1: invalid literal for int")):
        path.write_text(text)
        with pytest.raises(InvalidInputError) as info:
            load_triplets_csv(path, 3, 3)
        assert str(info.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_triplet_csv_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "obs.csv"
    path.write_text(f"1,1,0.5\n2,1,{value}\n")
    with pytest.raises(InvalidInputError, match="line 2: value .* is not finite") as info:
        load_triplets_csv(path, 3, 3)
    assert str(path) in str(info.value)


def test_index_properties_return_one_stored_read_only_array():
    pairs = np.array([[2, 1], [1, 2], [3, 2]])
    s = SamplingSet(3, 2, pairs)
    pairs[0] = (1, 1)  # the set keeps its own arrays
    assert s.row_indices0.tolist() == [1, 0, 2] and s.col_indices0.tolist() == [0, 1, 1]
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
    assert list(zip(from_array.row_indices0 + 1, from_array.col_indices0 + 1)) == pairs
    assert from_pairs == from_array and len(from_pairs) == len(pairs)
    for name in ("row_indices0", "col_indices0", "vec_indices0"):
        assert np.array_equal(getattr(from_pairs, name), getattr(from_array, name))
    assert from_pairs.vec_indices0.tolist() == [vec_index(i, j, n) - 1 for i, j in pairs]


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
            # the first entry that repeats an earlier one, 1-based
            k = next(k for k, p in enumerate(repeated) if p in repeated[:k])
            assert str(info.value) == (
                f"sampling entries must be distinct: entry {k + 1}, "
                f"({repeated[k][0]}, {repeated[k][1]}), repeats an earlier one")


def _save_triplets(path, obs):
    # 1-based i,j and a %.17g value, which reads back to the same double
    s = obs.sampling
    np.savetxt(path, np.column_stack((s.row_indices0 + 1, s.col_indices0 + 1, obs.values)),
               fmt="%d,%d,%.17g")


@PROPERTY_SETTINGS
@given(samplings(), st.data())
def test_triplet_csv_round_trip(case, data):
    n, l, pairs = case
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=len(pairs), max_size=len(pairs)))
    obs = ObservationSet(SamplingSet(n, l, tuple(pairs)), np.array(values))
    loaded = csv_round_trip(_save_triplets, lambda p: load_triplets_csv(p, n, l), obs)
    assert loaded.sampling == obs.sampling
    assert np.array_equal(loaded.values, obs.values)
    assert np.array_equal(np.signbit(loaded.values), np.signbit(obs.values))


def _assert_same_set(fast, checked):
    assert fast == checked and len(fast) == len(checked)
    for name in ("row_indices0", "col_indices0", "vec_indices0"):
        got, want = getattr(fast, name), getattr(checked, name)
        assert np.array_equal(got, want) and got.dtype == want.dtype == np.intp
        assert not got.flags.writeable and not want.flags.writeable


@PROPERTY_SETTINGS
@given(samplings())
def test_unchecked_constructor_builds_the_checked_set(case):
    n, l, pairs = case
    vec0 = np.array([(j - 1) * n + i - 1 for i, j in pairs], dtype=np.intp)
    _assert_same_set(SamplingSet._from_vec0(n, l, vec0), SamplingSet(n, l, pairs))


@pytest.mark.parametrize("n,l,count", [(7, 5, 0), (7, 5, 35), (1, 1, 1), (30, 20, 111)])
def test_uniform_sample_equals_the_checked_set_of_its_pairs(n, l, count):
    s = uniform_sample(n, l, count, seed=count)
    pairs = np.column_stack((s.row_indices0 + 1, s.col_indices0 + 1))
    _assert_same_set(s, SamplingSet(n, l, pairs))
