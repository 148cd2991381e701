"""Every numeric parameter of the library goes through one range check:
NaN, inf and an out-of-range value each raise an InvalidInputError that
names the parameter, before any numerical work.  Every integer argument of
the iterative fits, the feature maps, the graph and dataset recipes and the
error-theory checks goes through one integer check: a fraction and an
out-of-range value each raise an InvalidInputError that names it.  Neither
check takes a bool, a string or None for a number."""

import re

import numpy as np
import pytest

from kronmc import (Bandlimited, Diffusion, ExperimentConfig, InvalidInputError,
                    KroneckerKernel, NoiseSpec, ObservationSet, RegularizedLaplacian,
                    StepSchedule, als_fit, band_graph, class_agreement_bundle,
                    eig_bound_check, erdos_renyi, factor_sgd_fit, features_from_eig,
                    features_from_svd, gaussian_kernel, kkmcex_fit, knn_symmetric,
                    mse_bound, mse_decomposition, orrmcex_run, orrmcex_step,
                    regularized_nystrom, rrmcex_fit, station_day_bundle,
                    synthetic_categorical_table, synthetic_station_day_bundle,
                    uniform_sample, verify_theory)
from kronmc.solvers import RrmcexModel

from helpers import make_spd_kernel

_RNG = np.random.default_rng(61)
_KX, _KY = make_spd_kernel(_RNG, 3), make_spd_kernel(_RNG, 2)
_K = np.kron(_KY.matrix, _KX.matrix)
_S = uniform_sample(3, 2, 3, seed=1)
_OBS = ObservationSet(_S, _RNG.normal(size=3))
_FEATURES = features_from_eig(_KX, _KY, 4)
_MODEL = RrmcexModel(_FEATURES, 0.1, np.zeros(4))
_STEP = StepSchedule.constant(0.01)
_DISTANCES = np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0)))
_TABLE = synthetic_categorical_table(12, 4, seed=1)

# (name in the message, call taking the value, an out-of-range value or None)
CASES = {
    "mse_bound-mu": ("mu", lambda v: mse_bound(_K, _S, np.ones(6), v, 0.0), 0.0),
    "mse_bound-nu_sq": ("nu_sq", lambda v: mse_bound(_K, _S, np.ones(6), 0.1, v), -1.0),
    "regularized_nystrom-mu": ("mu", lambda v: regularized_nystrom(_K, _S, v), -1.0),
    "mse_decomposition-mu": ("mu", lambda v: mse_decomposition(_K, _S, np.ones(6), v, 0.1),
                             0.0),
    "mse_decomposition-nu_sq": (
        "nu_sq", lambda v: mse_decomposition(_K, _S, np.ones(6), 0.1, v), -0.5),
    "eig_bound_check-mu": ("mu", lambda v: eig_bound_check(_K, _S, v), 0.0),
    "Diffusion-eta": ("eta", Diffusion, 0.0),
    "RegularizedLaplacian-eta": ("eta", RegularizedLaplacian, -1.0),
    "gaussian_kernel-eta": ("eta", lambda v: gaussian_kernel(np.eye(3), v), 0.0),
    "NoiseSpec-nu_sq": ("nu_sq", NoiseSpec.variance, -1.0),
    "NoiseSpec-snr": ("snr", NoiseSpec.target_snr, 0.0),
    "StepSchedule.constant-step_c": ("step_c", StepSchedule.constant, 0.0),
    "StepSchedule.decay-step_c": ("step_c", lambda v: StepSchedule.decay(v, 10.0), -1.0),
    "StepSchedule.decay-step_n0": ("step_n0", lambda v: StepSchedule.decay(0.5, v), 0.0),
    "kkmcex_fit-mu": ("mu", lambda v: kkmcex_fit(KroneckerKernel(_KX, _KY), _OBS, v), 0.0),
    "rrmcex_fit-mu": ("mu", lambda v: rrmcex_fit(_FEATURES, _OBS, v), -1.0),
    "orrmcex_run-mu": ("mu", lambda v: orrmcex_run(_FEATURES, _OBS, _STEP, v, 1), 0.0),
    "als_fit-mu": ("mu", lambda v: als_fit(_OBS, _KX, _KY, 1, v), 0.0),
    "als_fit-rel_tol": ("rel_tol", lambda v: als_fit(_OBS, _KX, _KY, 1, 0.1, rel_tol=v), -1.0),
    "factor_sgd_fit-mu": ("mu", lambda v: factor_sgd_fit(_OBS, 1, v, _STEP, 1, 0), 0.0),
    "orrmcex_step-t": ("step size t", lambda v: orrmcex_step(_MODEL, 1, 1, 0.5, v, 0.1),
                       -0.1),
    "orrmcex_step-mu": ("mu", lambda v: orrmcex_step(_MODEL, 1, 1, 0.5, 0.1, v), 0.0),
    "orrmcex_step-m": ("observation m", lambda v: orrmcex_step(_MODEL, 1, 1, v, 0.1, 0.1),
                       None),
    "ExperimentConfig-mu_grid": (
        "mu", lambda v: ExperimentConfig("kkmcex", (10.0,), mu_grid=(1e-3, v)), 0.0),
    "ExperimentConfig-eta_grid": (
        "eta", lambda v: ExperimentConfig("kkmcex", (10.0,), eta_grid=(1.0, v)), -1.0),
}


@pytest.mark.parametrize("case,value", [
    pytest.param(case, value, id=f"{case}-{value}")
    for case, (_, _, out_of_range) in CASES.items()
    for value in (np.nan, np.inf, out_of_range) if value is not None])
def test_numeric_parameter_rejects_nan_inf_and_out_of_range(case, value):
    name, call, _ = CASES[case]
    with pytest.raises(InvalidInputError,
                       match=rf"^{re.escape(name)} must be (positive and |nonnegative and )?"
                             rf"finite, got {re.escape(str(value))}$"):
        call(value)


@pytest.mark.parametrize("case,value", [
    pytest.param(case, value, id=f"{case}-{value}")
    for case in CASES for value in (True, np.False_, "1", None)])
def test_numeric_parameter_rejects_a_bool_or_a_non_number(case, value):
    name, call, _ = CASES[case]
    with pytest.raises(InvalidInputError,
                       match=rf"^{re.escape(name)} must be a number, got {re.escape(repr(value))}$"):
        call(value)


# (name in the message, call taking the value, values it rejects)
INTEGER_CASES = {
    "orrmcex_run-eval_every": ("eval_every", lambda v: orrmcex_run(
        _FEATURES, _OBS, _STEP, 0.1, 1, eval_hook=lambda *_: None, eval_every=v),
        (0, -1, 1.5)),
    "orrmcex_run-epochs": ("epochs", lambda v: orrmcex_run(_FEATURES, _OBS, _STEP, 0.1, v),
                           (0, -1, 1.5)),
    "orrmcex_run-seed": ("seed", lambda v: orrmcex_run(_FEATURES, _OBS, _STEP, 0.1, 1, seed=v),
                         (-1, 1.5)),
    "factor_sgd_fit-epochs": ("epochs", lambda v: factor_sgd_fit(_OBS, 1, 0.1, _STEP, v, 0),
                              (0, -1, 1.5)),
    "factor_sgd_fit-seed": ("seed", lambda v: factor_sgd_fit(_OBS, 1, 0.1, _STEP, 1, v),
                            (-1, 1.5)),
    "als_fit-seed": ("seed", lambda v: als_fit(_OBS, _KX, _KY, 1, 0.1, seed=v), (-1, 1.5)),
    "als_fit-max_iters": ("max_iters", lambda v: als_fit(_OBS, _KX, _KY, 1, 0.1, max_iters=v),
                          (0, -1, 2.5)),
    "orrmcex_step-i": ("i", lambda v: orrmcex_step(_MODEL, v, 1, 0.5, 0.1, 0.1), (0, 1.5)),
    "orrmcex_step-j": ("j", lambda v: orrmcex_step(_MODEL, 1, v, 0.5, 0.1, 0.1), (0, 1.5)),
    "features_from_eig-d": ("feature dimension d", lambda v: features_from_eig(_KX, _KY, v),
                            (0, 2.5)),
    "features_from_svd-d": ("feature dimension d", lambda v: features_from_svd(
        np.eye(3), np.eye(2), v), (0, 2.5)),
    "knn_symmetric-k": ("k", lambda v: knn_symmetric(_DISTANCES, v), (-1, 1.5)),
    "station_day_bundle-k": ("k", lambda v: station_day_bundle(
        np.ones((5, 6)), _DISTANCES, k=v), (-1, 1.5)),
    "synthetic_station_day_bundle-n_stations": (
        "n_stations", lambda v: synthetic_station_day_bundle(v, 6, k=2), (0, 1.5)),
    "synthetic_station_day_bundle-n_days": (
        "n_days", lambda v: synthetic_station_day_bundle(5, v, k=2), (0, 1.5)),
    "class_agreement_bundle-subsample": (
        "subsample", lambda v: class_agreement_bundle(*_TABLE, subsample=v), (0, -1, 1.5)),
    "erdos_renyi-seed": ("seed", lambda v: erdos_renyi(5, 0.5, v), (-1, 1.5)),
    "band_graph-n": ("vertex count n", lambda v: band_graph(v, 1), (0, 2.5)),
    "Bandlimited-index": ("pass band index", lambda v: Bandlimited([2, v]), (0, 1.5, "x")),
    "mse_decomposition-n_draws": ("n_draws", lambda v: mse_decomposition(
        _K, _S, np.ones(6), 0.1, 0.1, n_draws=v), (-1, 1.5)),
    "mse_decomposition-seed": ("seed", lambda v: mse_decomposition(
        _K, _S, np.ones(6), 0.1, 0.1, n_draws=10, seed=v), (-1, 1.5)),
    "verify_theory-seed": ("seed", lambda v: verify_theory(seed=v), (-1, 1.5)),
}


@pytest.mark.parametrize("case,value", [
    pytest.param(case, value, id=f"{case}-{value}")
    for case, (_, _, values) in INTEGER_CASES.items() for value in values])
def test_integer_argument_rejects_fractions_and_out_of_range(case, value):
    name, call, _ = INTEGER_CASES[case]
    with pytest.raises(InvalidInputError,
                       match=rf"^{re.escape(name)} must be (an integer|at least \d+), "
                             rf"got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("case,value", [
    pytest.param(case, value, id=f"{case}-{value}")
    for case in INTEGER_CASES for value in (True, False)])
def test_integer_argument_rejects_a_bool(case, value):
    name, call, _ = INTEGER_CASES[case]
    with pytest.raises(InvalidInputError,
                       match=rf"^{re.escape(name)} must be an integer, got {value!r}$"):
        call(value)
