"""Every numeric parameter of the library goes through one range check:
NaN, inf and an out-of-range value each raise an InvalidInputError that
names the parameter, before any numerical work."""

import re

import numpy as np
import pytest

from kronmc import (BoundInputs, Diffusion, ExperimentConfig, InvalidInputError,
                    KroneckerKernel, NoiseSpec, ObservationSet, RegularizedLaplacian,
                    StepSchedule, als_fit, eig_bound_check, factor_sgd_fit, features_from_eig,
                    gaussian_kernel, kkmcex_fit, mse_decomposition, orrmcex_run, orrmcex_step,
                    regularized_nystrom, rrmcex_fit, uniform_sample)
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

# (name in the message, call taking the value, an out-of-range value or None)
CASES = {
    "BoundInputs-sigma_max": ("sigma_max", lambda v: BoundInputs(v, np.ones(6), 3, 0.1, 0.0),
                              0.0),
    "BoundInputs-mu": ("mu", lambda v: BoundInputs(1.0, np.ones(6), 3, v, 0.0), 0.0),
    "BoundInputs-nu_sq": ("nu_sq", lambda v: BoundInputs(1.0, np.ones(6), 3, 0.1, v), -1.0),
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

