"""Watch the error theory hold numerically.

On a small dense instance: split the estimator's mean-square error into
its exact bias and variance parts, confirm the split against a Monte-Carlo
simulation, and check the spectral upper bound and the eigenvalue
domination it rests on.
"""

import numpy as np

from kronmc import (eig_bound_check, linear_kernel, mse_bound, mse_decomposition,
                    regularized_nystrom, uniform_sample)

rng = np.random.default_rng(42)
n, l = 5, 4
kx = linear_kernel(rng.normal(size=(n, n)) + np.eye(n))
ky = linear_kernel(rng.normal(size=(l, l)) + np.eye(l))
kz = np.kron(ky.matrix, kx.matrix)

sampling = uniform_sample(n, l, 8, seed=1)
gamma = rng.normal(size=n * l)
mu, nu_sq = 0.05, 0.25

report = mse_decomposition(kz, sampling, gamma, mu, nu_sq, n_draws=100_000, seed=3)
print(f"bias^2            : {report.bias_sq:.6f}")
print(f"variance          : {report.variance:.6f}")
print(f"exact MSE         : {report.total:.6f}")
print(f"Monte-Carlo MSE   : {report.empirical_mse:.6f}  "
      f"(+/- {report.std_error:.6f} over {report.n_draws} draws)")

bound = mse_bound(kz, sampling, gamma, mu, nu_sq)
print(f"spectral bound    : {bound:.4f}  (covers the exact MSE: "
      f"{report.total <= bound})")

check = eig_bound_check(kz, sampling, mu)
print(f"eigen domination  : passed={check.passed}, worst margin "
      f"{check.worst_margin:.2e}")

resid = kz - regularized_nystrom(kz, sampling, mu)
print(f"residual kernel   : min eigenvalue {np.linalg.eigvalsh(resid)[0]:.2e} "
      f"(stays PSD)")
