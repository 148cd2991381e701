"""Two built-in dataset recipes beyond the random synthetic generator.

Station-day: rows are measuring stations on a plane (k-nearest graph,
hop-count geodesics, heat weights), columns are days (band graph); good
for spatio-temporal readings.  The same station-day observations are
fitted under each of the paper's kernel classes on the day side: the
recipe's diffusion kernel, a regularized Laplacian and a bandlimited kernel
on the same day graph, and a Gaussian kernel on the day number.

Class-agreement: items described by categorical attributes, one-hot
encoded into Pearson-correlation kernels on both sides, with a +/-1
same-class target; here the ridge variant uses SVD-based features of the
encoded attribute matrix.
"""

import numpy as np

from kronmc import (Bandlimited, KroneckerKernel, RegularizedLaplacian, band_graph,
                    build_laplacian, class_agreement_bundle, features_from_svd,
                    gaussian_kernel, kkmcex_fit, kkmcex_predict, nmse, observe,
                    rrmcex_fit, rrmcex_predict, spectral_kernel,
                    synthetic_categorical_table, synthetic_station_day_bundle,
                    uniform_sample)

stations = synthetic_station_day_bundle(n_stations=25, n_days=50, k=6,
                                        day_band=7, seed=1)
n, l = stations.shape
omega = uniform_sample(n, l, count=(n * l) // 4, seed=2)
obs = observe(stations.f, omega)
print(f"station-day grid {n} x {l}, 25% observed:")
day_graph = build_laplacian(band_graph(l, 7))
for name, ky in (("diffusion", stations.ky),
                 ("regularized Laplacian", spectral_kernel(day_graph, RegularizedLaplacian(1.0))),
                 ("bandlimited, 10 lowest", spectral_kernel(day_graph, Bandlimited(range(1, 11)))),
                 ("Gaussian on the day", gaussian_kernel(np.arange(l)[:, None], 4.0))):
    model = kkmcex_fit(KroneckerKernel(stations.kx, ky), obs, mu=1e-8)
    print(f"  day kernel {name:<22}: nmse={nmse(kkmcex_predict(model), stations.f):.2e}")

rows, labels = synthetic_categorical_table(n_rows=80, n_attrs=10, seed=3)
items = class_agreement_bundle(rows, labels, subsample=60, seed=4)
m, _ = items.shape
omega = uniform_sample(m, m, count=(m * m) // 3, seed=5)
obs = observe(items.f, omega)

exact = kkmcex_predict(kkmcex_fit(KroneckerKernel(items.kx, items.ky), obs, 1e-2))
sign_acc = np.mean(np.sign(exact) == items.f)
print(f"class agreement {m} x {m}, 33% observed: closed form "
      f"nmse={nmse(exact, items.f):.3f}, sign accuracy={sign_acc:.2%}")

features = features_from_svd(items.x, items.y, d=40)
approx = rrmcex_predict(rrmcex_fit(features, obs, 1e-2))
print(f"SVD features d=40:                       ridge "
      f"nmse={nmse(approx, items.f):.3f}, "
      f"sign accuracy={np.mean(np.sign(approx) == items.f):.2%}")
