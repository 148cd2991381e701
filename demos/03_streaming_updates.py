"""Learn from one observation at a time.

Streams the observed entries through the feature-space SGD update and
tracks the error as entries arrive, then compares the streamed solution
with the batch ridge solve it converges to.  The per-step ridge weight is
the batch weight divided by the number of observations, which makes the
streaming fixed point coincide with the batch solution.
"""

from kronmc import (ExperimentConfig, StepSchedule, features_from_eig,
                    generate_synthetic, nmse, observe, rrmcex_fit,
                    rrmcex_predict, run_online, uniform_sample)

dataset = generate_synthetic(n=30, l=30, graph_p=0.2, eta=1.0, seed=5)
n, l = dataset.shape
count = 270  # 30% observed

import numpy as np

mu_batch = 1e-5
features = features_from_eig(dataset.kx, dataset.ky, 60)
sampling = uniform_sample(n, l, count, seed=11)
batch = rrmcex_predict(rrmcex_fit(features, observe(dataset.f, sampling), mu_batch))
print(f"batch ridge solution: nmse={nmse(batch, dataset.f):.4e}")

# step size scaled to the feature energy: per-step curvature is ~ ||phi||^2,
# so start near the stability edge and let t_n = c / (n + n0) decay from there;
# entry (i, j) has energy sum_c x[i, c]^2 y[j, c]^2
peak_energy = float(np.max((features.x**2) @ (features.y**2).T))
t0 = 0.8 / peak_energy
n0 = 5.0 * count
config = ExperimentConfig(
    method="orrmcex",
    ps_grid=(30.0,),
    mu_grid=(mu_batch / count,),
    feature_dim=60,
    epochs=40,
    schedule=StepSchedule.decay(t0 * n0, n0),
    seed=11,
)
trace = run_online(config, dataset, stride=count)
for row in trace[::8] + trace[-1:]:
    print(f"  pass {row['iteration'] // count:3d}: nmse={row['nmse']:.4e}")
print("the stream walks down to the batch error without ever storing a system")
