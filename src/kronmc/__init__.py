"""Kernel-based matrix completion and extrapolation.

Builds similarity kernels for the rows and columns of a partially observed
matrix (from graphs, features, or correlations), couples them through a
lazily represented Kronecker product kernel, and recovers the full matrix
with a closed-form regularized solve whose cost scales with the number of
observations.  A low-rank feature-map variant trades exactness for speed
and supports streaming updates; exact alternating minimization and
row-wise SGD factorization baselines are included, together with numerical
verification of the estimator's bias/variance theory.
"""

from .analysis import (EigBoundReport, MseReport, eig_bound_check, mse_bound,
                       mse_decomposition, nmse, regularized_nystrom, verify_theory)
from .bench import (DatasetBundle, ExperimentConfig, ExperimentResult,
                    band_graph, class_agreement_bundle, generate_synthetic,
                    grid_search, load_matrix_csv, load_triplets_csv,
                    onehot_features, run_fit, run_online, run_sweep,
                    save_matrix_csv, station_day_bundle, synthetic_categorical_table,
                    synthetic_station_day_bundle)
from .errors import InvalidInputError, NumericalError
from .graphs import (Graph, Laplacian, build_laplacian, erdos_renyi,
                     geodesic_distances, heat_adjacency, knn_symmetric)
from .kernels import (Bandlimited, Diffusion, FeatureMap, KernelMatrix,
                      KroneckerKernel, RegularizedLaplacian, features_from_eig,
                      features_from_svd, gaussian_kernel, kron_submatrix,
                      linear_kernel, pearson_kernel, spectral_kernel)
from .sampling import (NoiseSpec, ObservationSet, SamplingSet, observe,
                       uniform_sample)
from .solvers import (FactorModel, KkmcexModel, RrmcexModel, StepSchedule,
                      als_fit, factor_predict, factor_sgd_fit, kkmcex_fit,
                      kkmcex_predict, load_kkmcex_model, orrmcex_run,
                      rrmcex_fit, rrmcex_predict, save_model)

__version__ = "0.1.0"
