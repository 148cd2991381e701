import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kronmc import (Graph, InvalidInputError, build_laplacian, erdos_renyi,
                    geodesic_distances, heat_adjacency, knn_symmetric,
                    load_matrix_csv, save_matrix_csv)

from helpers import floyd_warshall_hops, knn_loop


def test_graph_rejects_bad_adjacency():
    with pytest.raises(InvalidInputError):
        Graph(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(InvalidInputError):
        Graph(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative weight
    with pytest.raises(InvalidInputError):
        Graph(np.array([[1.0, 0.0], [0.0, 0.0]]))  # self loop
    with pytest.raises(InvalidInputError, match=r"adjacency entry \(1, 2\) is not finite"):
        Graph(np.array([[0.0, np.nan], [np.nan, 0.0]]))


def test_laplacian_empty_graph_is_zero():
    lap = build_laplacian(Graph(np.zeros((3, 3))))
    assert np.array_equal(lap.matrix, np.zeros((3, 3)))


def test_laplacian_two_node_unit_edge():
    lap = build_laplacian(Graph(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert np.array_equal(lap.matrix, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_row_sums_vanish_on_random_graph():
    g = erdos_renyi(10, 0.4, seed=3)
    lap = build_laplacian(g)
    # summation oracle over rows
    sums = [sum(lap.matrix[i, j] for j in range(10)) for i in range(10)]
    assert np.allclose(sums, 0.0, atol=1e-12)


def test_laplacian_is_psd_on_random_graphs():
    for seed in range(5):
        lap = build_laplacian(erdos_renyi(12, 0.3, seed=seed))
        eigs = np.linalg.eigvalsh(lap.matrix)
        assert eigs[0] >= -1e-10 * max(eigs[-1], 1.0)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=12)
        assert x @ lap.matrix @ x >= -1e-10 * (x @ x) * max(eigs[-1], 1.0)


def test_erdos_renyi_extremes():
    assert erdos_renyi(5, 0.0, seed=0).adjacency.sum() == 0
    complete = erdos_renyi(5, 1.0, seed=0).adjacency
    assert complete.sum() / 2 == 5 * 4 / 2
    with pytest.raises(InvalidInputError):
        erdos_renyi(5, 1.5, seed=0)


def test_erdos_renyi_edge_count_near_binomial_mean():
    g = erdos_renyi(250, 0.03, seed=7)
    edges = g.adjacency.sum() / 2
    mean = 0.03 * 250 * 249 / 2
    std = np.sqrt(mean * 0.97)
    assert abs(edges - mean) <= 3 * std


def test_erdos_renyi_deterministic():
    a = erdos_renyi(30, 0.2, seed=11).adjacency
    b = erdos_renyi(30, 0.2, seed=11).adjacency
    assert np.array_equal(a, b)
    assert not np.array_equal(a, erdos_renyi(30, 0.2, seed=12).adjacency)


def _pairwise_distances(points):
    pts = np.asarray(points, dtype=float)[:, None]
    return np.abs(pts - pts.T)


def test_knn_extremes():
    d = _pairwise_distances([0.0, 1.0, 2.5, 4.0])
    assert knn_symmetric(d, 0).adjacency.sum() == 0
    complete = knn_symmetric(d, 3).adjacency
    assert np.array_equal(complete, 1.0 - np.eye(4))
    with pytest.raises(InvalidInputError):
        knn_symmetric(d, 4)


def _with_entry(d, value):
    """``d`` with entries (1, 3) and (3, 1) set to ``value``."""
    d = d.copy()
    d[0, 2] = d[2, 0] = value
    return d


def test_knn_rejects_nonfinite_distances_by_entry():
    d = _pairwise_distances([0.0, 1.0, 2.5, 4.0])
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError, match=r"entry \(1, 3\) is not finite"):
            knn_symmetric(_with_entry(d, value), 1)


def test_knn_collinear_points():
    # nearest neighbors: 1->2, 2->1, 3->2; symmetrized edges {1-2, 2-3}
    d = _pairwise_distances([0.0, 1.0, 3.0])
    adj = knn_symmetric(d, 1).adjacency
    expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    assert np.array_equal(adj, expected)


def test_knn_matches_the_per_row_loop_under_ties():
    # integer distances in 0..2 tie everywhere, and a 0 off the diagonal
    # ties a vertex with its own index; at n = 300 the rows go in 6 blocks
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 9, 24, 60, 300):
        upper = np.triu(rng.integers(0, 3, size=(n, n)), k=1).astype(float)
        d = upper + upper.T
        for k in range(min(n, 9)):
            assert np.array_equal(knn_symmetric(d, k).adjacency, knn_loop(d, k)), (n, k)
    points = rng.random((200, 2))
    d = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=-1))
    for k in (1, 8):
        assert np.array_equal(knn_symmetric(d, k).adjacency, knn_loop(d, k))


def test_geodesic_path_graph():
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    d = geodesic_distances(Graph(adj))
    assert d[0, 2] == 2.0
    assert np.array_equal(np.diag(d), np.zeros(3))


def test_geodesic_matches_dynamic_programming_oracle():
    for seed in range(10):
        g = erdos_renyi(8, 0.5, seed=seed)
        oracle = floyd_warshall_hops(g.adjacency)
        if np.any(np.isinf(oracle)):
            with pytest.raises(InvalidInputError):
                geodesic_distances(g)
        else:
            assert np.array_equal(geodesic_distances(g), oracle)


def test_geodesic_disconnected_names_a_pair():
    adj = np.zeros((4, 4))
    adj[0, 1] = adj[1, 0] = 1.0
    with pytest.raises(InvalidInputError, match="no path"):
        geodesic_distances(Graph(adj))


def test_heat_adjacency_uniform_distances():
    n = 5
    d = np.full((n, n), 2.0)
    np.fill_diagonal(d, 0.0)
    adj = heat_adjacency(d, n).adjacency
    # sum(d) = n(n-1)*2, so every weight is exp(-n^2*2 / (n(n-1)*2)) = exp(-n/(n-1))
    off = adj[~np.eye(n, dtype=bool)]
    assert np.allclose(off, np.exp(-n / (n - 1)))
    assert np.array_equal(np.diag(adj), np.zeros(n))


def test_heat_adjacency_zero_distance_entry():
    d = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
    adj = heat_adjacency(d, 3).adjacency
    # d_12 = 0 gives weight exp(0) = 1 off the (zeroed) diagonal
    assert adj[0, 1] == 1.0
    assert np.array_equal(np.diag(adj), np.zeros(3))


def test_heat_adjacency_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        heat_adjacency(np.zeros((3, 3)), 3)  # all-zero distances
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(InvalidInputError):
        heat_adjacency(bad, 2)  # asymmetric
    d = _pairwise_distances([0.0, 1.0, 2.5])
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError, match=r"entry \(1, 3\) is not finite"):
            heat_adjacency(_with_entry(d, value), 3)


def test_adjacency_csv_round_trip(tmp_path):
    g = erdos_renyi(9, 0.4, seed=2)
    path = tmp_path / "adj.csv"
    save_matrix_csv(path, g.adjacency)
    assert np.array_equal(load_matrix_csv(path), g.adjacency)


def test_importing_kronmc_leaves_csgraph_unloaded():
    # only geodesic_distances needs SciPy's csgraph, about 4.6 MB resident,
    # so a fresh process that imports kronmc and its CLI never loads it
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = "import sys, kronmc, kronmc.cli; print('scipy.sparse.csgraph' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
