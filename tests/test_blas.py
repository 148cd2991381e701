"""kronmc._blas, the one runtime of kronmc's dense linear algebra, and the
guard that keeps every product and decomposition of the package on it."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kronmc
from kronmc import _blas
from kronmc.bench import band_graph
from kronmc.graphs import build_laplacian
from kronmc.kernels import Diffusion, spectral_kernel

SRC = Path(kronmc.__file__).parent
# the two per-observation SGD updates keep their 1-D dots of length d or p
# as `@`: they wake no thread pool, and their rounding is the reference of
# the SGD paths.  The fits' sweeps call them and hold no `@`
PER_ENTRY = {"solvers.py": {"_orrmcex_update", "_factor_sgd_update"}}
LINALG_KEPT = {"norm", "LinAlgError"}
NUMPY_PRODUCTS = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum"}


def _is_numpy(node):
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _bypasses(source, filename):
    """(line, function, what) of each product or decomposition in ``source``
    that does not go through kronmc._blas."""
    found = []
    kept = PER_ENTRY.get(filename, set())

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and function is None:
            function = node.name
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            if function not in kept:
                what = "@"
        elif isinstance(node, ast.Attribute):
            value = node.value
            if (isinstance(value, ast.Attribute) and value.attr == "linalg"
                    and _is_numpy(value.value) and node.attr not in LINALG_KEPT):
                what = f"np.linalg.{node.attr}"
            elif _is_numpy(value) and node.attr in NUMPY_PRODUCTS:
                what = f"np.{node.attr}"
            elif node.attr == "dot" and not (isinstance(value, ast.Name)
                                             and value.id == "_blas"):
                what = ".dot"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {alias.name for alias in node.names}
            if node.module == "numpy.linalg" and names - LINALG_KEPT:
                what = f"from numpy.linalg import {sorted(names - LINALG_KEPT)}"
            elif names & NUMPY_PRODUCTS:
                what = f"from numpy import {sorted(names & NUMPY_PRODUCTS)}"
        if what is not None:
            found.append((node.lineno, function, what))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source, filename), None)
    return found


def test_all_dense_algebra_goes_through_the_helper():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "_blas.py")
    assert {p.name for p in modules} >= {"analysis.py", "bench.py", "graphs.py",
                                         "kernels.py", "solvers.py"}
    found = {p.name: _bypasses(p.read_text(), p.name) for p in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_guard_catches_a_product_reintroduced_in_kkmcex_predict():
    source = (SRC / "solvers.py").read_text()
    routed = "_blas.gemm(_blas.gemm(kk.kx.matrix, c), kk.ky.matrix)"
    assert source.count(routed) == 1
    hits = _bypasses(source.replace(routed, "kk.kx.matrix @ c @ kk.ky.matrix"),
                     "solvers.py")
    assert [(f, w) for _, f, w in hits] == [("kkmcex_predict", "@")] * 2


@pytest.mark.parametrize("routed, inlined, function", [
    ("_orrmcex_update(xi, phi_row, values[k], t, mu)",
     "xi -= t * (phi_row * (phi_row @ xi - values[k]) + mu * xi)",
     "orrmcex_run"),
    ("xx = _blas.dot(x, x)", "xx = x @ x", "_kkmcex_cg"),
    ("            _factor_sgd_update(w, h, i, j, m_vals[k], t,",
     "            err = m_vals[k] - w[i] @ h[j]\n"
     "            _factor_sgd_update(w, h, i, j, m_vals[k], t,",
     "factor_sgd_fit"),
], ids=["orrmcex_run", "kkmcex_cg", "factor_sgd_fit"])
def test_guard_catches_a_dot_inlined_outside_the_sgd_updates(routed, inlined, function):
    source = (SRC / "solvers.py").read_text()
    assert source.count(routed) == 1
    hits = _bypasses(source.replace(routed, inlined), "solvers.py")
    assert [(f, w) for _, f, w in hits] == [(function, "@")]


@pytest.mark.parametrize("snippet, what", [
    ("import numpy as np\ndef f(a):\n    return np.linalg.solve(a, a)\n", "np.linalg.solve"),
    ("import numpy as np\ndef f(a):\n    return np.matmul(a, a)\n", "np.matmul"),
    ("def f(a):\n    return a.dot(a)\n", ".dot"),
    ("from numpy.linalg import eigh\n", "from numpy.linalg import ['eigh']"),
    ("def f(a):\n    return a @ a\n", "@"),
])
def test_guard_names_each_kind_of_bypass(snippet, what):
    assert [w for _, _, w in _bypasses(snippet, "kernels.py")] == [what]


def _operand(seed, rows, cols, layout):
    """A rows x cols float array, C-ordered, Fortran-ordered or strided."""
    a = np.random.default_rng(seed).normal(size=(2 * rows, 3 * cols))
    if layout == "strided":
        return a[::2, ::3]
    a = np.ascontiguousarray(a[:rows, :cols])
    return np.asfortranarray(a) if layout == "F" else a


LAYOUTS = st.sampled_from(("C", "F", "strided"))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9), LAYOUTS, LAYOUTS,
       st.integers(0, 2**32 - 1))
def test_gemm_and_gemv_match_numpy_for_every_layout(m, k, n, layout_a, layout_b, seed):
    a = _operand(seed, m, k, layout_a)
    b = _operand(seed + 1, k, n, layout_b)
    ref = np.matmul(a, b)
    # the rounding error of a dot product of length k is at most
    # k eps |a| |b|, which 1e-13 |a| |b| bounds for these k
    scale = np.matmul(np.abs(a), np.abs(b))
    product = _blas.gemm(a, b)
    assert product.flags.c_contiguous and product.shape == ref.shape
    assert np.all(np.abs(product - ref) <= 1e-13 * scale)
    out = np.full((m, n), np.nan)
    assert _blas.gemm(a, b, out=out) is out
    assert np.all(np.abs(out - ref) <= 1e-13 * scale)
    x = b[:, 0] if n else np.ones(k)
    assert np.all(np.abs(_blas.gemv(a, x) - a @ x) <= 1e-13 * (np.abs(a) @ np.abs(x)))
    assert _blas.dot(x, x) == pytest.approx(float(x @ x), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("layout_a", ["C", "F"])
@pytest.mark.parametrize("layout_b", ["C", "F"])
def test_gemm_multiplies_float32_operands_by_sgemm(monkeypatch, layout_a, layout_b):
    calls, sgemm = [], _blas.sgemm

    def counted(*args, **kwargs):
        calls.append(args[1].dtype)
        return sgemm(*args, **kwargs)

    monkeypatch.setattr(_blas, "sgemm", counted)
    m, k, n = 7, 40, 5
    a = _operand(3, m, k, layout_a).astype(np.float32)
    b = _operand(4, k, n, layout_b).astype(np.float32)
    assert (a.flags.f_contiguous, b.flags.f_contiguous) == (layout_a == "F", layout_b == "F")
    ref = np.matmul(a.astype(float), b.astype(float))
    # float32 rounding of a dot product of length k and of its result
    bound = (k + 1) * np.finfo(np.float32).eps * np.matmul(np.abs(a), np.abs(b))
    product = _blas.gemm(a, b)
    assert product.dtype == np.float32 and product.flags.c_contiguous
    assert np.all(np.abs(product - ref) <= bound)
    out = np.full((m, n), np.nan, dtype=np.float32)
    assert _blas.gemm(a, b, out=out) is out
    assert np.all(np.abs(out - ref) <= bound)
    assert calls == [np.float32] * 2
    # one float64 operand makes the product float64
    assert _blas.gemm(a, b.astype(float)).dtype == np.float64
    assert len(calls) == 2
    # an out that BLAS would only see as a converted copy is refused
    for wrong in (np.empty((m, n)), np.empty((m, n), dtype=np.float32, order="F")):
        with pytest.raises(ValueError, match="out must be a C-ordered float32 array"):
            _blas.gemm(a, b, out=wrong)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 30), LAYOUTS, st.integers(0, 2**32 - 1))
def test_eigh_returns_c_ordered_eigenvectors(n, layout, seed):
    a = _operand(seed, n, n, layout)
    a = a + a.T
    w, v = _blas.eigh(a)
    assert v.flags.c_contiguous
    assert np.all(np.diff(w) >= 0)
    assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-13 * n
    assert np.abs((v * w) @ v.T - a).max() <= 1e-13 * n * np.abs(a).max()
    assert np.abs(_blas.eigvalsh(a) - w).max() <= 1e-13 * n * np.abs(a).max()


def test_spectral_kernel_allocates_no_operand_copy():
    # building a spectral kernel holds Q r^-1(Lambda) and the product, then
    # the product and one buffer for the symmetry check: two n x n arrays at
    # most.  A product that copied an operand (say, Fortran-ordered
    # eigenvectors handed to a GEMM that wants C order) peaks at three, and
    # at n = 1250 that copy is 12.5 MB of the ridge-stations peak RSS
    n = 1250
    lap = build_laplacian(band_graph(n, 10))
    lap.spectrum
    tracemalloc.start()
    try:
        spectral_kernel(lap, Diffusion(1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n * n
