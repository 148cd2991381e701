import sys
import tracemalloc

import numpy as np
import pytest

import kronmc._blas


@pytest.fixture
def eig_calls(monkeypatch):
    """Live counts of kronmc's eigendecompositions: the calls to ``eigh`` and
    ``eigvalsh`` of ``kronmc._blas``.  A call from kronmc to numpy's own
    ``eigh`` or ``eigvalsh``, which would bypass the count, fails the test."""
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        def counted(*args, _name=name, _original=getattr(kronmc._blas, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        def refused(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.split(".")[0] == "kronmc":
                pytest.fail(f"{caller} calls np.linalg.{_name}, not kronmc._blas.{_name}")
            return _original(*args, **kwargs)

        monkeypatch.setattr(kronmc._blas, name, counted)
        monkeypatch.setattr(np.linalg, name, refused)
    return counts


@pytest.fixture
def gemm_calls(monkeypatch):
    """Live list of kronmc's matrix products: (left shape, right shape,
    dtype) of every call to ``kronmc._blas.gemm``, dtype the product's."""
    calls, gemm = [], kronmc._blas.gemm

    def recorded(a, b, out=None):
        product = gemm(a, b, out)
        calls.append((np.shape(a), np.shape(b), product.dtype.name))
        return product

    monkeypatch.setattr(kronmc._blas, "gemm", recorded)
    return calls


@pytest.fixture
def peak_bytes():
    """``peak_bytes(call)``: the peak bytes that tracemalloc traces while
    ``call()`` runs, which numpy reports every array allocation to."""
    def measure(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
