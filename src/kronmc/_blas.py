"""Dense linear algebra on SciPy's BLAS and LAPACK.

numpy and SciPy each load an OpenBLAS of their own, each with a thread
pool whose threads keep spinning for a while after a call returns.  A fit
that switched between the two (an eigendecomposition in one, a Cholesky
factorization or a product in the other) had the two pools fight over the
cores.  So every matrix product and eigendecomposition of kronmc runs
here, on SciPy's runtime, the one with the in-place Cholesky, ``dsyrk``
and the triangular solves.

BLAS is column-major: a C-ordered array is the Fortran-ordered transpose
of itself, so a row-major product C = A B is computed as C^T = B^T A^T on
those views, and no C- or Fortran-ordered operand is copied.

Products are float64 (``dgemm``), except that ``gemm`` multiplies two
float32 operands in float32 (``sgemm``), at about half the time of a
``dgemm`` of the same size; callers choose that precision by the dtype of
what they pass.
"""

import numpy as np
import scipy.linalg
from scipy.linalg.blas import ddot, dgemm, dgemv, sgemm


def _fortran(a, dtype=np.float64):
    """(f, trans): a Fortran-ordered ``dtype`` array ``f`` with op(f) = a^T,
    op being the identity when ``trans`` is 0 and the transpose when 1.
    Only an operand that is neither C- nor Fortran-ordered is copied."""
    a = np.asarray(a, dtype=dtype)
    if a.flags.c_contiguous:
        return a.T, 0
    if a.flags.f_contiguous:
        return a, 1
    return np.ascontiguousarray(a).T, 0


def gemm(a, b, out=None):
    """The matrix product a @ b of two 2-D arrays, C-ordered: float32 when
    both are float32 arrays, float64 otherwise.

    Written into ``out`` when given, a C-ordered array of the product's
    shape and dtype that overlaps neither operand.
    """
    single = getattr(a, "dtype", None) == getattr(b, "dtype", None) == np.float32
    dtype, routine = (np.float32, sgemm) if single else (np.float64, dgemm)
    if out is not None and not (out.dtype == dtype and out.flags.c_contiguous):
        # BLAS would write into a converted copy and leave ``out`` as it was
        raise ValueError(f"out must be a C-ordered {np.dtype(dtype).name} array")
    bt, trans_b = _fortran(b, dtype)
    at, trans_a = _fortran(a, dtype)
    if at.size == 0 or bt.size == 0:
        # the wrappers refuse empty arrays, and an empty sum is zero
        if out is None:
            return np.zeros((np.shape(a)[0], np.shape(b)[1]), dtype)
        out[...] = 0.0
        return out
    if out is None:
        return routine(1.0, bt, at, trans_a=trans_b, trans_b=trans_a).T
    routine(1.0, bt, at, trans_a=trans_b, trans_b=trans_a, c=out.T, overwrite_c=1)
    return out


def gemv(a, x):
    """The matrix-vector product a @ x of a 2-D ``a`` and a 1-D ``x``."""
    at, trans = _fortran(a)
    if at.size == 0:
        return np.zeros(np.shape(a)[0])
    x = np.ascontiguousarray(x, dtype=float)
    # op(at) = a^T, so a itself is op with the other flag
    return dgemv(1.0, at, x, trans=1 - trans)


def dot(x, y):
    """The inner product of two 1-D float arrays of one length."""
    return float(ddot(x, y)) if len(x) else 0.0


def eigh(a):
    """Eigenvalues (ascending) and C-ordered eigenvectors of the symmetric
    ``a``, read from its lower triangle.

    The divide-and-conquer driver is the one numpy's ``eigh`` uses; SciPy's
    default driver took half again as long on a 1250-node kernel.  LAPACK
    writes the eigenvectors Fortran-ordered; they are returned C-ordered,
    as numpy returns them, so that the column gather of features_from_eig
    yields a C-ordered factor without another copy.
    """
    w, v = scipy.linalg.eigh(a, driver="evd", check_finite=False)
    return w, np.ascontiguousarray(v)


def eigvalsh(a):
    """Eigenvalues (ascending) of the symmetric ``a``, from its lower triangle."""
    return scipy.linalg.eigvalsh(a, driver="evd", check_finite=False)
