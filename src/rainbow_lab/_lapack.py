"""SciPy's compiled LAPACK and BLAS, without importing ``scipy.linalg``.

Every solve of the library runs on the LAPACK and BLAS that SciPy
bundles, but none of it needs ``scipy.linalg``'s Python layer, whose
package init costs about as much as numpy's own import (it pulls in
``numpy.f2py``, ``numpy.testing`` and ``numpy.random``).  So this module
loads SciPy's three compiled modules straight from their files: the f2py
wrappers ``_flapack`` and ``_fblas`` and the capsule table
``cython_lapack``, without running ``scipy/linalg/__init__.py``.  Each is
registered in ``sys.modules`` under its own name, and one that is already
there is reused, so ``rainbow_lab`` and ``scipy.linalg`` share one copy in
either import order; ``from scipy.linalg import _flapack`` gives the object
held here.  If the files cannot be loaded this way, the modules are
imported the ordinary way, which runs ``scipy.linalg``'s init but calls
the same routines.

One difference remains when ``rainbow_lab`` loads first: a later
``import scipy.linalg`` does not bind these three modules as attributes of
the package, so the spelling ``scipy.linalg._flapack`` raises
AttributeError, while ``from scipy.linalg import _flapack`` and
``scipy.linalg.lapack`` work as usual.

The wrappers repeat the LAPACK calls that SciPy's Python functions make,
routine, arguments and workspace query alike, so their results keep the
bits of the SciPy function each one names.

One failure rule holds for every LAPACK call of the library, here and in
the modules that call LAPACK themselves: its ``info`` goes through
``_check``, which raises NumericsError for any nonzero value, an illegal
argument (info < 0) or a failed solve (info > 0) alike.  A caller tests
info itself only where a positive value is a documented result rather
than a failure (dgetrf's exact zero pivot), and passes the rest on.  So a LAPACK failure is never a ValueError, and
the command line files it as numerical (exit 3).
"""

from __future__ import annotations

import ctypes
import importlib
import importlib.util
import re
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np


def _compiled(name: str):
    """The compiled module ``scipy.linalg.<name>``, loaded from its file
    without the package's init, or taken from ``sys.modules``."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    try:
        where = importlib.util.find_spec("scipy.linalg").submodule_search_locations
        finder = FileFinder(where[0], (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(full)
        if spec is None:
            raise ImportError(f"no extension module {full} in {where[0]}")
        module = importlib.util.module_from_spec(spec)
        # registered under its real name before exec_module, as the import
        # system registers it, so a later import of scipy.linalg takes this
        # copy (under another name cython_lapack breaks that import)
        sys.modules[full] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[full]
            raise
        return module
    except ImportError:
        return importlib.import_module(full)


_flapack = _compiled("_flapack")
_fblas = _compiled("_fblas")
_cython_lapack = _compiled("cython_lapack")

_CHAR = ctypes.c_char_p
_INT = ctypes.POINTER(ctypes.c_int)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_capsule_name = ctypes.pythonapi.PyCapsule_GetName
_capsule_name.argtypes = [ctypes.py_object]
_capsule_name.restype = ctypes.c_char_p
_capsule_pointer = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
_capsule_pointer.restype = ctypes.c_void_p


def _lapack(name: str, *argtypes):
    """LAPACK routine ``name`` from SciPy's Cython LAPACK table, as a ctypes
    function (ctypes releases the GIL for the duration of the call).

    The capsule name spells the C signature; it must match ``argtypes``
    exactly, so an ILP64 (64-bit integer) LAPACK fails here instead of
    corrupting memory later.
    """
    capsule = _cython_lapack.__pyx_capi__[name]
    signature = _capsule_name(capsule)
    spelled = {_CHAR: "char *", _INT: "int *", _DOUBLE: "double *"}
    want = "void (" + ", ".join(spelled[t] for t in argtypes) + ")"
    got = re.sub(r"__pyx_t_\w+_d \*", "double *", signature.decode())
    if got != want:
        raise ImportError(f"LAPACK {name} has signature {got!r}, expected {want!r}")
    address = _capsule_pointer(capsule, signature)
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


class NumericsError(RuntimeError):
    """Raised when a numerical routine cannot certify its result."""


def _check(routine: str, info) -> None:
    """NumericsError unless LAPACK's ``info`` from ``routine`` is 0."""
    if info:
        raise NumericsError(f"{routine} failed with info={int(info)}")


def _lwork(routine: str, **query):
    """The workspace sizes from ``routine``'s ``*_lwork`` query (its outputs
    but the last, info), truncated to int as SciPy truncates them."""
    *sizes, info = getattr(_flapack, routine + "_lwork")(**query)
    _check(routine + "_lwork", info)
    return [int(size) for size in sizes]


def _gesdd(a, compute_uv: int, overwrite_a: int):
    """dgesdd with full matrices, as ``scipy.linalg.svd`` calls it; a must
    be finite and non-empty."""
    m, n = a.shape
    (lwork,) = _lwork("dgesdd", m=m, n=n, compute_uv=compute_uv, full_matrices=1)
    u, s, vt, info = _flapack.dgesdd(a, compute_uv=compute_uv, lwork=lwork,
                                     full_matrices=1, overwrite_a=overwrite_a)
    _check("dgesdd", info)
    return u, s, vt


def _svd(a) -> tuple:
    """``scipy.linalg.svd(a, overwrite_a=True)`` of a non-empty a: (U, s,
    V^T), full matrices, by dgesdd; an F-ordered a is overwritten."""
    return _gesdd(np.asarray_chkfinite(a), 1, 1)


def _svdvals(a) -> np.ndarray:
    """``scipy.linalg.svdvals(a)``: the singular values, descending, by
    dgesdd; none for an empty a."""
    a = np.asarray_chkfinite(a)
    if not a.size:
        return np.empty(0)
    return _gesdd(a, 0, 0)[1]


def _eigvalsh_evd(a) -> np.ndarray:
    """``scipy.linalg.eigvalsh(a, driver="evd", check_finite=False)``: the
    eigenvalues, ascending, of the symmetric a's lower triangle by dsyevd."""
    a = np.asarray(a)
    if not a.size:
        return np.empty(0)
    lwork, liwork = _lwork("dsyevd", n=a.shape[0], lower=1, compute_v=0)
    w, _, info = _flapack.dsyevd(a=a, overwrite_a=0, lower=1, compute_v=0,
                                 lwork=lwork, liwork=liwork)
    _check("dsyevd", info)
    return w


def _eigh_tridiagonal(d, e) -> tuple:
    """``scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stev",
    check_finite=False)``: (w, q), the eigenvalues, ascending, and the
    eigenvectors (columns of q) of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, by dstev (implicit QL/QR, dsteqr).  A
    1 x 1 matrix is its own level, as in SciPy's quick exit (f2py's dstev
    rejects its empty e)."""
    if d.size == 1:
        return np.array([d[0]]), np.ones((1, 1))
    w, q, info = _flapack.dstev(d, e, compute_v=1)
    _check("dstev", info)
    return w, q


def _solve_triangular(r, b) -> np.ndarray:
    """``scipy.linalg.solve_triangular(r, b)`` for a C-ordered upper
    triangular r: dtrtrs on the lower triangular r^T with trans = 1, as
    SciPy passes it; r and b must be finite."""
    r = np.asarray_chkfinite(r)
    b = np.asarray_chkfinite(b)
    x, info = _flapack.dtrtrs(r.T, b, overwrite_b=0, lower=1, trans=1, unitdiag=0)
    _check("dtrtrs", info)
    return x
