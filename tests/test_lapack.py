"""The LAPACK/BLAS loader and its wrappers (``rainbow_lab._lapack``).

The loader takes SciPy's compiled modules without ``scipy.linalg``'s
package init; these tests pin that the import stays free of it, that
both import orders share one copy of each module, that the fallback to
an ordinary import gives the same numbers, and that each wrapper is
bitwise the ``scipy.linalg`` call it stands for.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla

from rainbow_lab import _lapack

import dense_oracle as oracle

# Results of every layer that calls a wrapper, as hex strings: the fold and
# the polar route (dgemv, dsyrk, dsyevd, dgesdd), the correlation matrix
# (dsyrk, dsyevd), the dense lattice (dgesdd, dgemm), a sector's left block
# (dstev, dgemm), the continuum overlap (dgeqrt, dgemqrt, dgemm, dgetrf) and a
# fit (dtrtrs).
RESULTS = """
import numpy as np
from rainbow_lab import (Lattice2D, chain_svd, correlation_matrix, halfchain_nu,
                         lattice_svd, linear_lsq, occupied_from_svd, polar_block,
                         profile_from_z, validity_overlap)
from rainbow_lab.lattice import link_amplitudes
from rainbow_lab.spectra import _sector_half
svd = chain_svd(profile_from_z(30, 2.0))
values = [
    halfchain_nu(profile_from_z(60, 2.0)),
    polar_block(svd, range(7, 20)),
    correlation_matrix(occupied_from_svd(svd), range(12)).eigenvalues(),
    lattice_svd(Lattice2D(4, 0.7)).s,
    _sector_half(*link_amplitudes(16, 0.8), 5),
    [validity_overlap(20, 1.0)],
    list(linear_lsq(np.vander(np.arange(10.0, 20.0), 3), np.log(np.arange(10.0, 20.0)))
         .coefficients.values()),
]
print([float(v).hex() for row in values for v in np.asarray(row).ravel()])
"""


def _run(code: str) -> str:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


class TestLoader:
    def test_cli_import_leaves_scipy_linalg_out(self):
        out = _run("import sys, rainbow_lab.cli; "
                   "print('scipy.linalg' in sys.modules, "
                   "all(f'scipy.linalg.{m}' in sys.modules "
                   "for m in ('_flapack', '_fblas', 'cython_lapack')))")
        assert out.split() == ["False", "True"]

    def test_later_scipy_linalg_shares_the_modules(self):
        out = _run(
            "from rainbow_lab import _lapack\n"
            "import scipy.linalg\n"
            "from scipy.linalg import _flapack, _fblas, cython_lapack\n"
            "print(_flapack is _lapack._flapack, _fblas is _lapack._fblas,\n"
            "      cython_lapack is _lapack._cython_lapack,\n"
            "      scipy.linalg.lapack.dgetrf is _lapack._flapack.dgetrf,\n"
            "      scipy.linalg.blas.dgemm is _lapack._fblas.dgemm,\n"
            "      float(scipy.linalg.svdvals([[3.0, 0.0], [0.0, 4.0]])[0]))\n"
        )
        assert out.split() == ["True"] * 5 + ["4.0"]

    def test_earlier_scipy_linalg_is_reused(self):
        out = _run(
            "import scipy.linalg\n"
            "from scipy.linalg import _flapack, _fblas, cython_lapack\n"
            "from rainbow_lab import _lapack\n"
            "print(_flapack is _lapack._flapack, _fblas is _lapack._fblas,\n"
            "      cython_lapack is _lapack._cython_lapack)\n"
        )
        assert out.split() == ["True"] * 3

    def test_fallback_imports_scipy_linalg_and_keeps_the_bits(self):
        broken = (
            "import importlib.machinery, sys\n"
            "class FileFinder(importlib.machinery.FileFinder):\n"
            "    def find_spec(self, fullname, target=None):\n"
            "        return None\n"
            "importlib.machinery.FileFinder = FileFinder\n"
            "import rainbow_lab.cli\n"
            "assert 'scipy.linalg' in sys.modules\n"
        )
        fallback = _run(broken + RESULTS)
        assert fallback == _run("import sys\n" + RESULTS
                                + "assert 'scipy.linalg' not in sys.modules\n")
        assert len(eval(fallback)) > 100

    def test_modules_come_from_scipy_linalg(self):
        where = os.path.dirname(sla.__file__)
        for module in (_lapack._flapack, _lapack._fblas, _lapack._cython_lapack):
            assert os.path.dirname(module.__file__) == where

    def test_direct_routines_are_scipys(self):
        assert _lapack._flapack.dgetrf is sla.lapack.dgetrf
        assert _lapack._fblas.dgemv is sla.blas.dgemv
        assert _lapack._fblas.dgemm is sla.blas.dgemm
        assert _lapack._fblas.dsyrk is sla.blas.dsyrk


def _same(got, want):
    """Bitwise equality of arrays (or tuples of arrays): shape, dtype, bytes."""
    got = got if isinstance(got, tuple) else (got,)
    want = want if isinstance(want, tuple) else (want,)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (5, 3), (3, 5), (40, 40), (90, 60)]


def _operand(shape, order):
    rng = np.random.default_rng(sum(shape) + (order == "T"))
    if order == "T":  # an F-ordered view, as _svd and the oracle's qr_q receive
        return rng.normal(size=shape[::-1]).T
    return rng.normal(size=shape)


class TestWrappersAreScipyBitwise:
    @pytest.mark.parametrize("order", ["C", "T"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_svd(self, shape, order):
        a = _operand(shape, order)
        # validate's one-site blocks pass polar_block an empty X; _dense_svd,
        # _svd's one caller, passes at least 2 x 2, and lets it overwrite
        # its F-ordered operand
        _same(_lapack._svdvals(a), sla.svdvals(a))
        if a.size:
            _same(_lapack._svd(np.copy(a)), sla.svd(np.copy(a), overwrite_a=True))

    @pytest.mark.parametrize("n", [0, 1, 5, 30, 80])
    def test_eigvalsh_evd(self, n):
        a = _operand((n, n), "C")
        a = a + a.T
        a[np.triu_indices(n, 1)] = 7.0  # only the lower triangle is read
        _same(_lapack._eigvalsh_evd(a),
              sla.eigvalsh(a, driver="evd", check_finite=False))

    @pytest.mark.parametrize("n", [1, 2, 5, 25, 26, 128])
    def test_eigh_tridiagonal(self, n):
        # _sector_half's mirror-parity halves: n = L from 1 up, n = 1 by
        # SciPy's quick exit, which calls no LAPACK
        d = _operand((n,), "C")
        e = _operand((n - 1,), "C")
        _same(_lapack._eigh_tridiagonal(d, e),
              sla.eigh_tridiagonal(d, e, lapack_driver="stev", check_finite=False))

    @pytest.mark.parametrize("order", ["C", "T"])
    @pytest.mark.parametrize("shape", [s for s in SHAPES if all(s)])
    def test_qr(self, shape, order):
        # the explicit-Q oracle of validity_overlap; its continuum_occupied
        # passes 2L x L
        a = _operand(shape, order)
        _same(oracle.qr_q(a), sla.qr(a, mode="economic", check_finite=False)[0])

    @pytest.mark.parametrize("n", [1, 3, 20])
    def test_solve_triangular(self, n):
        q, r = np.linalg.qr(_operand((n + 2, n), "C"))
        b = q.T @ _operand((n + 2,), "C")
        assert r.flags.c_contiguous  # as linear_lsq passes it
        _same(_lapack._solve_triangular(r, b), sla.solve_triangular(r, b))

    def test_non_finite_operands_are_refused(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        for call in (_lapack._svd, _lapack._svdvals):
            with pytest.raises(ValueError):
                call(bad)
        with pytest.raises(ValueError):
            _lapack._solve_triangular(bad, np.ones(2))
