"""One BLAS per sweep point: the per-point pipelines run their dense
products and factorizations on SciPy's OpenBLAS, the library every solve
runs on, and never call numpy's, whose separate thread pool would compete
with SciPy's for the same cores."""

import ast
import ctypes
import glob
import inspect
import os
import textwrap

import numpy as np
import pytest
import scipy

from rainbow_lab import Lattice2D, continuum, entanglement, profile_from_z, spectra
from rainbow_lab.spectra import _dgemm

PER_POINT = [
    entanglement.polar_block,
    entanglement.halfchain_nu,
    entanglement.correlation_matrix,
    entanglement.CorrelationMatrix.eigenvalues,
    spectra.even_sector,
    spectra._edge_levels,
    spectra._secular_roots,
    spectra._chain_solve,
    spectra._dense_svd,
    spectra._sector_half,
    spectra._resolvable_links,
    entanglement.lattice_half_nu,
    continuum.validity_overlap,
    continuum._sector_block,
    continuum._level_samples,
    continuum._unit_rows,
]

# Every function of the per-point modules that does call numpy's BLAS.
NUMPY_BLAS_USERS = {
    # row norms taken as np.linalg.norm takes them, so the wavefunction
    # artifact prints its samples bitwise; one dot of 2L samples per level
    "continuum._analytic_levels",
    # once per command or per tiny fit, not on a sweep point's dense work
    "entanglement.brute_force_block_entropy",
    "spectra.fermi_velocity_fit",
}


def numpy_blas_calls(node) -> list:
    """The expressions under `node` that run numpy's BLAS or LAPACK: `@`,
    np.dot, a .dot method and np.linalg calls (not its exception classes)."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.MatMult):
            found.append(ast.unparse(sub))
        elif isinstance(sub, ast.Call):
            name = ast.unparse(sub.func)
            if (name == "np.dot" or name.endswith(".dot")
                    or (name.startswith("np.linalg.") and not name.endswith("Error"))):
                found.append(ast.unparse(sub))
    return found


def _functions(tree, prefix):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")


@pytest.mark.parametrize("func", PER_POINT, ids=lambda f: f.__qualname__)
def test_per_point_function_uses_no_numpy_blas(func):
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    assert numpy_blas_calls(tree) == []


def test_numpy_blas_users_are_named():
    users = set()
    for module in (spectra, entanglement, continuum):
        short = module.__name__.rpartition(".")[2]
        for name, node in _functions(ast.parse(inspect.getsource(module)), short + "."):
            if numpy_blas_calls(node):
                users.add(name)
    assert users == NUMPY_BLAS_USERS


@pytest.mark.parametrize("order_a", "CFS")
@pytest.mark.parametrize("order_b", "CFS")
def test_dgemm_keeps_numpys_bits(order_a, order_b, rng):
    # S: a strided view, which numpy's product and dgemm both read C-ordered
    def operand(rows, cols, order):
        if order == "S":
            return rng.normal(size=(rows, 2 * cols))[:, ::2]
        return np.asarray(rng.normal(size=(rows, cols)), order=order)

    a, b = operand(70, 90, order_a), operand(90, 40, order_b)
    assert np.array_equal(_dgemm(a, b), a @ b)


@pytest.mark.parametrize("shape_a,shape_b", [((3, 0), (0, 4)), ((0, 5), (5, 2)),
                                             ((2, 5), (5, 0))])
def test_dgemm_empty(shape_a, shape_b):
    got = _dgemm(np.ones(shape_a), np.ones(shape_b))
    assert got.shape == (shape_a[0], shape_b[1])
    assert not got.any()


def _scipy_openblas():
    """SciPy's bundled OpenBLAS, or None where SciPy links another BLAS."""
    found = glob.glob(os.path.join(os.path.dirname(scipy.__file__) + ".libs",
                                   "libscipy_openblas*.so"))
    if not found:
        return None
    lib = ctypes.CDLL(found[0])
    if not hasattr(lib, "scipy_openblas_set_num_threads"):
        return None
    return lib


def test_halfchain_fold_is_blas_thread_independent():
    # the fold's solves (dbdsqr, dlaed4) call no BLAS, and its BLAS calls
    # (the Cauchy factor's dgemv, the Gram's dsyrk) split their work by
    # output entry, so its nu are bitwise the same on one SciPy BLAS thread
    # and on two; L = 1601 reaches the factor's largest rank
    lib = _scipy_openblas()
    if lib is None:
        pytest.skip("SciPy does not bundle its own OpenBLAS here")
    profiles = [profile_from_z(L, z) for L in (800, 801, 803, 1601) for z in (0.0, 2.0, 4.0)]
    before = lib.scipy_openblas_get_num_threads()
    try:
        nus = {}
        for threads in (1, 2):
            lib.scipy_openblas_set_num_threads(threads)
            nus[threads] = [entanglement.halfchain_nu(p).tobytes() for p in profiles]
    finally:
        lib.scipy_openblas_set_num_threads(before)
    assert nus[1] == nus[2]


def test_lattice_sectors_are_blas_thread_independent():
    # a sector's two mirror-parity halves (L sites each) go through dstev's
    # implicit QL/QR, which applies plane rotations and calls no BLAS
    # product, and the left block's readout is one small dgemm: the same
    # bits on one SciPy BLAS thread and on two, up to L = 64 and on the
    # graded (24, 0.5) and (24, 0.45) (coupling ratios 1.2e7 and 1.4e8; the
    # dense block of the lattices past SECTOR_MAX_RATIO is not: its dgesdd
    # moves with the thread count)
    lib = _scipy_openblas()
    if lib is None:
        pytest.skip("SciPy does not bundle its own OpenBLAS here")
    lattices = [Lattice2D(L, alpha) for L, alpha in
                ((8, 1.0), (16, 0.8), (24, 0.6), (24, 0.5), (24, 0.45), (64, 0.9))]
    before = lib.scipy_openblas_get_num_threads()
    try:
        nus = {}
        for threads in (1, 2):
            lib.scipy_openblas_set_num_threads(threads)
            nus[threads] = [entanglement.lattice_half_nu(lat).tobytes() for lat in lattices]
    finally:
        lib.scipy_openblas_set_num_threads(before)
    assert nus[1] == nus[2]
