"""Closed-form continuum predictions for the deformed chain.

Levels are indexed relative to the Fermi point: m = 0 is the first
single-particle level above it, m = -1 the first below, so the exact
eigenvector matching analytic level m is column ``L + m`` of the
ascending spectrum of a 2L-site chain.

The closed-form wavefunction lives in one vectorized core that samples
any set of levels in a single broadcast: ``analytic_wavefunction`` asks
it for one level and returns that level's unit vector, and
``continuum_occupied`` asks for all L occupied levels at once.
``validity_overlap`` compares that continuum state with the exact ground
state of one chain, whose occupied orbitals come straight from the
chain's sublattice SVD (``spectra.occupied_from_svd``), so neither side
builds a hopping matrix or loops over levels.  Sweeping it over an
(L, z) grid is the caller's loop (the CLI's validity-map), and
``overlap_crossing`` reads off one L's row of overlaps the z where the
overlap drops through a level.

Each validity-map point keeps to one BLAS, SciPy's, which the chain solve
already runs on (the rule of ``spectra``): the QR, the Gram and overlap
products and the LU of the overlap go through ``scipy.linalg``, and numpy
keeps the elementwise work.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

from .lattice import profile_from_z, site_labels
from .spectra import NumericsError, _dgemm, chain_svd, occupied_from_svd, velocity_scaling

# Below this h the exponentials are evaluated by series limit.
_H_TINY = 1e-8


def _expm1_over_h(h: float, x) -> np.ndarray | float:
    """(e^{h x} - 1)/h with the h -> 0 limit handled by series."""
    x = np.asarray(x, dtype=float)
    if h < _H_TINY:
        out = x * (1.0 + h * x / 2.0 + (h * x) ** 2 / 6.0)
    else:
        out = np.expm1(h * x) / h
    return out if out.shape else float(out)


def deformed_length(h: float, L: float) -> float:
    """tilde_L = (e^{hL} - 1)/h, the deformed half-length; equals L at h=0.

    ValueError for h < 0; NumericsError where it overflows (hL near 709.78
    or above), since every phase that divides by tilde_L would then read 0.
    """
    if h < 0:
        raise ValueError(f"h must be non-negative, got {h!r}")
    length = float(_expm1_over_h(h, L))
    if length == math.inf:
        raise NumericsError(f"(e^(hL) - 1)/h overflows at h = {h!r}, L = {L!r}")
    return length


def analytic_energy(m: int, h: float, L: int) -> float:
    """Deformed single-particle level E_m = a(hL) pi (m + 1/2) / (2L).

    Equivalently h pi (m + 1/2) / (2 (e^{hL} - 1)); the h = 0 limit is the
    uniform spectrum pi (m + 1/2) / (2L).
    """
    if h < 0:
        raise ValueError(f"h must be non-negative, got {h!r}")
    return velocity_scaling(h * L) * math.pi * (m + 0.5) / (2 * L)


def coordinate_map(x, h: float):
    """The deforming change of variables sign(x) (e^{h|x|} - 1)/h.

    Odd, strictly increasing, derivative e^{h|x|}; identity at h = 0.
    Accepts scalars or arrays.
    """
    if h < 0:
        raise ValueError(f"h must be non-negative, got {h!r}")
    x = np.asarray(x, dtype=float)
    out = np.sign(x) * _expm1_over_h(h, np.abs(x))
    return out if out.shape else float(out)


def _analytic_levels(ms: np.ndarray, h: float, L: int) -> np.ndarray:
    """Unit-norm continuum eigenfunctions of the levels `ms` on the 2L
    lattice sites, one row per level, all in one broadcast.

    NumericsError when a row norm overflows: sum_n e^(h|n|) can pass the
    float range while tilde_L is still finite (small h, L of a few hundred
    and up, hL just short of 709.78), and every row would then read 0."""
    ns = site_labels(L)
    absn = np.abs(ns)
    ms = np.asarray(ms)[:, None]
    ratio = np.asarray(_expm1_over_h(h, absn)) / deformed_length(h, L)
    phase = np.pi * (ns - ms) / 2.0 + np.sign(ns) * (np.pi * (ms + 0.5) / 2.0) * ratio
    v = np.exp(h * absn / 2.0) * np.cos(phase)
    # row norms from a stack of (1 x n)(n x 1) products: each is the dot
    # np.linalg.norm takes of one level, so a row does not depend on which
    # other levels share the call.  continuum_occupied needs that: its
    # columns are near-dependent past z ~ 1, and QR turns one-ulp changes
    # of them into O(1) changes of Q.
    norms = np.sqrt(v[:, None, :] @ v[:, :, None])[:, :, 0]
    if not np.isfinite(norms).all():
        raise NumericsError(f"continuum row norms overflow at h = {h!r}, L = {L!r}")
    return v / norms


def analytic_wavefunction(m: int, h: float, L: int) -> np.ndarray:
    """Continuum eigenfunction of level m on the 2L lattice sites, a unit
    vector.

    psi_n ~ e^{h|n|/2} cos[ pi(n-m)/2
                            + sign(n) (pi(m+1/2)/2) (e^{h|n|}-1)/(e^{hL}-1) ].

    Accurate for |m| << L; deep levels vary on the lattice scale and are
    not captured (quantify with wavefunction_overlap).
    """
    return _analytic_levels(np.array([m]), h, L)[0]


def wavefunction_overlap(a, b) -> float:
    """|<a|b>| of two single-particle vectors, renormalized internally."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(abs(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def slater_overlap(occ_a: np.ndarray, occ_b: np.ndarray) -> float:
    """|det(A^T B)| between two Slater states given by orthonormal orbitals.

    Invariant under orthogonal rotations inside either occupied set.
    ValueError unless both sets have one shape and each is orthonormal,
    ||M^T M - I||_F <= 1e-8 (the tolerance slater_amplitudes puts on a
    state's norm; NaN fails).  The norm is an elementwise sum: a BLAS dot
    on numpy's library would wake its thread pool.
    """
    a = np.asarray(occ_a, dtype=float)
    b = np.asarray(occ_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"orbital matrices differ in shape: {a.shape} vs {b.shape}")
    for m in (a, b):
        gram = _dgemm(m.T, m)
        gram[np.diag_indices_from(gram)] -= 1.0
        if not np.sum(gram * gram) <= 1e-16:
            raise ValueError("orbital set is not orthonormal (||M^T M - I||_F > 1e-8)")
    lu, _, info = sla.lapack.dgetrf(_dgemm(a.T, b))
    if info > 0:  # an exact zero pivot: the determinant is 0
        return 0.0
    return float(np.exp(np.sum(np.log(np.abs(np.diag(lu))))))


def continuum_occupied(L: int, h: float) -> np.ndarray:
    """QR-orthonormalized analytic orbitals of the L occupied levels m = -L..-1."""
    levels = _analytic_levels(np.arange(-L, 0), h, L)
    # no finiteness scan: deformed_length refuses a tilde_L that overflows,
    # and validity_overlap's exact solve, first, an underflowed chain
    q, _ = sla.qr(levels.T, mode="economic", check_finite=False)
    return q


def validity_overlap(L: int, z: float) -> float:
    """Many-body overlap of the continuum and exact ground states of the
    2L-site chain at deformation z, which quantifies where the continuum
    holds."""
    exact = occupied_from_svd(chain_svd(profile_from_z(L, z)))
    return slater_overlap(continuum_occupied(L, z / L), exact)


def overlap_crossing(z_values, overlaps, level: float) -> float:
    """First z where one L's overlap row drops through `level`, linearly
    interpolated; NaN when it is not crossed inside the scanned z range."""
    for k in range(1, len(z_values)):
        if overlaps[k - 1] >= level > overlaps[k]:
            t = (level - overlaps[k - 1]) / (overlaps[k] - overlaps[k - 1])
            return float(z_values[k - 1] + t * (z_values[k] - z_values[k - 1]))
    return math.nan
