"""Exact single-particle diagonalization and Fermi-velocity extraction.

Every hopping matrix is bipartite with zero diagonal, and its builder
records the sublattice (even/odd sites in 1D, checkerboard in 2D), so it
has the block form ``[[0, M], [M^T, 0]]`` in the sublattice basis.  Its
eigenpairs follow from the SVD ``M = U S V^T``: energies come in exact
``+-s`` pairs with eigenvectors ``(u, +-v)/sqrt(2)``.

For the graded rainbow chains this route is essential, not cosmetic:
couplings span hundreds of orders of magnitude and a plain symmetric
eigensolver cannot resolve the near-zero pair splittings (it returns an
arbitrary mixture of the outer bond orbitals, which wrecks occupations
and entropies).  ``M`` of a zero-diagonal tridiagonal chain is
bidiagonal, and bidiagonal SVD determines every singular value to high
*relative* accuracy, so the ground-state projector stays correct even
when the smallest couplings are ~1e-300.  The matrix is handed to LAPACK
in upper-bidiagonal orientation so the reduction step cannot mix the
graded entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .lattice import HoppingMatrix

RESIDUAL_TOL = 1e-10
ZERO_MODE_TOL = 1e-12


class NumericsError(RuntimeError):
    """Raised when a numerical routine cannot certify its result."""


class ZeroModeError(NumericsError):
    """Half filling is ambiguous because single-particle zero modes exist."""


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a hopping matrix.

    ``orbitals[:, k]`` is the unit eigenvector with energy ``energies[k]``.
    ``residual`` is the largest ``|H psi - E psi|`` over all columns.
    ``zero_tol`` is the absolute threshold below which a level counts as a
    zero mode; bidiagonal-SVD spectra (1D chains) carry relative accuracy,
    so for them only exact zeros qualify and zero_tol is 0; otherwise it
    is ZERO_MODE_TOL times the spectral radius (at least 1).
    """

    energies: np.ndarray = field(repr=False)
    orbitals: np.ndarray = field(repr=False)
    residual: float
    zero_tol: float

    @property
    def dim(self) -> int:
        return self.energies.size

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.energies))) if self.dim else 0.0

    def zero_modes(self) -> np.ndarray:
        """Boolean mask of levels indistinguishable from zero."""
        return np.abs(self.energies) <= self.zero_tol


@dataclass(frozen=True)
class FermiVelocityEstimate:
    """Numerically extracted spectral slope at the Fermi point vs z/(e^z - 1)."""

    z: float
    a_numeric: float
    a_analytic: float


def velocity_scaling(z: float) -> float:
    """The deformed Fermi velocity a(z) = z / (e^z - 1); a(0) = 1."""
    if z < 0:
        raise ValueError(f"z must be non-negative, got {z!r}")
    if z < 1e-8:
        return 1.0 - z / 2.0 + z * z / 12.0
    return z / np.expm1(z)


def _svd_bipartite(m: np.ndarray, sublattice: np.ndarray):
    """Exact +-pair spectrum of [[0, M], [M^T, 0]] via SVD of M."""
    a_idx = np.nonzero(sublattice == 0)[0]
    b_idx = np.nonzero(sublattice == 1)[0]
    block = m[np.ix_(a_idx, b_idx)]
    # QR-iteration SVD keeps the relative accuracy of severely graded
    # spectra (couplings spanning hundreds of decades); divide and conquer
    # is much faster and loses nothing when the grading is mild.
    nz = np.abs(block[block != 0.0])
    graded = nz.size and float(nz.max() / nz.min()) > 1e10
    # For 1D chains 'block' is lower bidiagonal; transposing hands LAPACK an
    # upper-bidiagonal matrix, which the SVD processes without a reduction
    # step that would mix the graded entries.
    u2, s, v2t = sla.svd(block.T, lapack_driver="gesvd" if graded else "gesdd")
    k_dim = block.shape[0]
    off_mask = ~(np.eye(k_dim, dtype=bool) | np.eye(k_dim, k=-1, dtype=bool))
    bidiagonal = not np.any(block[off_mask])
    u, vt = v2t.T, u2.T
    n = m.shape[0]
    k = s.size
    energies = np.concatenate([-s, s[::-1]])
    orbitals = np.zeros((n, n))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for p in range(k):
        orbitals[a_idx, p] = u[:, p] * inv_sqrt2
        orbitals[b_idx, p] = -vt[p, :] * inv_sqrt2
        q = n - 1 - p
        orbitals[a_idx, q] = u[:, p] * inv_sqrt2
        orbitals[b_idx, q] = vt[p, :] * inv_sqrt2
    return energies, orbitals, bidiagonal


def _fix_phases(orbitals: np.ndarray) -> np.ndarray:
    """Deterministic output: make the first significant component of every
    column positive."""
    for k in range(orbitals.shape[1]):
        col = orbitals[:, k]
        nz = np.nonzero(np.abs(col) > 1e-8 * np.max(np.abs(col)))[0]
        if nz.size and col[nz[0]] < 0:
            orbitals[:, k] = -col
    return orbitals


def diagonalize(H: HoppingMatrix) -> SpectrumResult:
    """Full spectrum of a bipartite hopping matrix from the builders.

    The matrix is solved through the SVD of its sublattice block, which
    enforces exact particle-hole pairing.

    Raises
    ------
    TypeError
        If H is not a HoppingMatrix.
    NumericsError
        If the SVD fails to converge or the final residual exceeds
        RESIDUAL_TOL relative to the spectral radius.
    """
    if not isinstance(H, HoppingMatrix):
        raise TypeError(f"expected a HoppingMatrix, got {type(H).__name__}")
    m = H.entries
    try:
        energies, orbitals, bidiagonal = _svd_bipartite(m, H.sublattice)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericsError(f"SVD failed on dim {m.shape[0]}: {exc}") from exc

    orbitals = _fix_phases(orbitals)
    residual = float(np.max(np.abs(m @ orbitals - orbitals * energies)))
    radius = float(np.max(np.abs(energies))) if energies.size else 0.0
    if residual > RESIDUAL_TOL * max(radius, 1e-300):
        raise NumericsError(
            f"eigen-residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} x "
            f"spectral radius {radius:.3e}"
        )
    zero_tol = 0.0 if bidiagonal else ZERO_MODE_TOL * max(radius, 1.0)
    return SpectrumResult(
        energies=energies, orbitals=orbitals, residual=residual, zero_tol=zero_tol
    )


def occupied_orbitals(spec: SpectrumResult) -> np.ndarray:
    """The dim/2 negative-energy orbitals (half-filled ground state).

    Raises ZeroModeError when single-particle levels sit within
    ZERO_MODE_TOL of zero; the half-filled Slater state is then not
    unique and the caller must pick a filling policy explicitly (see
    ``entanglement.ground_state_correlation``).
    """
    if spec.dim % 2:
        raise ValueError(f"dimension {spec.dim} is odd; no half filling")
    zero = spec.zero_modes()
    if np.any(zero):
        raise ZeroModeError(
            f"{int(np.count_nonzero(zero))} single-particle zero modes; "
            "half filling is ambiguous, choose an explicit filling policy"
        )
    return spec.orbitals[:, : spec.dim // 2].copy()


def site_occupations(occ: np.ndarray) -> np.ndarray:
    """Ground-state occupations <n_i> = sum_k |psi^k_i|^2 (real orbitals)."""
    occ = np.asarray(occ, dtype=float)
    return np.einsum("ik,ik->i", occ, occ)


def fermi_velocity(spec: SpectrumResult, L: int, z: float) -> FermiVelocityEstimate:
    """Fermi velocity from the single gap across the Fermi point.

    The spectrum near the Fermi point is E_m = a(z) pi (m + 1/2) / (2L),
    so the gap between the first level above and the first below rescaled
    by 2L/pi estimates a(z) with the least band-curvature contamination.
    """
    if spec.dim < 4:
        raise ValueError(f"need at least 4 levels, got {spec.dim}")
    half = spec.dim // 2
    gap = spec.energies[half] - spec.energies[half - 1]
    return FermiVelocityEstimate(
        z=z,
        a_numeric=float(gap * 2 * L / np.pi),
        a_analytic=float(velocity_scaling(z)),
    )


def fermi_velocity_fit(
    spec: SpectrumResult, L: int, z: float, m_max: int = 4
) -> FermiVelocityEstimate:
    """Cross-check: slope of E_m vs pi(m+1/2)/(2L) fitted over |m| <= m_max."""
    half = spec.dim // 2
    if half <= m_max:
        raise ValueError(f"need more than {m_max} levels per branch")
    ms = np.arange(-m_max, m_max + 1)
    x = np.pi * (ms + 0.5) / (2 * L)
    y = spec.energies[half + ms]
    slope = float(np.dot(x, y) / np.dot(x, x))
    return FermiVelocityEstimate(
        z=z, a_numeric=slope, a_analytic=float(velocity_scaling(z))
    )


def spectrum_rows(spec: SpectrumResult):
    """(m, energy) pairs with m counted from the Fermi point (m=0 first above)."""
    half = spec.dim // 2
    for idx in range(spec.dim):
        yield idx - half, float(spec.energies[idx])


def save_orbitals(spec: SpectrumResult, path) -> None:
    """Binary dump: two little-endian uint64 (rows, cols), then the orbital
    matrix row-major as little-endian float64."""
    rows, cols = spec.orbitals.shape
    with open(path, "wb") as fh:
        fh.write(np.asarray([rows, cols], dtype="<u8").tobytes())
        fh.write(np.ascontiguousarray(spec.orbitals, dtype="<f8").tobytes())


def load_orbitals(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = np.frombuffer(fh.read(16), dtype="<u8")
        rows, cols = int(head[0]), int(head[1])
        data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
    return data.reshape(rows, cols).copy()
