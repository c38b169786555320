"""Dense reference route for the tests: the full hopping matrix, its
spectrum and the ground-state correlation matrix (Peschel, J. Phys. A 36
L205 (2003)).

The library never forms these (``spectra.chain_svd`` and
``spectra.lattice_svd`` read the sublattice block straight from the
couplings and links); the tests build them here from the same couplings
and links, so every shipped route has a dense counterpart to agree with.
Plain functions: matrices and sublattices are arrays, and nothing here
validates its input, which comes from the tests alone.
"""

import numpy as np

from rainbow_lab import spectra
from rainbow_lab.entanglement import CorrelationMatrix
from rainbow_lab.lattice import CouplingProfile, lattice_links, signed_profile


def chain_hamiltonian(profile):
    """Dense tridiagonal hopping matrix of a chain, element -J/2 on each
    link, and its sublattice (the site parity).

    Takes a CouplingProfile or a plain signed coupling sequence of odd
    length.
    """
    c = profile.couplings if isinstance(profile, CouplingProfile) else signed_profile(profile)
    n = c.size + 1
    m = np.zeros((n, n))
    idx = np.arange(n - 1)
    m[idx, idx + 1] = -c / 2.0
    m[idx + 1, idx] = -c / 2.0
    return m, np.arange(n) % 2


def lattice_hamiltonian(lat):
    """Dense hopping matrix of the 2D lattice from ``lattice_links``,
    element -J/2 on each link, and its sublattice (the checkerboard)."""
    m = np.zeros((lat.n_sites, lat.n_sites))
    i, j, J = lattice_links(lat.L, lat.alpha)
    m[i, j] = m[j, i] = -J / 2.0
    return m, lat.checkerboard()


def sublattice_block(m, sublattice):
    """The (sublattice 0 x sublattice 1) block M of a bipartite matrix."""
    return m[np.ix_(sublattice == 0, sublattice == 1)]


def diagonalize(m, sublattice):
    """The sublattice SVD of a dense bipartite hopping matrix.

    A bidiagonal sublattice block (a chain) goes to the solve of
    ``chain_svd``, any other to that of ``lattice_svd``: the result is
    bitwise that of the shipped route on the same couplings.
    """
    block = sublattice_block(m, sublattice)
    on_band = np.count_nonzero(np.diagonal(block)) + np.count_nonzero(
        np.diagonal(block, -1)
    )
    if np.count_nonzero(block) == on_band:
        return spectra._chain_solve(np.diagonal(block), np.diagonal(block, -1), sublattice)
    return spectra._dense_svd(block, sublattice)


def zero_modes(svd):
    """Boolean mask of the levels within ``svd.zero_tol`` of zero."""
    return np.abs(svd.energies) <= svd.zero_tol


def occupied(svd):
    """The dim/2 negative-energy orbitals of the half-filled ground state;
    ZeroModeError, with ``occupied_from_svd``'s message, on zero modes."""
    count = int(np.count_nonzero(zero_modes(svd)))
    if count:
        raise spectra.ZeroModeError(
            f"{count} single-particle zero modes; "
            "half filling is ambiguous, choose an explicit filling policy"
        )
    return spectra.orbitals_from_svd(svd)[:, : svd.s.size].copy()


def correlation(svd):
    """Full ground-state correlation matrix at half filling, the zero
    shell at density 1/2: C = P(E<0) + P(E=0)/2."""
    energies, orbitals = svd.energies, spectra.orbitals_from_svd(svd)
    zero = zero_modes(svd)
    if not np.any(zero):
        occ = orbitals[:, : svd.s.size]
        return occ @ occ.T
    neg = orbitals[:, (energies < 0) & ~zero]
    shell = orbitals[:, zero]
    return neg @ neg.T + 0.5 * (shell @ shell.T)


def restrict(c, block):
    """A full correlation matrix restricted to a block of sites."""
    block = tuple(block)
    return CorrelationMatrix(block=block, entries=c[np.ix_(block, block)])
