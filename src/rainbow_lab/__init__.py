"""Numerical laboratory for rainbow free-fermion chains.

Builds the couplings of inhomogeneous hopping chains and the links of
their 2D extension, solves both through the SVD of the sublattice block
(no dense hopping matrix is formed), whose singular values are the levels
+-s, computes each block's correlation eigenvalues nu exactly from its
polar factor (every entropy and the entanglement spectrum are functions of
nu alone), and checks the continuum/CFT predictions for spectra,
wavefunctions, entropies and the entanglement spectrum.  Orbitals are
assembled from the same SVD only for the outputs that print them.
"""

__version__ = "0.1.0"

from .lattice import (
    CouplingProfile,
    Lattice2D,
    build_rainbow_profile,
    profile_from_z,
)
from .spectra import (
    SublatticeSVD,
    ZeroModeError,
    chain_svd,
    fermi_velocity,
    fermi_velocity_fit,
    lattice_svd,
    level_orbital,
    occupied_from_svd,
    orbitals_from_svd,
    site_occupations,
    velocity_scaling,
)
from .continuum import (
    analytic_wavefunction,
    deformed_length,
    overlap_crossing,
    validity_overlap,
)
from .entanglement import (
    CorrelationMatrix,
    boundary_blocks,
    brute_force_block_entropy,
    correlation_matrix,
    entanglement_spectrum,
    halfchain_nu,
    lattice_half_nu,
    polar_block,
    renyi_entropies,
    vn_entropy,
)
from .sdrg import (
    Bond,
    BondList,
    TieError,
    bond_state_orbitals,
    rainbow_bonds,
    render_arcs,
    sdrg_entropy,
    sdrg_run,
)
from .fitting import (
    FitResult,
    RankDeficientError,
    fit_2d,
    fit_renyi_halfchain,
    linear_lsq,
)
from .qubism import (
    AmplitudeTable,
    render,
    slater_amplitudes,
    write_ppm,
)
