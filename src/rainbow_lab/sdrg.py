"""Strong-disorder renormalization of signed hopping chains.

Each step decimates the link with the largest |J| into a two-site Bell
orbital and couples its neighbours with the effective hopping
J~ = -J_L J_R / J_max (signed values; the minus sign is the fermionic
exchange contribution of the decimated pair).  Positive hopping makes
the symmetric combination (e_i + e_j)/sqrt(2) the bound orbital under
the -J/2 matrix convention, negative hopping the antisymmetric one.

Sites are 0-based internally; for a 2L-site chain index i corresponds to
the half-odd label i - L + 1/2 (exported in JSON).  Couplings are
tracked as (log|J|, sign) so deep rainbows never underflow.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lattice import signed_profile, site_labels

TIE_TOL = 1e-12


class TieError(RuntimeError):
    """The maximal |J| is degenerate, so the decimation order is undefined."""


class Bond(NamedTuple):
    """Bell-pair orbital on two sites: sign +1 bonding, -1 anti-bonding."""

    left: int
    right: int
    sign: int


class DecimationStep(NamedTuple):
    """One RG step: which link was decimated and what coupling it created.

    `coupling` is the signed effective value (may underflow to 0.0 for
    deep chains); `log_magnitude` keeps ln|J~| exactly.  Both are None
    for boundary decimations, which create no new link.
    """

    step: int
    link: tuple
    sign: int
    created: tuple | None
    coupling: float | None
    log_magnitude: float | None


@dataclass(frozen=True)
class BondList:
    """Perfect matching of the chain sites plus the decimation trace."""

    n_sites: int
    bonds: tuple
    trace: tuple = ()

    def __post_init__(self):
        seen = [s for b in self.bonds for s in (b.left, b.right)]
        if sorted(seen) != list(range(self.n_sites)):
            raise ValueError("bonds do not form a perfect matching of the sites")

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_sites": self.n_sites,
                "site_labels": list(site_labels(self.n_sites // 2)),
                "bonds": [list(b) for b in self.bonds],
                "trace": [t._asdict() for t in self.trace],
            }
        )


def sdrg_run(couplings) -> BondList:
    """Decimate a signed chain down to a bond matching.

    Takes any odd-length signed coupling sequence (a profile's
    ``couplings``), checked by ``signed_profile``: ValueError for a
    non-finite or zero coupling.  Raises TieError when two links tie for
    the maximal |J| within a relative 1e-12 (the RG step is ill-defined,
    e.g. uniform chains).
    """
    c = signed_profile(couplings)
    n = c.size + 1

    # Active chain: its sites, and the links between them as (log|J|, sign).
    sites = list(range(n))
    links = [(math.log(abs(j)), 1 if j > 0 else -1) for j in c]

    bonds = []
    trace = []
    while links:
        step = len(bonds) + 1
        k = max(range(len(links)), key=lambda i: links[i][0])
        top, sgn = links[k]
        pair = (sites[k], sites[k + 1])
        ties = [
            (sites[i], sites[i + 1])
            for i in range(len(links))
            if i != k and top - links[i][0] <= TIE_TOL
        ]
        if ties:
            raise TieError(
                f"step {step}: links {pair} and {ties} tie "
                "for the maximal |J|; decimation order undefined"
            )
        bonds.append(Bond(*pair, sgn))

        # An interior pair joins its neighbours by a new link; an end pair
        # takes its one outer link with it.
        merged, created, coupling, new_log = [], None, None, None
        if 0 < k < len(links) - 1:
            (left, s_left), (right, s_right) = links[k - 1], links[k + 1]
            new_log = left + right - top
            new_sign = -s_left * s_right * sgn
            merged = [(new_log, new_sign)]
            created = (sites[k - 1], sites[k + 2])
            coupling = (new_sign * math.exp(new_log) if new_log > -745
                        else new_sign * 0.0)
        trace.append(DecimationStep(step, pair, sgn, created, coupling, new_log))
        links[max(k - 1, 0): k + 2] = merged
        del sites[k: k + 2]
    return BondList(n_sites=n, bonds=tuple(bonds), trace=tuple(trace))


def rainbow_bonds(L: int) -> BondList:
    """The concentric matching: bond k joins -(k-1/2) with +(k-1/2) and the
    signs alternate (+, -, +, ...) from the inside out."""
    if L < 1:
        raise ValueError(f"L must be positive, got {L}")
    bonds = tuple(
        Bond(L - k, L - 1 + k, 1 if k % 2 == 1 else -1) for k in range(1, L + 1)
    )
    return BondList(n_sites=2 * L, bonds=bonds)


def bond_state_orbitals(bonds: BondList) -> np.ndarray:
    """One orbital per bond: (e_i + sign * e_j)/sqrt(2), orthonormal columns."""
    occ = np.zeros((bonds.n_sites, len(bonds.bonds)))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for col, b in enumerate(bonds.bonds):
        occ[b.left, col] = inv_sqrt2
        occ[b.right, col] = b.sign * inv_sqrt2
    return occ


def sdrg_entropy(bonds: BondList, block) -> float:
    """ln 2 per bond crossing the block boundary (bond states are Bell pairs)."""
    inside = set(int(b) for b in block)
    crossing = sum(1 for b in bonds.bonds if (b.left in inside) != (b.right in inside))
    return crossing * math.log(2.0)


def render_arcs(bonds: BondList) -> str:
    """ASCII arc diagram of a bond matching, widest bond on top.

    Arcs are filled with the bond sign, '+' for bonding and '-' for
    anti-bonding, and end on '.' above the paired site labels.
    """
    labels = [f"{x:g}" for x in site_labels(bonds.n_sites // 2)]
    cell = max(len(s) for s in labels) + 1
    pos = [i * cell + cell // 2 for i in range(bonds.n_sites)]
    lines = []
    for b in sorted(bonds.bonds, key=lambda b: b.left - b.right):
        row = [" "] * (bonds.n_sites * cell)
        lo, hi = pos[b.left], pos[b.right]
        fill = "+" if b.sign > 0 else "-"
        for x in range(lo + 1, hi):
            row[x] = fill
        row[lo] = row[hi] = "."
        lines.append("".join(row).rstrip())
    lines.append("".join(s.center(cell) for s in labels).rstrip())
    return "\n".join(lines)
