"""Chain and lattice builders for the rainbow hopping model.

The 1D geometry is an open chain of ``2L`` sites labelled by half-odd
integers ``n = -(L-1/2), ..., -1/2, +1/2, ..., +(L-1/2)``.  The central
link carries hopping ``J_0 = 1`` and the link at distance ``k`` from the
center carries ``J = alpha**(2k-1)``, i.e. the couplings decay
exponentially away from the center with rate ``h = -2 ln(alpha)``.

The 2D geometry is a ``2L x 2L`` square lattice with the same exponential
decay along x: a link's amplitude is ``alpha**|x_mid|`` where ``x_mid``
is the x coordinate of the link midpoint.

A link with amplitude ``J`` contributes the hopping matrix element
``-J/2`` (single convention for 1D and 2D).  The builders return the
links only, as a ``CouplingProfile`` or as the lattice's per-column
``link_amplitudes``; the solvers in ``spectra`` read their blocks straight
from them, so no hopping matrix is ever formed.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# Below this value subnormal couplings start losing relative precision.
UNDERFLOW_FLOOR = 1e-280


def site_labels(L: int) -> np.ndarray:
    """Half-odd-integer labels of a 2L-site chain, leftmost first.

    Internal 0-based index i maps to label n = i - L + 1/2.
    """
    return np.arange(2 * L) - L + 0.5


@dataclass(frozen=True)
class CouplingProfile:
    """Signed nearest-neighbour couplings of an open 2L-site chain.

    Attributes
    ----------
    L : int
        Half-chain length; the chain has 2L sites and 2L-1 links.
    alpha : float
        Decay parameter in (0, 1]; alpha = exp(-h/2).
    h : float
        Exponential decay rate, h = -2 ln(alpha) >= 0.
    z : float
        Dimensionless deformation, z = h * L.
    couplings : np.ndarray
        The 2L-1 signed hoppings, leftmost link first.  Index L-1 is the
        central link.
    """

    L: int
    alpha: float
    h: float
    z: float
    couplings: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.couplings, dtype=float)
        if c.shape != (2 * self.L - 1,):
            raise ValueError(
                f"profile needs {2 * self.L - 1} couplings, got {c.shape}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "couplings", c)

    @property
    def min_coupling(self) -> float:
        """Smallest |J| in the profile (underflow watch for large z)."""
        return float(np.min(np.abs(self.couplings)))

    def to_json(self) -> str:
        return json.dumps(
            {
                "L": self.L,
                "alpha": self.alpha,
                "h": self.h,
                "z": self.z,
                "couplings": list(self.couplings),
            }
        )


@dataclass(frozen=True)
class Lattice2D:
    """2L x 2L square lattice with x-graded hopping amplitudes.

    Sites are labelled by half-odd-integer coordinates (x, y) with
    x, y in {-(L-1/2), ..., +(L-1/2)} (see ``site_labels``) and stored
    row-major in x then y: index = ix * 2L + iy with ix, iy the 0-based
    coordinate ranks.  ``link_amplitudes(L, alpha)`` gives the links'
    amplitudes, column by column.
    """

    L: int
    alpha: float

    def __post_init__(self):
        _validate_geometry(self.L, self.alpha)

    @property
    def n_sites(self) -> int:
        return (2 * self.L) ** 2

    def left_half(self) -> list:
        """Site indices with x < 0 (the block used for the 2D entropy): the
        first half, both as lattice sites ix * 2L + iy and as the sites of
        ``spectra.lattice_svd``, which swaps pair partners in odd columns."""
        return list(range(self.n_sites // 2))


def _validate_geometry(L: int, alpha: float) -> None:
    if not isinstance(L, (int, np.integer)) or L < 1:
        raise ValueError(f"L must be a positive integer, got {L!r}")
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")


def build_rainbow_profile(L: int, alpha: float) -> CouplingProfile:
    """Rainbow couplings J_0 = 1, J = alpha**(2k-1) at distance k >= 1.

    Couplings are evaluated in log space as exp(-h(2k-1)/2) so that large
    z does not overflow intermediate powers; a RuntimeWarning is issued
    when the smallest coupling drops below the subnormal watermark.
    """
    _validate_geometry(L, alpha)
    # 0.0 - x, not -x: at alpha = 1 it gives h = +0.0 where -x gives -0.0
    return _rainbow_profile(L, alpha, 0.0 - 2.0 * math.log(alpha))


def _rainbow_profile(L: int, alpha: float, h: float) -> CouplingProfile:
    """The rainbow chain of decay rate h, couplings exp(-h(2k-1)/2),
    recording alpha and h as given; alpha = exp(-h/2) up to rounding."""
    _validate_geometry(L, alpha)
    c = np.ones(2 * L - 1)
    for k in range(1, L):
        val = math.exp(-h * (2 * k - 1) / 2.0)
        c[L - 1 + k] = val
        c[L - 1 - k] = val
    profile = CouplingProfile(L=L, alpha=alpha, h=h, z=h * L, couplings=c)
    if profile.min_coupling < UNDERFLOW_FLOOR:
        warnings.warn(
            f"smallest coupling {profile.min_coupling:.3e} is below "
            f"{UNDERFLOW_FLOOR:.0e}; outer links are numerically decoupled",
            RuntimeWarning,
            stacklevel=3,
        )
    return profile


def profile_from_z(L: int, z: float) -> CouplingProfile:
    """Rainbow profile parametrized by z = h*L instead of alpha.
    ValueError, naming z and L, when alpha = exp(-z/(2L)) underflows to 0."""
    if not isinstance(L, (int, np.integer)) or L < 1:
        raise ValueError(f"L must be a positive integer, got {L!r}")
    if not 0.0 <= z < math.inf:
        raise ValueError(f"z must be finite and non-negative, got {z!r}")
    h = z / L
    alpha = math.exp(-h / 2.0)
    if alpha == 0.0:
        raise ValueError(f"z = {z!r} at L = {L} underflows alpha = exp(-z/(2L)) to 0")
    return build_rainbow_profile(L, alpha)


def signed_profile(couplings) -> np.ndarray:
    """Validate an arbitrary signed coupling list for an even-length chain:
    ValueError unless every coupling is finite and nonzero."""
    c = np.asarray(couplings, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("couplings must be a non-empty 1D sequence")
    if c.size % 2 == 0:
        raise ValueError(
            f"{c.size} links means an odd number of sites; need an even chain"
        )
    bad = np.flatnonzero(~np.isfinite(c))
    if bad.size:
        raise ValueError(f"couplings must be finite; coupling {bad[0]} is {c[bad[0]]}")
    if np.any(c == 0.0):
        raise ValueError("zero couplings disconnect the chain")
    return c


def link_amplitudes(L: int, alpha: float) -> tuple:
    """(vertical, horizontal): the amplitudes of the 2L x 2L lattice's links
    per column, leftmost first.  The vertical links inside column x carry
    vertical[ix] = alpha**|x|; the horizontal links between columns x and
    x+1 carry horizontal[ix] = alpha**|x + 1/2|, so links crossing x = 0
    carry exactly 1.  Every link of the lattice carries one of these 4L - 1
    values, each one exp."""
    xs = site_labels(L)
    h = -2.0 * math.log(alpha)
    vertical = np.array([math.exp(-h * abs(x) / 2.0) for x in xs])
    horizontal = np.array([math.exp(-h * abs(x + 0.5) / 2.0) for x in xs[:-1]])
    return vertical, horizontal
