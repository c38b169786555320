"""Full many-body amplitudes for small chains and their qubism pictures.

A half-filled Slater state on N sites expands over occupation
configurations with determinant amplitudes.  Configurations are encoded
as N-bit strings with site 0 (leftmost site) as the most significant
bit, so bitstring s maps to the integer index int(s, 2).

``render`` places the 2^N amplitudes on a square 2^(N/2) x 2^(N/2) array,
the qubism image, which ``write_ppm`` draws:
the bit pair (s_{2i}, s_{2i+1}) picks the quadrant at recursion depth i
(00 top-left, 01 top-right, 10 bottom-left, 11 bottom-right), depth 0
being the coarsest.  Sub-image structure then bounds Schmidt ranks of
leading blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

MAX_SITES = 14


@dataclass(frozen=True)
class AmplitudeTable:
    """Dense amplitude vector of an N-site state.

    amplitudes[int(bits, 2)] is the coefficient of configuration `bits`
    (site 0 = most significant bit).  The amplitudes are kept as given,
    neither normalized nor checked; ``slater_amplitudes`` returns a
    normalized table.
    """

    n_sites: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=float)
        if a.shape != (2**self.n_sites,):
            raise ValueError(
                f"expected {2**self.n_sites} amplitudes, got {a.shape}"
            )
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    def bipartition(self, block) -> np.ndarray:
        """The amplitudes as the (block, rest) matrix of a block of sites.

        Only blocks contiguous at a chain boundary are allowed: for interior
        or scattered blocks the fermionic sign structure depends on an
        operator-ordering choice this module does not make.
        """
        n = self.n_sites
        block = sorted(int(b) for b in block)
        l = len(block)
        if not 0 < l < n:
            raise ValueError(f"block size must be in (0, {n}), got {l}")
        if block == list(range(l)):  # left boundary: leading bits are the block
            return self.amplitudes.reshape(2**l, 2 ** (n - l))
        if block == list(range(n - l, n)):  # right boundary: trailing bits
            return self.amplitudes.reshape(2 ** (n - l), 2**l).T
        raise ValueError(
            f"bipartitions need a block contiguous at a boundary (got sites {block})"
        )

    def rows(self):
        """(bitstring, amplitude) pairs for CSV dumps, configuration order."""
        for idx in range(self.amplitudes.size):
            yield format(idx, f"0{self.n_sites}b"), float(self.amplitudes[idx])


def slater_amplitudes(occ: np.ndarray) -> AmplitudeTable:
    """Expand a Slater determinant over occupation configurations.

    One row of the orbital matrix per site, one column per orbital.  The
    amplitude of the configuration occupying sites i_1 < ... < i_K is the
    determinant of the corresponding rows; fermionic exchange signs are
    carried by the determinant with this fixed site ordering.
    """
    occ = np.asarray(occ, dtype=float)
    n_sites, k = occ.shape
    if n_sites > MAX_SITES:
        raise ValueError(
            f"{n_sites} sites needs {2**n_sites} amplitudes; cap is {MAX_SITES}"
        )
    amps = np.zeros(2**n_sites)
    for sites in combinations(range(n_sites), k):
        idx = 0
        for s in sites:
            idx |= 1 << (n_sites - 1 - s)
        amps[idx] = np.linalg.det(occ[list(sites), :])
    norm = np.linalg.norm(amps)
    if not np.isclose(norm, 1.0, atol=1e-8):
        raise ValueError(f"orbitals are not orthonormal (state norm {norm:.6f})")
    return AmplitudeTable(n_sites=n_sites, amplitudes=amps / norm)


def render(amps: AmplitudeTable) -> np.ndarray:
    """Qubism image of an even-N amplitude table (two bits per scale): the
    2^(N/2) x 2^(N/2) array of signed amplitudes, one per cell.

    Cell (row, col) spells the configuration's even sites in row's bits and
    its odd sites in col's, most significant first, so the image is one
    transpose of the amplitudes' site axes.
    """
    n = amps.n_sites
    if n % 2:
        raise ValueError(f"qubism rendering needs even N, got {n}")
    side = 2 ** (n // 2)
    sites = amps.amplitudes.reshape((2,) * n)
    order = tuple(range(0, n, 2)) + tuple(range(1, n, 2))
    # + 0.0: a new writable array even where the reshape is a view of the
    # read-only amplitudes (N = 2), and -0.0 amplitudes as empty cells
    return sites.transpose(order).reshape(side, side) + 0.0


def write_ppm(pixels: np.ndarray, path) -> None:
    """Binary 8-bit PPM of a square qubism image: red = positive
    amplitudes, green = negative.

    Channel value is round(255 |a| / max|a|); header is exactly
    "P6\\n<side> <side>\\n255\\n" so identical images are byte-identical.
    """
    side = pixels.shape[0]
    mx = float(np.max(np.abs(pixels)))
    rgb = np.zeros((side, side, 3), dtype=np.uint8)
    if mx > 0:
        scaled = np.rint(255.0 * np.abs(pixels) / mx).astype(np.uint8)
        rgb[..., 0] = np.where(pixels > 0, scaled, 0)
        rgb[..., 1] = np.where(pixels < 0, scaled, 0)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{side} {side}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())
