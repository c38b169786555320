"""The benchmark's workloads: one rainbow-lab command each, drawn from a seed.

Every workload is a small, fixed list of input variants.  The seed picks one
variant, so the same seed always gives the same command, and the gate can
compare the command's artifacts with a reference recorded for exactly that
variant (see make_reference.py).

What the seed moves, and what it holds fixed:

- chain-renyi: the six consecutive L start at 800..803; z = 0:4:1 keeps the
  uniform z = 0 chain in every draw.
- chain-collapse: the L range starts at 100..103; the z range starts at 5 or
  6.5.  The z offset stays below 3.03 so that exactly half the z values lie
  above 23.03, where the coupling ratio e^z passes 1e10 and the graded
  gesvd path runs.
- lattice-2d: the alpha range starts at 0.40..0.60 and always ends at
  alpha = 1, the zero-mode lattice.  L = 8:24:4 is fixed: the dense
  (2L)^2 path costs ~L^6, so even a one-site shift of the largest lattice
  would move the work by 28%.  At alpha >= 0.4 the coupling ratio of the
  L = 24 lattice stays below 1e10, so every point takes the same solver.
- chain-validity: the L range starts at 50..52; the z range starts at
  0, 0.01, ..., 0.04 (within one step of 0.05).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def fmt(x) -> str:
    """A grid value as the CLI prints it in artifact rows."""
    return format(x, ".12g") if isinstance(x, float) else str(x)


def frange(start: str, stop: str, step: str) -> list:
    """The floats the CLI's inclusive start:stop:step parser produces."""
    a, b, d = float(start), float(stop), float(step)
    n = int((b - a) / d + 1e-9) + 1
    return [a + i * d for i in range(n)]


@dataclass(frozen=True)
class Inputs:
    """One variant of a workload.

    args: the rainbow-lab arguments without --out/--jobs (also the
    reference key); points: the grid points the command computes, each a
    tuple of the key values as artifact rows print them; artifacts: the
    files the command writes into its working directory.
    """

    workload: str
    args: tuple
    points: tuple
    artifacts: tuple

    @property
    def key(self) -> str:
        return " ".join(self.args)

    def argv(self) -> list:
        return [*self.args, "--out", self.artifacts[0], "--jobs", "1"]


def _chain_renyi():
    zs = frange("0", "4", "1")
    for shift in range(4):
        L0 = 800 + shift
        Ls = range(L0, L0 + 6)
        yield Inputs(
            "chain-renyi",
            ("renyi-fit", "--L", f"{L0}:{L0 + 5}:1", "--z", "0:4:1",
             "--orders", "1,2,3,4"),
            tuple((fmt(L), fmt(z)) for L in Ls for z in zs),
            ("renyi.csv",),
        )


def _chain_collapse():
    for shift in range(4):
        for z0 in ("5", "6.5"):
            L0 = 100 + shift
            z1 = fmt(float(z0) + 35)
            Ls = range(L0, L0 + 201, 20)
            zs = frange(z0, z1, "5")
            yield Inputs(
                "chain-collapse",
                ("es-collapse", "--L", f"{L0}:{L0 + 200}:20", "--z", f"{z0}:{z1}:5"),
                tuple((fmt(L), fmt(z)) for L in Ls for z in zs),
                ("collapse.csv",),
            )


def _lattice_2d():
    for a0 in ("0.4", "0.45", "0.5", "0.55", "0.6"):
        step = fmt((1 - float(a0)) / 2)
        alphas = frange(a0, "1", step)
        assert len(alphas) == 3 and abs(alphas[-1] - 1) < 1e-12
        yield Inputs(
            "lattice-2d",
            ("entropy-2d", "--L", "8:24:4", "--alpha", f"{a0}:1:{step}"),
            tuple((fmt(a), fmt(L)) for a in alphas for L in range(8, 25, 4)),
            ("e2d.csv", "e2d_fits.json"),
        )


def _chain_validity():
    for shift in range(3):
        for k in range(5):
            L0 = 50 + shift
            z0, z1 = f"{k / 100:.2f}", f"{1 + k / 100:.2f}"
            zs = frange(z0, z1, "0.05")
            yield Inputs(
                "chain-validity",
                ("validity-map", "--L", f"{L0}:{L0 + 150}:50", "--z", f"{z0}:{z1}:0.05"),
                tuple((fmt(L), fmt(z)) for L in range(L0, L0 + 151, 50) for z in zs),
                ("validity.csv", "validity_contours.csv"),
            )


VARIANTS = {
    "chain-renyi": tuple(_chain_renyi()),
    "chain-collapse": tuple(_chain_collapse()),
    "lattice-2d": tuple(_lattice_2d()),
    "chain-validity": tuple(_chain_validity()),
}


def inputs_for(workload: str, seed: int) -> Inputs:
    """The variant of `workload` that `seed` selects."""
    variants = VARIANTS[workload]
    return variants[random.Random(seed).randrange(len(variants))]
