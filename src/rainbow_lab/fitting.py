"""Linear least squares and the scaling ansatze used on entropy data.

Every model here is linear in its unknown coefficients once the
Luttinger parameter is fixed to 1, so a single QR solver covers the
deformed half-chain Renyi fit and the 2D volume/log/constant fit.  Each
fit takes the data as two arrays, the sizes (half-lengths) and the
entropies at those sizes, plus only what its model needs (the Renyi
order n), and returns the named coefficients with chi2 and the design's
condition number.  No nonlinear optimizer anywhere.  Only numpy and
SciPy's LAPACK (through ``_lapack``) are imported: a fit knows nothing
of chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import _solve_triangular


class RankDeficientError(ValueError):
    """The design matrix has (numerically) dependent columns."""


@dataclass(frozen=True)
class FitResult:
    """Least-squares solution of a linear model.

    chi2 is the unnormalized sum of squared residuals.
    """

    coefficients: dict
    chi2: float
    condition: float

    def __getitem__(self, name: str) -> float:
        return self.coefficients[name]


def linear_lsq(design, y, names=None) -> FitResult:
    """Minimize ||design @ beta - y||^2 by QR factorization.

    Raises RankDeficientError naming the first dependent column when the
    design is numerically rank deficient.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("design must be 2D")
    rows, cols = X.shape
    if rows < cols:
        raise ValueError(f"underdetermined: {rows} rows < {cols} columns")
    if y.shape != (rows,):
        raise ValueError(f"y has shape {y.shape}, expected ({rows},)")
    q, r = np.linalg.qr(X)
    diag = np.abs(np.diag(r))
    bad = np.nonzero(diag < 1e-12 * diag.max())[0]
    if bad.size:
        raise RankDeficientError(
            f"design column {int(bad[0])} is linearly dependent on the others"
        )
    beta = _solve_triangular(r, q.T @ y)
    resid = X @ beta - y
    chi2 = float(resid @ resid)
    names = list(names) if names is not None else [f"b{i}" for i in range(cols)]
    return FitResult(
        coefficients={n: float(b) for n, b in zip(names, beta)},
        chi2=chi2,
        condition=float(np.linalg.cond(X)),
    )


# Luttinger parameter of free fermions, fixed in every ansatz here.
LUTTINGER_K = 1.0


def _renyi_design(sizes, n: float) -> np.ndarray:
    """Half-chain Renyi scaling basis at fixed order n (Luttinger K = 1):

        S_L = c_n/12 (1 + 1/n) ln(4L/pi) + d_n + f_n (-1)^L (8L/pi)^(-1/n)
    """
    L = np.asarray(sizes, dtype=float)
    return np.column_stack(
        [
            (1.0 + 1.0 / n) / 12.0 * np.log(4.0 * L / np.pi),
            np.ones_like(L),
            np.cos(np.pi * L) * (8.0 * L / np.pi) ** (-LUTTINGER_K / n),
        ]
    )


# The three-coefficient Renyi fit refuses fewer sizes than this.
MIN_RENYI_SIZES = 6


def fit_renyi_halfchain(sizes, values, n: float) -> FitResult:
    """Fit the deformed half-chain Renyi ansatz to the order-n entropies
    `values` at half-lengths `sizes`, returning c_n, d_n, f_n.

    Requires at least MIN_RENYI_SIZES sizes mixing even and odd L; the
    oscillation column cannot be identified from a single parity.
    """
    sizes = np.asarray(sizes, dtype=float)
    if sizes.size < MIN_RENYI_SIZES:
        raise ValueError(f"need at least {MIN_RENYI_SIZES} sizes, got {sizes.size}")
    parities = {int(L) % 2 for L in sizes}
    if len(parities) < 2:
        raise RankDeficientError(
            "all sizes share one parity; the (-1)^L oscillation column is "
            "not identifiable"
        )
    design = _renyi_design(sizes, float(n))
    return linear_lsq(design, values, names=("c_n", "d_n", "f_n"))


# The three-coefficient 2D fit refuses fewer sizes than this.
MIN_2D_SIZES = 5


def fit_2d(sizes, values) -> FitResult:
    """Fit the 2D per-length entropy s_L = A L + B ln L + C to the
    per-length entropies `values` at sizes L."""
    sizes = np.asarray(sizes, dtype=float)
    if sizes.size < MIN_2D_SIZES:
        raise ValueError(f"need at least {MIN_2D_SIZES} sizes, got {sizes.size}")
    design = np.column_stack([sizes, np.log(sizes), np.ones_like(sizes)])
    return linear_lsq(design, values, names=("A", "B", "C"))
