"""Shared helpers: cached chain solves keep the suite fast."""

from functools import lru_cache

import numpy as np
import pytest

from rainbow_lab import (
    build_rainbow_profile,
    chain_svd,
    correlation_matrix,
    occupied_from_svd,
    profile_from_z,
)


@lru_cache(maxsize=None)
def chain_spectrum(L: int, alpha: float = None, z: float = None):
    profile = build_rainbow_profile(L, alpha) if alpha is not None else profile_from_z(L, z)
    return profile, chain_svd(profile)


@lru_cache(maxsize=None)
def chain_occupied(L: int, alpha: float = None, z: float = None):
    profile = build_rainbow_profile(L, alpha) if alpha is not None else profile_from_z(L, z)
    return occupied_from_svd(chain_svd(profile))


def halfchain_nu(L: int, alpha: float = None, z: float = None):
    return correlation_matrix(chain_occupied(L, alpha=alpha, z=z), range(L)).eigenvalues()


@pytest.fixture
def rng():
    return np.random.default_rng(20240311)
