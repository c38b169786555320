import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbow_lab import (
    Bond,
    TieError,
    bond_state_orbitals,
    build_rainbow_profile,
    correlation_matrix,
    rainbow_bonds,
    render_arcs,
    sdrg_entropy,
    sdrg_run,
    vn_entropy,
)
from rainbow_lab.lattice import site_labels

import dense_oracle as oracle
from conftest import chain_occupied

LN2 = math.log(2.0)


def perturbative_orbitals(L: int, alpha: float):
    """First-order orbitals of the rainbow chain in the strong limit.

    Orbital k is the Bell pair on sites +-(k-1/2) with alpha tails on the
    adjacent sites and the sign alternation of the bond pattern:

        psi^1 ~ (..., alpha, 1, 1, alpha, ...)
        psi^2 ~ (alpha, 1, alpha, -alpha, -1, -alpha)
        psi^3 ~ (alpha, 1, alpha, 0, 0, alpha, 1, alpha)

    Returns (orbitals, residuals): unit columns k = 1..L and the norms
    |H psi - (psi^T H psi) psi| against the exact hopping matrix, which
    scale as O(alpha^2).
    """
    profile = build_rainbow_profile(L, alpha)
    n = 2 * L
    cols = []
    for k in range(1, L + 1):
        v = np.zeros(n)
        s = 1.0 if k % 2 == 1 else -1.0
        v[L - k] = 1.0
        v[L - 1 + k] = s
        if k < L:  # outer tails at -(k+1/2), +(k+1/2)
            v[L - k - 1] = alpha
            v[L + k] = s * alpha
        if k >= 2:  # inner tails at -(k-3/2), +(k-3/2)
            v[L - k + 1] = alpha
            v[L + k - 2] = s * alpha
        cols.append(v / np.linalg.norm(v))
    orbs = np.column_stack(cols)
    # H psi on the bands: H has element -c/2 on each link
    t = -profile.couplings[:, None] / 2.0
    h_orbs = np.zeros_like(orbs)
    h_orbs[:-1] += t * orbs[1:]
    h_orbs[1:] += t * orbs[:-1]
    energies = np.einsum("ik,ik->k", orbs, h_orbs)
    residuals = np.linalg.norm(h_orbs - energies * orbs, axis=0)
    return orbs, residuals


def reference_sdrg(couplings):
    """Plain-float reference decimation, no log bookkeeping."""
    J = list(couplings)
    sites = list(range(len(J) + 1))
    bonds = []
    while J:
        k = max(range(len(J)), key=lambda i: abs(J[i]))
        bonds.append((sites[k], sites[k + 1], 1 if J[k] > 0 else -1))
        if 0 < k < len(J) - 1:
            new = -J[k - 1] * J[k + 1] / J[k]
            J[k - 1: k + 2] = [new]
        elif k == 0:
            del J[: 2 if len(J) > 1 else 1]
        else:
            del J[k - 1:]
        del sites[k: k + 2]
    return bonds


class TestSdrgRun:
    def test_single_link(self):
        out = sdrg_run([1.0])
        assert out.bonds == (Bond(0, 1, 1),)

    def test_rainbow_L3_bonds_and_trace(self):
        out = sdrg_run(build_rainbow_profile(3, 0.1).couplings)
        assert out.bonds == (Bond(2, 3, 1), Bond(1, 4, -1), Bond(0, 5, 1))
        # first effective coupling: -alpha^2 on the central link
        t0 = out.trace[0]
        assert t0.link == (2, 3)
        assert t0.created == (1, 4)
        assert t0.coupling == pytest.approx(-0.01, rel=1e-12)
        assert t0.log_magnitude == 2 * math.log(0.1)
        # second: -(alpha^3)(alpha^3)/(-alpha^2) = +alpha^4; the signed
        # denominator keeps the (+, -, +) pattern self-consistent
        t1 = out.trace[1]
        assert t1.coupling == pytest.approx(+1e-4, rel=1e-12)
        assert t1.log_magnitude == pytest.approx(4 * math.log(0.1))
        assert out.trace[2].created is None

    def test_uniform_chain_ties(self):
        with pytest.raises(TieError) as err:
            sdrg_run(build_rainbow_profile(3, 1.0).couplings)
        assert "tie" in str(err.value)

    def test_even_site_count_required(self):
        with pytest.raises(ValueError):
            sdrg_run([1.0, 0.5])

    def test_matches_plain_float_reference(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            c = rng.uniform(0.2, 1.0, size=9) * rng.choice([-1.0, 1.0], size=9)
            c *= 10.0 ** rng.integers(-3, 3, size=9)
            got = sdrg_run(c)
            want = reference_sdrg(c)
            assert [tuple(b) for b in got.bonds] == want

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_perfect_matching(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8)) * 2
        c = np.exp(rng.uniform(-6, 0, size=n - 1)) * rng.choice([-1, 1], size=n - 1)
        out = sdrg_run(c)
        seen = sorted(s for b in out.bonds for s in (b.left, b.right))
        assert seen == list(range(n))

    def test_sign_recursion_bit_reproducible(self):
        c = [0.5, -0.125, 1.0, 0.25, -0.0625]
        a = sdrg_run(c)
        b = sdrg_run(c)
        assert a.trace == b.trace
        for step in a.trace:
            if step.created is not None:
                assert step.coupling == step.coupling  # not NaN
                assert abs(step.coupling) == pytest.approx(
                    math.exp(step.log_magnitude), rel=1e-15
                )


class TestBondListJson:
    """to_json() byte for byte on chains that decimate at both ends and in
    the interior, with negative signs and couplings that underflow to +-0.0
    (strings recorded before sdrg_run held its links as one list)."""

    @pytest.mark.parametrize("couplings,expected", [
        ([0.5, -0.125, 1.0, 0.25, -0.0625],
         '{"n_sites": 6, "site_labels": [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5], '
         '"bonds": [[2, 3, 1], [0, 1, 1], [4, 5, -1]], "trace": ['
         '{"step": 1, "link": [2, 3], "sign": 1, "created": [1, 4], '
         '"coupling": 0.031250000000000014, "log_magnitude": -3.465735902799726}, '
         '{"step": 2, "link": [0, 1], "sign": 1, "created": null, '
         '"coupling": null, "log_magnitude": null}, '
         '{"step": 3, "link": [4, 5], "sign": -1, "created": null, '
         '"coupling": null, "log_magnitude": null}]}'),
        ([-1e-200, 1.0, -1e-300, 0.5, 1e-250],
         '{"n_sites": 6, "site_labels": [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5], '
         '"bonds": [[1, 2, 1], [3, 4, 1], [0, 5, 1]], "trace": ['
         '{"step": 1, "link": [1, 2], "sign": 1, "created": [0, 3], '
         '"coupling": -0.0, "log_magnitude": -1151.2925464970228}, '
         '{"step": 2, "link": [3, 4], "sign": 1, "created": [0, 5], '
         '"coupling": 0.0, "log_magnitude": -1726.2456725649743}, '
         '{"step": 3, "link": [0, 5], "sign": 1, "created": null, '
         '"coupling": null, "log_magnitude": null}]}'),
        # ln|J~| = -745.1: exp would give the subnormal 5e-324, the cut 0.0
        ([-1.5980514847000624e-162, 1.0, 1.5980514847000624e-162],
         '{"n_sites": 4, "site_labels": [-1.5, -0.5, 0.5, 1.5], '
         '"bonds": [[1, 2, 1], [0, 3, 1]], "trace": ['
         '{"step": 1, "link": [1, 2], "sign": 1, "created": [0, 3], '
         '"coupling": 0.0, "log_magnitude": -745.1}, '
         '{"step": 2, "link": [0, 3], "sign": 1, "created": null, '
         '"coupling": null, "log_magnitude": null}]}'),
        ([0.5, 1e-3, -2.0],
         '{"n_sites": 4, "site_labels": [-1.5, -0.5, 0.5, 1.5], '
         '"bonds": [[2, 3, -1], [0, 1, 1]], "trace": ['
         '{"step": 1, "link": [2, 3], "sign": -1, "created": null, '
         '"coupling": null, "log_magnitude": null}, '
         '{"step": 2, "link": [0, 1], "sign": 1, "created": null, '
         '"coupling": null, "log_magnitude": null}]}'),
        ([-2.0, 1e-3, 0.5],
         '{"n_sites": 4, "site_labels": [-1.5, -0.5, 0.5, 1.5], '
         '"bonds": [[0, 1, -1], [2, 3, 1]], "trace": ['
         '{"step": 1, "link": [0, 1], "sign": -1, "created": null, '
         '"coupling": null, "log_magnitude": null}, '
         '{"step": 2, "link": [2, 3], "sign": 1, "created": null, '
         '"coupling": null, "log_magnitude": null}]}'),
    ], ids=["both-ends-and-interior", "underflow-to-signed-zero",
            "cut-below-exp-underflow", "right-end-first", "left-end-first"])
    def test_pinned(self, couplings, expected):
        assert sdrg_run(couplings).to_json() == expected


class TestRainbowBonds:
    def test_L1(self):
        assert rainbow_bonds(1).bonds == (Bond(0, 1, 1),)

    def test_L3_signs(self):
        signs = [b.sign for b in rainbow_bonds(3).bonds]
        assert signs == [1, -1, 1]

    def test_concentric_pairs(self):
        out = rainbow_bonds(4)
        labels = site_labels(4)
        for k, b in enumerate(out.bonds, start=1):
            assert labels[b.left] == pytest.approx(-(k - 0.5))
            assert labels[b.right] == pytest.approx(+(k - 0.5))

    def test_agrees_with_sdrg_L5(self):
        got = sdrg_run(build_rainbow_profile(5, 0.05).couplings)
        assert got.bonds == rainbow_bonds(5).bonds

    @pytest.mark.parametrize("L", [2, 3, 4, 6, 8])
    def test_agrees_with_sdrg_up_to_alpha_02(self, L):
        got = sdrg_run(build_rainbow_profile(L, 0.2).couplings)
        assert got.bonds == rainbow_bonds(L).bonds

    def test_json(self):
        data = json.loads(rainbow_bonds(2).to_json())
        assert data["n_sites"] == 4
        assert data["bonds"] == [[1, 2, 1], [0, 3, -1]]
        assert data["site_labels"] == [-1.5, -0.5, 0.5, 1.5]


class TestBondStateOrbitals:
    def test_single_bond(self):
        occ = bond_state_orbitals(rainbow_bonds(1))
        assert occ[:, 0] == pytest.approx([1, 1] / np.sqrt(2))

    def test_orthonormal(self):
        occ = bond_state_orbitals(rainbow_bonds(7))
        assert np.allclose(occ.T @ occ, np.eye(7))

    def test_overlap_with_exact_deep_rainbow(self):
        occ = chain_occupied(10, alpha=0.01)
        bond = bond_state_orbitals(rainbow_bonds(10))
        assert oracle.slater_overlap(bond, occ) > 0.99

    def test_overlap_degrades_at_weak_inhomogeneity(self):
        strong = oracle.slater_overlap(
            bond_state_orbitals(rainbow_bonds(10)), chain_occupied(10, alpha=0.01)
        )
        weak = oracle.slater_overlap(
            bond_state_orbitals(rainbow_bonds(10)), chain_occupied(10, alpha=0.5)
        )
        assert weak < strong
        assert weak < 0.5


class TestSdrgEntropy:
    def test_halfchain_counts_all_bonds(self):
        assert sdrg_entropy(rainbow_bonds(9), range(9)) == pytest.approx(9 * LN2)

    def test_full_pair_block_is_zero(self):
        bonds = rainbow_bonds(3)
        b = bonds.bonds[0]
        assert sdrg_entropy(bonds, [b.left, b.right]) == 0.0

    def test_complement_symmetric(self):
        bonds = rainbow_bonds(5)
        block = [0, 2, 3, 7]
        comp = sorted(set(range(10)) - set(block))
        assert sdrg_entropy(bonds, block) == sdrg_entropy(bonds, comp)

    @pytest.mark.parametrize("block", [[0], [0, 1, 2], [1, 4, 5, 6], [0, 2, 4, 6]])
    def test_matches_correlation_matrix_exactly(self, block):
        bonds = rainbow_bonds(4)
        occ = bond_state_orbitals(bonds)
        nu = correlation_matrix(occ, block).eigenvalues()
        assert vn_entropy(nu) == pytest.approx(sdrg_entropy(bonds, block), abs=1e-12)


class TestPerturbativeOrbitals:
    def test_residual_bound_small_alpha(self):
        _, res = perturbative_orbitals(3, 0.01)
        assert np.max(res) < 1e-4

    def test_decoupled_limit(self):
        orbs, res = perturbative_orbitals(3, 1e-9)
        s = 1 / np.sqrt(2)
        assert orbs[2:4, 0] == pytest.approx([s, s], abs=1e-8)
        assert res[0] < 1e-12

    def test_second_order_scaling(self):
        _, r1 = perturbative_orbitals(4, 0.1)
        _, r2 = perturbative_orbitals(4, 0.05)
        assert np.max(r1) / np.max(r2) == pytest.approx(4.0, abs=0.5)

    def test_columns_normalized(self):
        orbs, _ = perturbative_orbitals(5, 0.08)
        assert np.linalg.norm(orbs, axis=0) == pytest.approx(np.ones(5))

    @pytest.mark.parametrize("L", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("alpha", [1e-9, 0.01, 0.1, 0.5, 1.0])
    def test_residuals_match_dense_product(self, L, alpha):
        orbs, res = perturbative_orbitals(L, alpha)
        H, _ = oracle.chain_hamiltonian(build_rainbow_profile(L, alpha))
        want = np.array([
            np.linalg.norm(H @ v - (v @ H @ v) * v) for v in orbs.T
        ])
        assert np.all(np.abs(res - want) <= 1e-15 * want)

    def test_no_dense_hopping_matrix(self):
        # H psi comes from the bands; no library module can build a dense H
        # (test_lattice.py::test_dense_route_is_gone)
        _, res = perturbative_orbitals(6, 0.1)
        assert np.all(res > 0)


class TestRendering:
    def test_arc_diagram_shape(self):
        text = render_arcs(rainbow_bonds(3))
        lines = text.splitlines()
        assert len(lines) == 4  # three arcs plus the label row
        assert "+" in lines[0] and "-" in lines[1] and "+" in lines[2]
        assert "-2.5" in lines[-1] and "2.5" in lines[-1]

    def test_signed_chain_arcs(self):
        out = sdrg_run([0.5, 1.0, -0.5])
        text = render_arcs(out)
        assert "." in text
