import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jcpair.linalg import eig_sym, eigenvalue_multiset_equal
from jcpair.model import SystemParams, jc_doublet_energies, jc_ground_energy
from jcpair.sectors import (
    NU_CAP,
    BasisState,
    SectorBasis,
    build_collective_hamiltonian,
    build_collective_stack,
    build_hamiltonian,
    build_hamiltonian_stack,
    coupling_element,
    diagonal_energy,
    enumerate_sector,
    sector_terms,
)


def random_params(rng, g_min=0.0):
    g = rng.uniform(g_min, 5.0)
    omega_c = rng.uniform(-5.0, 5.0)
    return SystemParams(
        omega_c=omega_c,
        omega_a=omega_c + rng.uniform(-10.0, 10.0),
        g=g,
        kappa=rng.uniform(-10.0, 10.0),
    )


def element_by_element(p, basis):
    """The block assembled one entry at a time, nonzero couplings only."""
    n = len(basis)
    m = np.zeros((n, n))
    for i, si in enumerate(basis.states):
        m[i, i] = diagonal_energy(p, si)
        for j in range(i + 1, n):
            element = coupling_element(p, si, basis.states[j])
            if element != 0.0:
                m[i, j] = m[j, i] = element
    return m


def parameter_arrays(draws):
    names = ("omega_c", "omega_a", "g", "kappa")
    return [np.array([getattr(p, name) for p in draws]) for name in names]


# Signed values with magnitudes spread evenly over 1e-300 .. 1e300, and both zeros.
magnitudes = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(1.0, 10.0, exclude_max=True),
    st.integers(-300, 299),
)
zeros = st.sampled_from([0.0, -0.0])
signed = st.one_of(zeros, magnitudes, magnitudes.map(lambda x: -x))
system_params = st.builds(SystemParams, signed, signed, st.one_of(zeros, magnitudes), signed)


def product_basis(max_photons):
    return [
        BasisState(n1, c1, n2, c2)
        for n1 in range(max_photons + 1)
        for c1 in ("g", "e")
        for n2 in range(max_photons + 1)
        for c2 in ("g", "e")
    ]


class TestBasisState:
    def test_excitation_number(self):
        assert BasisState(2, "e", 1, "g").excitation_number() == 4
        assert BasisState(0, "g", 0, "g").excitation_number() == 0

    def test_label(self):
        assert BasisState(1, "g", 0, "e").label == "1g0e"

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            BasisState(0, "x", 0, "g")

    def test_negative_photons(self):
        with pytest.raises(ValueError):
            BasisState(-1, "g", 0, "g")


class TestEnumerateSector:
    def test_empty_sector(self):
        basis = enumerate_sector(0)
        assert [s.label for s in basis.states] == ["0g0g"]

    def test_one_excitation_order(self):
        basis = enumerate_sector(1)
        assert [s.label for s in basis.states] == ["0e0g", "1g0g", "0g1g", "0g0e"]

    def test_two_excitations(self):
        basis = enumerate_sector(2)
        assert len(basis) == 8

    @pytest.mark.parametrize("nu", range(9))
    def test_sizes_and_invariants(self, nu):
        basis = enumerate_sector(nu)
        assert len(basis) == (1 if nu == 0 else 4 * nu)
        assert len(set(basis.states)) == len(basis)
        assert all(s.excitation_number() == nu for s in basis.states)

    def test_lexicographic_order_above_one(self):
        basis = enumerate_sector(2)
        keys = [s.sort_key() for s in basis.states]
        assert keys == sorted(keys)

    def test_cap(self):
        enumerate_sector(NU_CAP)
        with pytest.raises(ValueError, match="cap"):
            enumerate_sector(NU_CAP + 1)

    def test_negative(self):
        with pytest.raises(ValueError):
            enumerate_sector(-1)


class TestBuildHamiltonian:
    def test_printed_one_excitation_matrix(self):
        p = SystemParams(omega_c=0.0, omega_a=2.0, g=1.0, kappa=2.0)
        h = build_hamiltonian(p, enumerate_sector(1)).matrix.to_array()
        expected = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [1.0, -2.0, -2.0, 0.0],
                [0.0, -2.0, -2.0, 1.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        assert np.array_equal(h, expected)

    def test_omega_c_shifts_diagonal(self):
        base = SystemParams(omega_c=0.0, omega_a=2.0, g=1.0, kappa=2.0)
        shifted = SystemParams(omega_c=3.0, omega_a=5.0, g=1.0, kappa=2.0)
        basis = enumerate_sector(1)
        h0 = build_hamiltonian(base, basis).matrix.to_array()
        h3 = build_hamiltonian(shifted, basis).matrix.to_array()
        assert np.allclose(h3, h0 + 3.0 * np.eye(4), atol=0)

    def test_empty_sector_energy(self):
        rng = random.Random(0)
        for _ in range(20):
            p = random_params(rng)
            h = build_hamiltonian(p, enumerate_sector(0)).matrix
            assert h[0, 0] == -p.delta

    def test_no_hopping_gives_two_cell_blocks(self):
        p = SystemParams(omega_c=0.5, omega_a=1.7, g=0.8, kappa=0.0)
        h = build_hamiltonian(p, enumerate_sector(1)).matrix.to_array()
        assert h[1, 2] == 0.0 and h[2, 1] == 0.0
        # cell-1 block on (|0e0g>, |1g0g>), cell-2 block on (|0g1g>, |0g0e>)
        assert h[0, 1] == h[2, 3] == p.g
        assert h[0, 2] == h[0, 3] == h[1, 3] == 0.0

    def test_no_hopping_spectrum_is_sum_of_cells(self):
        rng = random.Random(1)
        for _ in range(20):
            base = random_params(rng, g_min=0.1)
            p = SystemParams(base.omega_c, base.omega_a, base.g, 0.0)
            values = eig_sym(build_hamiltonian(p, enumerate_sector(1)).matrix).values
            ground = jc_ground_energy(p)
            upper, lower = jc_doublet_energies(p, 1)
            expected = [ground + upper, ground + upper, ground + lower, ground + lower]
            assert eigenvalue_multiset_equal(values, expected, 1e-12)

    def test_general_sector_matches_blocks_of_product_space(self):
        rng = random.Random(2)
        p = random_params(rng)
        states = product_basis(4)
        for nu in range(4):
            basis = enumerate_sector(nu)
            direct = build_hamiltonian(p, basis).matrix.to_array()
            block = np.empty((len(basis), len(basis)))
            for i, si in enumerate(basis.states):
                block[i, i] = diagonal_energy(p, si)
                for j in range(i + 1, len(basis)):
                    element = coupling_element(p, si, basis.states[j])
                    block[i, j] = block[j, i] = element
            assert np.array_equal(direct, block)
        # no matrix element may connect different sectors
        for i, a in enumerate(states):
            for b in states[i + 1 :]:
                if a.excitation_number() != b.excitation_number():
                    assert coupling_element(p, a, b) == 0.0

    def test_photon_number_scaling_in_sector_two(self):
        # |1e0g> couples to |2g0g> with g*sqrt(2) and to |1g0e> not at all
        p = SystemParams(omega_c=0.0, omega_a=0.0, g=1.0, kappa=1.0)
        assert coupling_element(
            p, BasisState(1, "e", 0, "g"), BasisState(2, "g", 0, "g")
        ) == pytest.approx(math.sqrt(2.0), abs=0)
        assert coupling_element(p, BasisState(1, "e", 0, "g"), BasisState(1, "g", 0, "e")) == 0.0
        # hopping |2g0g> <-> |1g1g> carries -kappa*sqrt(2*1)
        assert coupling_element(
            p, BasisState(2, "g", 0, "g"), BasisState(1, "g", 1, "g")
        ) == pytest.approx(-math.sqrt(2.0), abs=0)


class TestCollectiveHamiltonian:
    def test_printed_example_blocks(self):
        p = SystemParams(omega_c=0.0, omega_a=2.0, g=1.0, kappa=2.0)
        h = build_collective_hamiltonian(p, 1).matrix.to_array()
        expected = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, -4.0, 1.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        assert np.array_equal(h, expected)

    def test_is_rotation_of_direct_matrix(self):
        # the collective matrix is Q^T H Q for the documented orthogonal Q
        rng = random.Random(3)
        s = 1.0 / math.sqrt(2.0)
        q = np.array(
            [
                [0.0, s, 0.0, s],
                [s, 0.0, s, 0.0],
                [-s, 0.0, s, 0.0],
                [0.0, -s, 0.0, s],
            ]
        )
        for _ in range(20):
            p = random_params(rng)
            direct = build_hamiltonian(p, enumerate_sector(1)).matrix.to_array()
            collective = build_collective_hamiltonian(p, 1).matrix.to_array()
            assert np.allclose(q.T @ direct @ q, collective, atol=1e-12)

    def test_multiset_matches_direct(self):
        rng = random.Random(4)
        for _ in range(30):
            p = random_params(rng)
            direct = eig_sym(build_hamiltonian(p, enumerate_sector(1)).matrix).values
            collective = eig_sym(build_collective_hamiltonian(p, 1).matrix).values
            assert eigenvalue_multiset_equal(direct, collective, 1e-10)

    def test_uncoupled_oscillator_spectrum(self):
        p = SystemParams(omega_c=10.0, omega_a=10.0, g=0.0, kappa=2.0)
        values = eig_sym(build_collective_hamiltonian(p, 1).matrix).values
        assert eigenvalue_multiset_equal(values, [8.0, 10.0, 10.0, 12.0], 0.0)

    def test_empty_sector(self):
        p = SystemParams(omega_c=1.0, omega_a=4.0, g=1.0, kappa=2.0)
        h = build_collective_hamiltonian(p, 0).matrix
        assert h[0, 0] == -3.0

    def test_higher_sectors_rejected(self):
        p = SystemParams(omega_c=0.0, omega_a=0.0, g=1.0, kappa=1.0)
        with pytest.raises(ValueError, match="nu"):
            build_collective_hamiltonian(p, 2)


class TestStackBuilder:
    def test_printed_one_excitation_terms(self):
        terms = sector_terms(enumerate_sector(1))
        assert np.array_equal(terms.omega_c, np.diag([1.0, 2.0, 2.0, 1.0]))
        assert np.array_equal(terms.omega_a, np.diag([0.0, -1.0, -1.0, 0.0]))
        g = np.zeros((4, 4))
        g[0, 1] = g[1, 0] = g[2, 3] = g[3, 2] = 1.0
        assert np.array_equal(terms.g, g)
        kappa = np.zeros((4, 4))
        kappa[1, 2] = kappa[2, 1] = 1.0
        assert np.array_equal(terms.kappa, kappa)

    @given(nu=st.integers(0, NU_CAP), draws=st.lists(system_params, min_size=1, max_size=3))
    def test_equals_element_by_element_assembly(self, nu, draws):
        basis = enumerate_sector(nu)
        stack = build_hamiltonian_stack(basis, *parameter_arrays(draws))
        assert stack.shape == (len(draws), len(basis), len(basis))
        for p, member in zip(draws, stack):
            assert member.tobytes() == element_by_element(p, basis).tobytes()

    @given(nu=st.integers(0, NU_CAP), p=system_params)
    def test_one_member_is_build_hamiltonian(self, nu, p):
        basis = enumerate_sector(nu)
        stack = build_hamiltonian_stack(basis, p.omega_c, p.omega_a, p.g, p.kappa)
        assert stack.shape == (1, len(basis), len(basis))
        assert stack[0].tobytes() == build_hamiltonian(p, basis).matrix.to_array().tobytes()

    def test_signed_zeros(self):
        # -0.0 couplings become +0.0, as the entry-by-entry assembly leaves
        # them; a -0.0 diagonal entry stays -0.0.
        p = SystemParams(omega_c=-0.0, omega_a=0.0, g=-0.0, kappa=0.0)
        for nu in (0, 1, 2):
            basis = enumerate_sector(nu)
            stack = build_hamiltonian_stack(basis, p.omega_c, p.omega_a, p.g, p.kappa)
            assert stack[0].tobytes() == element_by_element(p, basis).tobytes()
        empty = build_hamiltonian_stack(enumerate_sector(0), -0.0, 0.0, 0.0, 0.0)
        assert math.copysign(1.0, empty[0, 0, 0]) == -1.0
        off = build_hamiltonian_stack(enumerate_sector(1), 0.0, 0.0, -0.0, [0.0, -0.0])
        assert not np.signbit(off[:, ~np.eye(4, dtype=bool)]).any()

    def test_broadcasts_scalars_against_arrays(self):
        rng = random.Random(5)
        draws = [random_params(rng) for _ in range(5)]
        omega_c, omega_a, g, kappa = parameter_arrays(draws)
        basis = enumerate_sector(2)
        mixed = build_hamiltonian_stack(basis, 0.5, omega_a, g[0], kappa)
        for b, member in enumerate(mixed):
            p = SystemParams(0.5, omega_a[b], g[0], kappa[b])
            assert member.tobytes() == element_by_element(p, basis).tobytes()
        with pytest.raises(ValueError, match="1-d"):
            build_hamiltonian_stack(basis, omega_c[:, None], omega_a, g, kappa)

    def test_basis_in_its_own_order_gets_its_own_terms(self):
        rng = random.Random(6)
        canonical = enumerate_sector(2)
        order = [3, 0, 7, 5, 1, 6, 2, 4]
        shuffled = SectorBasis(nu=2, states=tuple(canonical.states[i] for i in order))
        assert sector_terms(shuffled) is not sector_terms(canonical)
        for _ in range(10):
            p = random_params(rng)
            own = build_hamiltonian(p, shuffled).matrix.to_array()
            assert own.tobytes() == element_by_element(p, shuffled).tobytes()
            direct = build_hamiltonian(p, canonical).matrix.to_array()
            assert np.array_equal(own, direct[np.ix_(order, order)])

    def test_terms_are_cached_and_read_only(self):
        terms = sector_terms(enumerate_sector(3))
        assert sector_terms(enumerate_sector(3)) is terms
        for term in terms:
            assert not term.flags.writeable
            with pytest.raises(ValueError):
                term[0, 0] = 1.0

    @given(draws=st.lists(system_params, min_size=1, max_size=4))
    def test_collective_stack_equals_written_out_blocks(self, draws):
        stack = build_collective_stack(*parameter_arrays(draws))
        for p, member in zip(draws, stack):
            atom = diagonal_energy(p, BasisState(0, "e", 0, "g"))
            photon = diagonal_energy(p, BasisState(1, "g", 0, "g"))
            written = np.array(
                [
                    [photon + p.kappa, p.g, 0.0, 0.0],
                    [p.g, atom, 0.0, 0.0],
                    [0.0, 0.0, photon - p.kappa, p.g],
                    [0.0, 0.0, p.g, atom],
                ]
            )
            assert member.tobytes() == written.tobytes()
            single = build_collective_hamiltonian(p, 1).matrix.to_array()
            assert single.tobytes() == written.tobytes()
