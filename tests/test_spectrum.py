import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jcpair.linalg import eig_sym, eigenvalue_multiset_equal
from jcpair.sectors import build_hamiltonian, enumerate_sector
from jcpair.spectrum import (
    BRANCHES,
    BranchLabel,
    energies,
    min_gap,
    one_excitation_energies,
    one_excitation_energies_perturbative,
    sweep_spectrum,
)
from jcpair.model import SystemParams


def params(delta=0.0, omega_c=0.0, g=1.0, kappa=0.0):
    return SystemParams(omega_c=omega_c, omega_a=omega_c + delta, g=g, kappa=kappa)


def reference_energies(omega_c, delta, g, kappa):
    """The closed form as a scalar loop over branches in plain float arithmetic."""
    out = []
    for label in BRANCHES:
        x = delta + label.epsilon * kappa
        root = math.sqrt(g * g + 0.25 * x * x)
        out.append(omega_c - 0.5 * x + label.branch * root)
    return out


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


# Signed values with magnitudes spread evenly over 1e-150 .. 1e150, and zero.
magnitudes = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]),
    st.floats(1.0, 10.0, exclude_max=True),
    st.integers(-150, 149),
)
values = st.one_of(st.just(0.0), magnitudes)


class TestBranchLabel:
    def test_keys(self):
        assert [label.key for label in BRANCHES] == ["pp", "pm", "mp", "mm"]

    def test_invalid_sign(self):
        with pytest.raises(ValueError):
            BranchLabel(0, 1)


class TestEnergies:
    def test_coupled_oscillator_limit(self):
        energies = one_excitation_energies(params(omega_c=10.0, g=0.0, kappa=2.0))
        assert eigenvalue_multiset_equal(
            list(energies.values()), [8.0, 10.0, 10.0, 12.0], 0.0
        )

    def test_direct_evaluation_against_oracle(self):
        p = params(delta=2.0, g=1.0, kappa=2.0)
        energies = one_excitation_energies(p)
        root5 = math.sqrt(5.0)
        assert energies[BranchLabel(-1, +1)] == pytest.approx(1.0, abs=0)
        assert energies[BranchLabel(-1, -1)] == pytest.approx(-1.0, abs=0)
        assert energies[BranchLabel(+1, +1)] == pytest.approx(-2.0 + root5, abs=1e-15)
        assert energies[BranchLabel(+1, -1)] == pytest.approx(-2.0 - root5, abs=1e-15)
        numeric = eig_sym(build_hamiltonian(p, enumerate_sector(1)).matrix).values
        assert eigenvalue_multiset_equal(list(energies.values()), numeric, 1e-12)

    def test_uncoupled_cells_degenerate(self):
        energies = one_excitation_energies(params(delta=0.0, g=1.0, kappa=0.0))
        values = sorted(energies.values())
        assert values == [-1.0, -1.0, 1.0, 1.0]

    def test_oracle_equivalence_random(self):
        rng = random.Random(99)
        basis = enumerate_sector(1)
        for _ in range(100):
            g = rng.uniform(0.1, 10.0)
            p = SystemParams(
                omega_c=rng.uniform(-10, 10),
                omega_a=rng.uniform(-10, 10),
                g=g,
                kappa=rng.uniform(-10 * g, 10 * g),
            )
            closed = sorted(one_excitation_energies(p).values())
            numeric = eig_sym(build_hamiltonian(p, basis).matrix).values
            assert eigenvalue_multiset_equal(closed, numeric, 1e-10)

    @given(
        omega_c=st.floats(-20, 20),
        delta=st.floats(-50, 50),
        g=st.floats(0, 10),
        kappa=st.floats(-50, 50),
    )
    def test_pair_sum_identity(self, omega_c, delta, g, kappa):
        p = SystemParams(omega_c, omega_c + delta, g, kappa)
        energies = one_excitation_energies(p)
        for epsilon in (+1, -1):
            total = energies[BranchLabel(epsilon, +1)] + energies[BranchLabel(epsilon, -1)]
            expected = 2 * p.omega_c - (p.delta + epsilon * p.kappa)
            scale = 1 + abs(omega_c) + abs(delta) + abs(kappa) + g
            assert total == pytest.approx(expected, abs=1e-12 * scale)

    @given(omega_c=st.floats(-20, 20), delta=st.floats(-50, 50), g=st.floats(0, 10))
    def test_no_hopping_degeneracy_exact(self, omega_c, delta, g):
        energies = one_excitation_energies(SystemParams(omega_c, omega_c + delta, g, 0.0))
        for branch in (+1, -1):
            assert energies[BranchLabel(+1, branch)] == energies[BranchLabel(-1, branch)]


def columns(draws):
    names = ("omega_c", "delta", "g", "kappa")
    return [np.array([getattr(p, name) for p in draws]) for name in names]


system_params = st.builds(
    lambda omega_c, delta, g, kappa: SystemParams(omega_c, omega_c + delta, g, kappa),
    values,
    values,
    values.map(abs),
    values,
)


class TestArrayParameters:
    @given(draws=st.lists(system_params, min_size=1, max_size=6))
    def test_rows_equal_scalar_closed_forms(self, draws):
        omega_c, delta, g, kappa = columns(draws)
        flat = energies(omega_c, delta, g, kappa)
        column = energies(omega_c[:, None], delta[:, None], g[:, None], kappa[:, None])
        assert flat.shape == (len(draws), 4) and column.shape == (len(draws), 1, 4)
        for b, p in enumerate(draws):
            expected = bits([one_excitation_energies(p)[label] for label in BRANCHES])
            assert bits(flat[b]) == expected
            assert bits(column[b, 0]) == expected

    @given(
        draws=st.lists(system_params, min_size=1, max_size=4),
        grid=st.lists(values, min_size=1, max_size=5),
    )
    def test_parameter_axis_against_delta_grid(self, draws, grid):
        omega_c, _, g, kappa = columns(draws)
        table = energies(omega_c[:, None], np.array(grid), g[:, None], kappa[:, None])
        assert table.shape == (len(draws), len(grid), 4)
        for b in range(len(draws)):
            assert bits(table[b]) == bits(energies(omega_c[b], np.array(grid), g[b], kappa[b]))

    def test_scalar_parameters_allocate_two_result_buffers(self):
        # The sweep path calls this with scalar parameters and 200,001
        # detunings: the result and one working buffer, nothing more.
        deltas = np.linspace(-5.0, 5.0, 200_001)
        buffer = deltas.size * 4 * 8
        tracemalloc.start()
        try:
            table = energies(0.5, deltas, 1.0, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.nbytes == buffer
        assert peak < 2.5 * buffer


class TestPerturbative:
    def test_reduces_to_vacuum_rabi(self):
        energies = one_excitation_energies_perturbative(params(g=1.0, kappa=0.0))
        assert sorted(energies.values()) == [-1.0, -1.0, 1.0, 1.0]

    def test_against_exact_at_small_hopping(self):
        p = params(g=1.0, kappa=0.2)
        approx = one_excitation_energies_perturbative(p)
        label = BranchLabel(+1, +1)
        assert approx[label] == 1.0 - 0.1 + 0.005
        # independent evaluation of the exact branch
        exact = -0.1 + math.sqrt(1.0 + 0.01)
        assert abs(approx[label] - exact) == pytest.approx(1.2437887911e-5, rel=1e-6)
        assert abs(approx[label] - exact) <= 2e-5

    def test_error_scales_as_fourth_power(self):
        def worst(kappa):
            p = params(g=1.0, kappa=kappa)
            exact = one_excitation_energies(p)
            approx = one_excitation_energies_perturbative(p)
            return max(abs(exact[k] - approx[k]) for k in BRANCHES)

        assert worst(0.2) >= 8.0 * worst(0.1)

    def test_rejects_zero_coupling(self):
        with pytest.raises(ValueError, match="g"):
            one_excitation_energies_perturbative(params(g=0.0, kappa=0.1))

    def test_rejects_nonzero_detuning(self):
        with pytest.raises(ValueError, match="delta"):
            one_excitation_energies_perturbative(params(delta=0.5, g=1.0, kappa=0.1))


class TestSweep:
    def test_crossings_without_coupling(self):
        grid = np.linspace(-6.0, 6.0, 2401)  # step 0.005, contains +/-2 exactly
        sweep = sweep_spectrum(params(g=0.0, kappa=2.0), grid)
        delta_min, gap = min_gap(sweep, -1)
        assert (delta_min, gap) == (2.0, 0.0)
        delta_min, gap = min_gap(sweep, +1)
        assert (delta_min, gap) == (-2.0, 0.0)
        for epsilon in (+1, -1):
            gaps = sweep.branch(BranchLabel(epsilon, +1)) - sweep.branch(
                BranchLabel(epsilon, -1)
            )
            assert np.count_nonzero(gaps == 0.0) == 1

    def test_avoided_crossing_with_coupling(self):
        grid = np.linspace(-6.0, 6.0, 2401)
        sweep = sweep_spectrum(params(g=1.0, kappa=2.0), grid)
        for epsilon, at in ((+1, -2.0), (-1, 2.0)):
            delta_min, gap = min_gap(sweep, epsilon)
            assert delta_min == at
            assert gap == pytest.approx(2.0, abs=1e-12)
            gaps = sweep.branch(BranchLabel(epsilon, +1)) - sweep.branch(
                BranchLabel(epsilon, -1)
            )
            assert np.all(gaps >= 2.0 - 1e-12)

    def test_single_cell_gap_without_hopping(self):
        grid = np.linspace(-4.0, 4.0, 801)
        sweep = sweep_spectrum(params(g=1.0, kappa=0.0), grid)
        for epsilon in (+1, -1):
            assert min_gap(sweep, epsilon) == (0.0, 2.0)

    def test_single_point_grid(self):
        sweep = sweep_spectrum(params(g=1.0, kappa=0.5), [0.3])
        assert len(sweep) == 1
        assert set(sweep.at(0)) == set(BRANCHES)

    def test_matches_pointwise_evaluation(self):
        grid = np.linspace(-3.0, 3.0, 7)
        p = params(g=0.7, kappa=1.3, omega_c=0.2)
        sweep = sweep_spectrum(p, grid)
        for i, delta in enumerate(grid):
            # the detuning the sweep evaluates is omega_a - omega_c, not delta
            point_delta = (p.omega_c + delta) - p.omega_c
            expected = reference_energies(p.omega_c, point_delta, p.g, p.kappa)
            assert bits([sweep.branch(label)[i] for label in BRANCHES]) == bits(expected)

    @given(
        omega_c=values,
        grid=st.lists(values, min_size=1, max_size=6, unique=True).map(sorted),
        g=values.map(abs),
        kappa=values,
    )
    def test_bitwise_equal_to_scalar_reference(self, omega_c, grid, g, kappa):
        sweep = sweep_spectrum(SystemParams(omega_c, omega_c, g, kappa), grid)
        for i, delta in enumerate(grid):
            p = SystemParams(omega_c, omega_c + delta, g, kappa)
            expected = bits(reference_energies(omega_c, p.delta, g, kappa))
            assert bits([one_excitation_energies(p)[label] for label in BRANCHES]) == expected
            assert bits([sweep.branch(label)[i] for label in BRANCHES]) == expected

    def test_overflowing_atom_frequency_rejected(self):
        with pytest.raises(ValueError, match="omega_a must be finite"):
            sweep_spectrum(SystemParams(1e308, 1e308, 1.0, 0.0), [0.0, 1e308])

    def test_caller_grid_stays_writable(self):
        grid = np.linspace(-1.0, 1.0, 5)
        sweep = sweep_spectrum(params(), grid)
        grid[0] = -2.0
        assert sweep.deltas[0] == -1.0
        assert not sweep.deltas.flags.writeable

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            sweep_spectrum(params(), [])

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            sweep_spectrum(params(), [0.0, -1.0, 1.0])
