import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jcpair.eigenstates import (
    amplitudes,
    branch_detuning,
    eigenstate_vector,
    entanglement_deviation,
)
from jcpair.model import SystemParams, jc_mixing_angle
from jcpair.sectors import build_hamiltonian, enumerate_sector
from jcpair.spectrum import BRANCHES, one_excitation_energies

finite_r = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)


def params(delta=0.0, omega_c=0.0, g=1.0, kappa=0.0):
    return SystemParams(omega_c=omega_c, omega_a=omega_c + delta, g=g, kappa=kappa)


class TestBranchDetuning:
    def test_vanishes_at_threshold(self):
        assert branch_detuning(params(delta=2.0, kappa=2.0), -1) == 0.0

    def test_direct_evaluation(self):
        assert branch_detuning(params(delta=2.0, kappa=2.0, g=1.0), +1) == 2.0
        assert branch_detuning(params(delta=-1.0, kappa=2.0, g=2.0), +1) == 0.25

    def test_requires_coupling(self):
        with pytest.raises(ValueError, match="g"):
            branch_detuning(params(g=0.0, kappa=1.0), +1)

    @pytest.mark.parametrize("omega_a, g, kappa, r", [
        (1.5e308, 1e308, 0.0, 0.75),       # 2g overflows
        (1e308, 1e308, 1e308, 1.0),        # so does delta + kappa
        (1e308, 4.0, 1e308, 2.5e307),      # only delta + kappa overflows
    ])
    def test_terms_past_the_float_maximum(self, omega_a, g, kappa, r):
        p = SystemParams(omega_c=0.0, omega_a=omega_a, g=g, kappa=kappa)
        small = SystemParams(omega_c=0.0, omega_a=omega_a / 16, g=g / 16, kappa=kappa / 16)
        assert branch_detuning(p, +1) == branch_detuning(small, +1) == r
        assert branch_detuning(p, -1) == branch_detuning(small, -1)


def exponent_range(*values):
    """The k for which every nonzero one of ``values`` times 2^k is a normal float."""
    exps = [math.frexp(x)[1] for x in values if x != 0.0]
    return range(max(-1021 - e for e in exps), min(1024 - e for e in exps) + 1)


moderate = st.floats(-1e3, 1e3, allow_subnormal=False)


class TestScaleCovariance:
    """Scaling every rate by 2^k leaves r and the mixing angle bit for bit as they are."""

    @settings(max_examples=60, deadline=None)
    @given(omega_c=moderate, omega_a=moderate, g=st.floats(1e-3, 1e3), kappa=moderate,
           n=st.integers(1, 10))
    @example(omega_c=0.0, omega_a=1.5, g=1.0, kappa=0.0, n=1)
    @example(omega_c=-1.0, omega_a=1.0, g=1.0, kappa=2.0, n=4)
    def test_every_normal_scale(self, omega_c, omega_a, g, kappa, n):
        base = SystemParams(omega_c=omega_c, omega_a=omega_a, g=g, kappa=kappa)

        def results(p):
            return [branch_detuning(p, +1).hex(), branch_detuning(p, -1).hex(),
                    jc_mixing_angle(p, n).hex()]

        expected = results(base)
        for k in exponent_range(omega_c, omega_a, g, kappa, base.delta):
            scaled = SystemParams(*(math.ldexp(x, k) for x in (omega_c, omega_a, g, kappa)))
            assert results(scaled) == expected, k


class TestAmplitudes:
    def test_balanced_point(self):
        a = amplitudes(0.0, +1)
        assert (a.u_plus, a.w_plus) == (0.5, 0.5)
        # the lower branch picks up the sign, only the magnitudes are equal
        assert (a.u_minus, a.w_minus) == (-0.5, 0.5)

    def test_rational_point(self):
        # r = 3/4 makes sqrt(1 + r^2) = 5/4 and every amplitude rational
        # over sqrt(10)
        a = amplitudes(0.75, -1)
        root10 = math.sqrt(10.0)
        assert a.u_plus == pytest.approx(1.0 / root10, abs=1e-15)
        assert a.w_plus == pytest.approx(2.0 / root10, abs=1e-15)
        assert a.u_minus == pytest.approx(-2.0 / root10, abs=1e-15)
        assert a.w_minus == pytest.approx(1.0 / root10, abs=1e-15)

    def test_far_detuned_asymptotics(self):
        a = amplitudes(1e8, +1)
        assert 0.0 < a.u_plus < 1e-7
        assert a.w_plus == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            amplitudes(math.inf, +1)

    @given(r=finite_r, epsilon=st.sampled_from([1, -1]))
    def test_normalization_orthogonality_signs(self, r, epsilon):
        a = amplitudes(r, epsilon)
        for u, w in ((a.u_plus, a.w_plus), (a.u_minus, a.w_minus)):
            assert 2 * u * u + 2 * w * w == pytest.approx(1.0, abs=1e-12)
        assert 2 * a.u_plus * a.u_minus + 2 * a.w_plus * a.w_minus == pytest.approx(
            0.0, abs=1e-12
        )
        assert a.w_plus > 0 and a.w_minus > 0
        assert a.u_plus > 0 > a.u_minus

    @given(r=st.floats(0, 1e6))
    def test_mirror_symmetry_in_r(self, r):
        # flipping the sign of r swaps the branch magnitudes
        a, b = amplitudes(r, +1), amplitudes(-r, +1)
        assert a.u_plus == pytest.approx(-b.u_minus, abs=1e-15)
        assert a.w_plus == pytest.approx(b.w_minus, abs=1e-15)


class TestEigenstateVector:
    def test_balanced_vector_at_threshold(self):
        # delta = kappa puts the eps = -1 pair at r = 0: every component
        # carries weight 1/4.  With the -kappa hopping convention the two
        # cells of the eps = -1 states are antisymmetric, so the signs are
        # (+, +, -, -) and not all +.
        v = eigenstate_vector(params(delta=2.0, kappa=2.0), -1, +1)
        assert np.array_equal(v, [0.5, 0.5, -0.5, -0.5])

    def test_cell_exchange_sign_follows_epsilon(self):
        rng = random.Random(21)
        for _ in range(20):
            p = params(
                delta=rng.uniform(-5, 5),
                omega_c=rng.uniform(-2, 2),
                g=rng.uniform(0.1, 3),
                kappa=rng.uniform(-5, 5),
            )
            for epsilon in (+1, -1):
                for branch in (+1, -1):
                    v = eigenstate_vector(p, epsilon, branch)
                    assert v[2] == epsilon * v[1]
                    assert v[3] == epsilon * v[0]

    def test_residual_on_printed_example(self):
        p = params(delta=2.0, kappa=2.0, g=1.0)
        h = build_hamiltonian(p, enumerate_sector(1)).matrix.to_array()
        energies = one_excitation_energies(p)
        for label in BRANCHES:
            v = eigenstate_vector(p, label.epsilon, label.branch)
            assert np.max(np.abs(h @ v - energies[label] * v)) <= 1e-10

    def test_residuals_and_completeness_random(self):
        rng = random.Random(22)
        basis = enumerate_sector(1)
        for _ in range(200):
            g = rng.uniform(0.1, 10.0)
            p = SystemParams(
                omega_c=rng.uniform(-10, 10),
                omega_a=rng.uniform(-10, 10),
                g=g,
                kappa=rng.uniform(-10 * g, 10 * g),
            )
            h = build_hamiltonian(p, basis).matrix.to_array()
            energies = one_excitation_energies(p)
            vectors = []
            for label in BRANCHES:
                v = eigenstate_vector(p, label.epsilon, label.branch)
                assert abs(np.dot(v, v) - 1.0) <= 1e-12
                assert np.max(np.abs(h @ v - energies[label] * v)) <= 1e-10
                vectors.append(v)
            gram = np.array(vectors) @ np.array(vectors).T
            assert np.max(np.abs(gram - np.eye(4))) <= 1e-10

    def test_propagates_zero_coupling_error(self):
        with pytest.raises(ValueError, match="g"):
            eigenstate_vector(params(g=0.0, kappa=1.0), +1, +1)


class TestEntanglementDeviation:
    def test_zero_at_balanced_point(self):
        assert entanglement_deviation(amplitudes(0.0, +1)) == 0.0

    def test_rational_point_value(self):
        # weights (0.1, 0.4) per branch: |0.1 - 1/4| + |0.4 - 1/4| = 0.3
        assert entanglement_deviation(amplitudes(0.75, -1)) == pytest.approx(
            0.3, abs=1e-12
        )

    def test_strictly_increasing_in_magnitude(self):
        values = [entanglement_deviation(amplitudes(r, +1)) for r in np.linspace(0, 5, 51)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert entanglement_deviation(amplitudes(-2.0, +1)) == entanglement_deviation(
            amplitudes(2.0, +1)
        )

    def test_threshold_characterization(self):
        rng = random.Random(23)
        for _ in range(50):
            g = rng.uniform(0.1, 5.0)
            kappa = rng.uniform(-5.0, 5.0)
            for epsilon in (+1, -1):
                at = params(delta=-epsilon * kappa, g=g, kappa=kappa)
                a = amplitudes(branch_detuning(at, epsilon), epsilon)
                assert entanglement_deviation(a) <= 1e-12
                for sign in (+1, -1):
                    off = params(delta=-epsilon * kappa + sign * 0.01 * g, g=g, kappa=kappa)
                    a_off = amplitudes(branch_detuning(off, epsilon), epsilon)
                    assert entanglement_deviation(a_off) > 0.0
