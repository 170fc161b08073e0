import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jcpair.model import (
    DampingParams,
    SystemParams,
    jc_doublet_energies,
    jc_ground_energy,
    jc_mixing_angle,
)


def params(delta=0.0, omega_c=0.0, g=1.0, kappa=0.0):
    return SystemParams(omega_c=omega_c, omega_a=omega_c + delta, g=g, kappa=kappa)


class TestSystemParams:
    def test_delta_is_difference(self):
        p = SystemParams(omega_c=1.0, omega_a=3.0, g=0.5)
        assert p.delta == 2.0

    def test_half_delta_where_delta_overflows(self):
        assert SystemParams(omega_c=1.0, omega_a=3.0, g=0.5).half_delta == 1.0
        p = SystemParams(omega_c=-1e308, omega_a=1.5e308, g=1.0)
        assert math.isinf(p.delta)
        assert p.half_delta == 1.25e308

    def test_negative_g_rejected(self):
        with pytest.raises(ValueError, match="g"):
            SystemParams(omega_c=0.0, omega_a=0.0, g=-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            SystemParams(omega_c=bad, omega_a=0.0, g=1.0)

    def test_kappa_may_be_negative(self):
        assert SystemParams(omega_c=0.0, omega_a=0.0, g=1.0, kappa=-2.0).kappa == -2.0


class TestDampingParams:
    def test_symmetric_constructor_and_accessors(self):
        d = DampingParams.symmetric(gamma=0.01, gamma_c=0.02, gamma_a=0.05)
        assert d.gamma == 0.01
        assert d.gamma_c == 0.02
        assert d.is_symmetric

    def test_asymmetric_accessors_raise(self):
        d = DampingParams(0.01, 0.2, 0.2, 0.01, 0.05)
        assert not d.is_symmetric
        with pytest.raises(ValueError):
            d.gamma
        with pytest.raises(ValueError):
            d.gamma_c

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="gamma2"):
            DampingParams(0.1, -0.1, 0.0, 0.0, 0.05)

    @pytest.mark.parametrize("gamma_a", [0.0, -1.0])
    def test_gamma_a_must_be_positive(self, gamma_a):
        with pytest.raises(ValueError, match="gamma_a"):
            DampingParams(0.0, 0.0, 0.0, 0.0, gamma_a)


class TestGroundEnergy:
    def test_zero_detuning(self):
        assert jc_ground_energy(params(delta=0.0)) == 0.0

    def test_positive_detuning(self):
        assert jc_ground_energy(SystemParams(omega_c=1.0, omega_a=3.0, g=0.0)) == -1.0

    def test_negative_detuning(self):
        assert jc_ground_energy(SystemParams(omega_c=1.0, omega_a=0.5, g=0.0)) == 0.25


class TestDoubletEnergies:
    def test_vacuum_rabi_doublet_at_resonance(self):
        assert jc_doublet_energies(params(delta=0.0, g=1.0), 1) == (1.0, -1.0)

    def test_hand_evaluated_n2(self):
        # sqrt(2*1 + 1/4) = 1.5 around base 2*5 = 10
        p = SystemParams(omega_c=5.0, omega_a=6.0, g=1.0)
        assert jc_doublet_energies(p, 2) == (11.5, 8.5)

    def test_degenerate_when_uncoupled(self):
        p = SystemParams(omega_c=1.0, omega_a=1.0, g=0.0)
        assert jc_doublet_energies(p, 3) == (3.0, 3.0)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError, match="n"):
            jc_doublet_energies(params(), 0)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_parameters_at_2_to_the_minus_540(self, n):
        # n g^2 + delta^2/4 underflows; before the redo both energies read n*omega_c.
        s = 2.0**-540
        scaled = jc_doublet_energies(SystemParams(0.5 * s, 0.7 * s, 0.3 * s), n)
        unit = jc_doublet_energies(SystemParams(0.5, 0.7, 0.3), n)
        for energy, expected in zip(scaled, unit):
            assert abs(energy / s - expected) <= 4 * math.ulp(expected)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_every_scale_up_to_the_float_maximum(self, n):
        # From about 2^511 up, n g^2 + delta^2/4 overflows; before the redo
        # the energies read +/-inf.  top is the largest k at which every
        # input and energy times 2^k is still finite.
        values = (0.5, 0.7, 0.3)
        unit = jc_doublet_energies(SystemParams(*values), n)
        top = 1024 - max(math.frexp(abs(v))[1] for v in (*values, *unit))
        for k in range(top + 1):
            scaled = jc_doublet_energies(SystemParams(*(math.ldexp(v, k) for v in values)), n)
            for energy, expected in zip(scaled, unit):
                assert abs(math.ldexp(energy, -k) - expected) <= 4 * math.ulp(expected), k

    @pytest.mark.parametrize("n", [1, 2])
    def test_detuning_past_the_float_maximum(self, n):
        # delta = omega_a - omega_c overflows while both levels stay finite;
        # the root was inf and the energies (inf, -inf).
        unit = jc_doublet_energies(SystemParams(-0.25, 1.75, 0.5), n)
        scaled = jc_doublet_energies(SystemParams(*(math.ldexp(v, 1023) for v in (-0.25, 1.75, 0.5))), n)
        assert math.isinf(SystemParams(-0.25, 1.75, 0.5).delta * 2.0**1023)
        assert tuple(math.ldexp(energy, -1023) for energy in scaled) == unit

    def test_half_the_smallest_subnormal_detuning(self):
        # delta/2 rounds to 0, so the plain root is right; the redo's m was 0.
        assert jc_doublet_energies(SystemParams(0.0, 5e-324, 0.0), 1) == (0.0, 0.0)
        assert jc_doublet_energies(SystemParams(0.0, 1e-323, 0.0), 1) == (5e-324, -5e-324)

    def test_smallest_subnormal_parameters(self):
        tiny = 5e-324
        assert jc_doublet_energies(SystemParams(tiny, tiny, 0.0), 2) == (2 * tiny, 2 * tiny)
        assert jc_doublet_energies(SystemParams(0.0, 0.0, tiny), 1) == (tiny, -tiny)

    @given(
        omega_c=st.floats(-50, 50),
        delta=st.floats(-50, 50),
        g=st.floats(0, 20),
        n=st.integers(1, 10),
    )
    def test_sum_and_gap(self, omega_c, delta, g, n):
        p = SystemParams(omega_c=omega_c, omega_a=omega_c + delta, g=g)
        upper, lower = jc_doublet_energies(p, n)
        scale = 1.0 + abs(omega_c) * n + abs(delta) + g
        assert upper + lower == pytest.approx(2 * n * omega_c, abs=1e-12 * scale)
        gap = upper - lower
        assert gap >= 2 * g * math.sqrt(n) - 1e-12 * scale
        if p.delta == 0:
            assert gap == pytest.approx(2 * g * math.sqrt(n), abs=1e-12 * scale)

    @given(
        g=st.floats(0.01, 20),
        delta=st.floats(0, 100),
        n=st.integers(1, 10),
    )
    def test_gap_strictly_increasing_in_detuning(self, g, delta, n):
        near = params(delta=delta, g=g)
        far = params(delta=2 * delta + 1.0, g=g)
        gap_near = jc_doublet_energies(near, n)[0] - jc_doublet_energies(near, n)[1]
        gap_far = jc_doublet_energies(far, n)[0] - jc_doublet_energies(far, n)[1]
        assert gap_far > gap_near


class TestMixingAngle:
    def test_resonant_limit(self):
        assert jc_mixing_angle(params(delta=0.0, g=1.0), 1) == math.pi / 4

    def test_direct_evaluation(self):
        assert jc_mixing_angle(params(delta=2.0, g=1.0), 1) == pytest.approx(math.pi / 8)

    def test_decoupled_atom(self):
        assert jc_mixing_angle(params(delta=2.0, g=0.0), 1) == 0.0

    def test_degenerate_doublet_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            jc_mixing_angle(params(delta=0.0, g=0.0), 1)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_doubled_coupling_past_the_float_maximum(self, n):
        angle = jc_mixing_angle(params(delta=1.5e308, g=1e308), n)
        assert angle == jc_mixing_angle(params(delta=1.5e308 / 16, g=1e308 / 16), n)
        assert angle == pytest.approx(0.5 * math.atan(2 * math.sqrt(n) / 1.5))

    def test_detuning_past_the_float_maximum(self):
        # omega_a - omega_c = 2e308 overflows; 2g/delta = 1 still gives pi/8.
        p = SystemParams(omega_c=-1e308, omega_a=1e308, g=1e308, kappa=0.0)
        assert math.isinf(p.delta)
        assert jc_mixing_angle(p, 1) == math.pi / 8

    @given(delta=st.floats(-100, 100), g=st.floats(0, 20), n=st.integers(1, 10))
    def test_range(self, delta, g, n):
        if g == 0 and delta == 0:
            return
        # mathematically the interval is open at -pi/4; a denormal delta can
        # round onto the endpoint, so the test checks the closed interval
        angle = jc_mixing_angle(params(delta=delta, g=g), n)
        assert -math.pi / 4 <= angle <= math.pi / 4
