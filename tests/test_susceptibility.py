import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jcpair.eigenstates import amplitudes, branch_detuning
from jcpair.linalg import eig_sym
from jcpair.model import DampingParams, SystemParams
from jcpair.sectors import build_hamiltonian, enumerate_sector
from jcpair.spectrum import BRANCHES
from jcpair.susceptibility import (
    AbsorptionCurve,
    absorption_imag,
    peak_report,
    susceptibility_curve,
    symmetry_metric,
    transition_matrix_elements,
    transition_probabilities,
    transition_table,
)

finite_r = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
rates = st.floats(0.0, 2.0, allow_nan=False)


def params(delta=0.0, omega_c=0.0, g=1.0, kappa=0.0):
    return SystemParams(omega_c=omega_c, omega_a=omega_c + delta, g=g, kappa=kappa)


def oracle_rates(p, d):
    """Transition weights computed from the numeric eigensystem (test oracle).

    Independent of the closed-form amplitudes: eigenvectors come from the
    Jacobi decomposition of the one-excitation block, and each weight is
    assembled from the raw components,
    (sqrt(g1)*v_a1 +/- ...)^2 generalized to per-cell rates.
    """
    system = eig_sym(build_hamiltonian(p, enumerate_sector(1)).matrix)
    out = []
    for k in range(4):
        v = system.vectors[:, k]  # components (|0e0g>, |1g0g>, |0g1g>, |0g0e>)
        atomic = math.sqrt(d.gamma1) * v[0] + math.sqrt(d.gamma2) * v[3]
        photonic = math.sqrt(d.gammac1) * v[1] + math.sqrt(d.gammac2) * v[2]
        out.append((float(system.values[k]), atomic**2 + photonic**2))
    return out


class TestMatrixElements:
    def test_symmetric_sector_is_dark(self):
        elements = transition_matrix_elements(amplitudes(0.3, +1), +1)
        assert elements[+1] == (0.0, 0.0)
        assert elements[-1] == (0.0, 0.0)

    def test_balanced_bright_elements(self):
        elements = transition_matrix_elements(amplitudes(0.0, -1), -1)
        assert elements[+1] == (1.0, 1.0)

    def test_rational_point(self):
        elements = transition_matrix_elements(amplitudes(0.75, -1), -1)
        root10 = math.sqrt(10.0)
        atomic, photonic = elements[-1]
        assert atomic == pytest.approx(2.0 / root10, abs=1e-15)
        assert photonic == pytest.approx(-4.0 / root10, abs=1e-15)


class TestTransitionProbabilities:
    def test_dark_states_exact_zero(self):
        d = DampingParams.symmetric(0.17, 0.23, 0.05)
        for r in (-3.0, 0.0, 0.4, 12.0):
            assert transition_probabilities(amplitudes(r, +1), d, +1) == (0.0, 0.0)

    def test_balanced_bright_value(self):
        d = DampingParams.symmetric(0.01, 0.02, 0.05)
        gamma_plus, gamma_minus = transition_probabilities(amplitudes(0.0, -1), d, -1)
        assert gamma_plus == pytest.approx(0.03, abs=1e-15)
        assert gamma_minus == pytest.approx(0.03, abs=1e-15)

    def test_swapped_per_cell_rates_at_threshold(self):
        d = DampingParams(0.01, 0.2, 0.2, 0.01, 0.05)
        expected = ((math.sqrt(0.01) - math.sqrt(0.2)) ** 2) / 2.0
        gamma_plus, gamma_minus = transition_probabilities(amplitudes(0.0, +1), d, +1)
        assert gamma_plus == pytest.approx(expected, abs=1e-15)
        assert gamma_minus == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.060279, abs=1e-5)

    @given(r=finite_r, gamma=rates, gamma_c=rates, epsilon=st.sampled_from([1, -1]))
    def test_shared_rate_reduction(self, r, gamma, gamma_c, epsilon):
        d = DampingParams.symmetric(gamma, gamma_c, 0.05)
        a = amplitudes(r, epsilon)
        general = transition_probabilities(a, d, epsilon)
        for branch, value in ((+1, general[0]), (-1, general[1])):
            u, w = a.branch(branch)
            reference = (1 - epsilon) ** 2 * (gamma * w * w + gamma_c * u * u)
            assert value == pytest.approx(reference, rel=1e-13, abs=1e-15)

    @given(r=finite_r, gamma=rates, gamma_c=rates)
    def test_sum_rule(self, r, gamma, gamma_c):
        d = DampingParams.symmetric(gamma, gamma_c, 0.05)
        gamma_plus, gamma_minus = transition_probabilities(amplitudes(r, -1), d, -1)
        assert gamma_plus + gamma_minus == pytest.approx(
            2.0 * (gamma + gamma_c), abs=1e-12
        )

    def test_matches_numeric_eigensystem(self):
        # The rate formulas label the sectors for the +kappa hopping sign,
        # while build_hamiltonian keeps the -kappa convention, so the
        # first-principles weights of the -kappa eigenvectors reproduce the
        # formula table evaluated at flipped kappa (see the module notes).
        rng = random.Random(31)
        for _ in range(50):
            g = rng.uniform(0.2, 5.0)
            p = SystemParams(
                omega_c=rng.uniform(-3, 3),
                omega_a=rng.uniform(-5, 5),
                g=g,
                kappa=rng.uniform(-5, 5),
            )
            d = DampingParams(
                rng.uniform(0, 0.5),
                rng.uniform(0, 0.5),
                rng.uniform(0, 0.5),
                rng.uniform(0, 0.5),
                0.05,
            )
            flipped = SystemParams(p.omega_c, p.omega_a, p.g, -p.kappa)
            table = transition_table(flipped, d)
            closed = sorted(
                (table.centers[label], table.rates[label]) for label in BRANCHES
            )
            numeric = sorted(oracle_rates(p, d))
            for (ce, re_), (cn, rn) in zip(closed, numeric):
                assert ce == pytest.approx(cn, abs=1e-10)
                assert re_ == pytest.approx(rn, abs=1e-10)


class TestSusceptibilityCurve:
    def fig3_damping(self):
        return DampingParams.symmetric(0.01, 0.02, 0.05)

    def test_all_rates_zero_gives_zero_response(self):
        d = DampingParams.symmetric(0.0, 0.0, 0.05)
        curve = susceptibility_curve(params(delta=1.0, kappa=2.0), d, np.linspace(-4, 4, 101))
        assert np.array_equal(curve.chi, np.zeros(101, dtype=complex))

    def test_on_peak_value_at_threshold(self):
        # two equal-weight Lorentzians at +/- g: on one center the response
        # is gamma/gamma_a plus the tail of the partner two couplings away
        p = params(delta=2.0, kappa=2.0)
        curve = susceptibility_curve(p, self.fig3_damping(), np.linspace(-5, 5, 2001))
        expected = 0.03 / 0.05 + 0.03 * 0.05 / (4.0 + 0.05**2)
        i = np.searchsorted(curve.omega_p, 1.0)
        assert curve.omega_p[i] == 1.0
        assert curve.im_chi[i] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.600375, abs=1e-3)

    def test_dark_sector_contributes_nothing(self):
        p = params(delta=1.3, kappa=2.0)
        d = self.fig3_damping()
        grid = np.linspace(-6, 6, 301)
        curve = susceptibility_curve(p, d, grid)
        table = transition_table(p, d)
        bright = np.zeros(grid.size, dtype=complex)
        for label in BRANCHES:
            if label.epsilon == -1:
                bright += table.rates[label] / (table.centers[label] - grid - 1j * d.gamma_a)
        assert np.max(np.abs(curve.chi - bright)) <= 1e-14

    def test_symmetric_about_cavity_frequency_at_threshold(self):
        p = params(delta=2.0, kappa=2.0)
        grid = np.linspace(-5, 5, 2001)
        curve = susceptibility_curve(p, self.fig3_damping(), grid)
        assert np.max(np.abs(curve.im_chi - curve.im_chi[::-1])) <= 1e-12

    def test_imaginary_part_nonnegative(self):
        rng = random.Random(17)
        for _ in range(20):
            p = params(
                delta=rng.uniform(-8, 8),
                g=rng.uniform(0.2, 3),
                kappa=rng.uniform(-5, 5),
            )
            d = DampingParams(
                rng.uniform(0, 1),
                rng.uniform(0, 1),
                rng.uniform(0, 1),
                rng.uniform(0, 1),
                rng.uniform(0.01, 0.5),
            )
            curve = susceptibility_curve(p, d, np.linspace(-20, 20, 201))
            assert np.all(curve.im_chi >= 0.0)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            susceptibility_curve(params(), self.fig3_damping(), [1.0, 0.0])


class TestAbsorptionImag:
    def test_matches_full_curve(self):
        p = params(delta=-3.0, kappa=2.0)
        d = DampingParams.symmetric(0.01, 0.02, 0.05)
        grid = np.linspace(-8, 8, 501)
        two_lorentzian = absorption_imag(p, d, grid)
        full = susceptibility_curve(p, d, grid).im_chi
        assert np.max(np.abs(two_lorentzian - full)) <= 1e-12

    def test_asymmetric_damping_rejected(self):
        d = DampingParams(0.01, 0.2, 0.2, 0.01, 0.05)
        with pytest.raises(ValueError, match="symmetric"):
            absorption_imag(params(kappa=2.0), d, np.linspace(-5, 5, 11))

    def test_unequal_weights_off_threshold(self):
        # delta/g = 5, kappa/g = 2 puts the bright pair at r = 1.5; the
        # resulting weights are visibly unequal (the asymmetric spectrum)
        p = params(delta=5.0, kappa=2.0)
        d = DampingParams.symmetric(0.01, 0.02, 0.05)
        a = amplitudes(branch_detuning(p, -1), -1)
        gamma_plus, gamma_minus = transition_probabilities(a, d, -1)
        s = math.sqrt(1.0 + 1.5**2)
        u_plus_sq = (s - 1.5) / (4.0 * s)
        w_plus_sq = 1.0 / (4.0 * s * (s - 1.5))
        expected_plus = 4.0 * (0.01 * w_plus_sq + 0.02 * u_plus_sq)
        expected_minus = 4.0 * (0.01 * u_plus_sq + 0.02 * w_plus_sq)
        assert gamma_plus == pytest.approx(expected_plus, rel=1e-12)
        assert gamma_minus == pytest.approx(expected_minus, rel=1e-12)
        assert gamma_plus == pytest.approx(0.0216795, abs=1e-6)
        assert gamma_minus == pytest.approx(0.0383205, abs=1e-6)


class TestPeaksAndSymmetry:
    def fig3_curve(self, delta, lo=-5.0, hi=5.0, count=2001):
        p = params(delta=delta, kappa=2.0)
        d = DampingParams.symmetric(0.01, 0.02, 0.05)
        return susceptibility_curve(p, d, np.linspace(lo, hi, count))

    def test_two_balanced_peaks_at_threshold(self):
        curve = self.fig3_curve(2.0)
        peaks = peak_report(curve)
        assert len(peaks) == 2
        positions = [pos for pos, _ in peaks]
        heights = [h for _, h in peaks]
        assert positions[0] == pytest.approx(-1.0, abs=0.005)
        assert positions[1] == pytest.approx(1.0, abs=0.005)
        assert abs(heights[0] - heights[1]) / max(heights) < 0.01
        assert symmetry_metric(curve) < 0.01

    def test_unequal_peaks_off_threshold(self):
        curve = self.fig3_curve(5.0)
        assert len(peak_report(curve)) == 2
        assert 0.1 < symmetry_metric(curve) < 0.4

    def test_balance_marks_the_bright_threshold(self):
        # with gamma != gamma_c the two visible peaks balance only where the
        # bright pair is maximally entangled, i.e. at delta = +kappa; the
        # other threshold's balanced pair is dark and leaves no signature
        for delta in np.arange(-3.0, 3.5, 0.5):
            curve = self.fig3_curve(float(delta), lo=-8.0, hi=8.0, count=3201)
            metric = symmetry_metric(curve)
            if delta == 2.0:
                assert metric < 0.02, f"delta={delta}"
            else:
                assert metric > 0.02, f"delta={delta}"

    def test_four_peaks_with_per_cell_damping(self):
        p = params(delta=-2.0, kappa=2.0)
        d = DampingParams(0.01, 0.2, 0.2, 0.01, 0.05)
        curve = susceptibility_curve(p, d, np.linspace(-5, 5, 2001))
        peaks = peak_report(curve)
        assert len(peaks) == 4
        assert symmetry_metric(curve, n_peaks=4) > 0.05

    def test_single_synthetic_lorentzian(self):
        grid = np.linspace(-2.0, 2.0, 401)
        chi = 0.1 / (0.35 - grid - 0.05j)
        curve = AbsorptionCurve(omega_p=grid, chi=chi)
        peaks = peak_report(curve)
        assert len(peaks) == 1
        assert peaks[0][0] == pytest.approx(0.35, abs=0.011)

    def test_flat_tops_and_edges_are_not_peaks(self):
        grid = np.arange(9.0)
        im = np.array([5.0, 1.0, 3.0, 3.0, 1.0, 2.0, 1.0, 0.0, 4.0])
        curve = AbsorptionCurve(omega_p=grid, chi=1j * im)
        # 3.0, 3.0 is a flat top of equal neighbours; 5.0 and 4.0 sit on
        # the grid edges; only the strict interior maximum at 5 remains.
        assert peak_report(curve) == [(5.0, 2.0)]
        short = AbsorptionCurve(omega_p=np.arange(2.0), chi=1j * np.array([0.0, 1.0]))
        assert peak_report(short) == []

    def test_equal_synthetic_peaks_score_zero(self):
        grid = np.linspace(-3.0, 3.0, 601)
        chi = 0.1 / (-1.0 - grid - 0.05j) + 0.1 / (1.0 - grid - 0.05j)
        curve = AbsorptionCurve(omega_p=grid, chi=chi)
        assert symmetry_metric(curve) == 0.0

    def test_requires_two_peaks(self):
        grid = np.linspace(-2.0, 2.0, 101)
        chi = 0.1 / (0.0 - grid - 0.05j)
        with pytest.raises(ValueError, match="peaks"):
            symmetry_metric(AbsorptionCurve(omega_p=grid, chi=chi))

    def test_real_part_antisymmetric_about_center(self):
        # single resonance: dispersion is odd around the line center
        half = np.linspace(0.0, 1.5, 151)
        offsets = np.concatenate((-half[:0:-1], half))  # exactly mirror-symmetric
        chi = 0.2 / (-offsets - 0.04j)
        assert np.max(np.abs(chi.real + chi.real[::-1])) == 0.0
