"""Linear probe response: transition rates, susceptibility, peak analysis.

A weak probe driving both cells in phase connects the empty sector to the
one-excitation states through the totally symmetric atomic and photonic
raising operators, with matrix elements ``(1 - eps) * w`` and
``(1 - eps) * u``.  The ``eps = +1`` pair therefore decouples whenever the
two cells are damped identically: those states are dark, and the
absorption spectrum collapses to the two ``eps = -1`` Lorentzians.  Damping
the cells at different rates lights the dark pair up and produces four
peaks.

The complex susceptibility is the sum

    chi(omega_p) = sum over (branch, eps) of
        Gamma / (omega(eps, branch) - omega_p - i*gamma_a)

with an overall proportionality constant fixed to 1.  The Lorentzians are
centered at the one-excitation energies themselves (not at the transition
frequencies relative to the empty sector): the empty-sector offset
``-delta`` is deliberately not subtracted, so peak positions sit near
``omega_c`` for the usual parameter ranges.

Label convention: the ``(1 - eps)`` selection rule above pairs the sector
label with the ``+kappa`` hopping sign, whereas
:func:`jcpair.sectors.build_hamiltonian` keeps the ``-kappa`` convention
(under which the cell-exchange parity of the ``eps``-labelled eigenvectors
is ``+eps``).  First-principles weights computed from those eigenvectors
therefore reproduce this module's table at flipped kappa; the observable
consequences (dark pair, sum rules, peak balance at the entanglement
thresholds ``delta = +/-kappa``) are identical up to that relabelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .eigenstates import EigenAmplitudes, amplitudes, branch_detuning
from .model import DampingParams, SystemParams
from .spectrum import BRANCHES, BranchLabel, _ascending_grid, _check_sign, one_excitation_energies

__all__ = [
    "TransitionTable",
    "AbsorptionCurve",
    "transition_matrix_elements",
    "transition_probabilities",
    "transition_table",
    "susceptibility_curve",
    "absorption_imag",
    "peak_report",
    "symmetry_metric",
]


@dataclass(frozen=True, eq=False)
class TransitionTable:
    """Total decay weight and line center of each one-excitation level."""

    rates: dict[BranchLabel, float]
    centers: dict[BranchLabel, float]


@dataclass(frozen=True, eq=False)
class AbsorptionCurve:
    """Complex susceptibility sampled over an ascending probe-frequency grid."""

    omega_p: np.ndarray
    chi: np.ndarray

    @property
    def im_chi(self) -> np.ndarray:
        return self.chi.imag

    @property
    def re_chi(self) -> np.ndarray:
        return self.chi.real

    def __len__(self) -> int:
        return self.omega_p.shape[0]


def transition_matrix_elements(
    a: EigenAmplitudes, epsilon: int
) -> dict[int, tuple[float, float]]:
    """Ground-transition matrix elements ``(atomic, photonic)`` per branch.

    Both elements carry the factor ``(1 - eps)``: the symmetric probe
    operators only reach the ``eps = -1`` states, which is the dark-state
    selection rule in its sharpest form.
    """
    _check_sign("epsilon", epsilon)
    factor = 1.0 - epsilon
    return {
        +1: (factor * a.w_plus, factor * a.u_plus),
        -1: (factor * a.w_minus, factor * a.u_minus),
    }


def transition_probabilities(
    a: EigenAmplitudes, d: DampingParams, epsilon: int
) -> tuple[float, float]:
    """Total ground-transition weights ``(Gamma_plus, Gamma_minus)``.

    General per-cell damping gives
    ``(sqrt(g1) - eps*sqrt(g2))^2 * w^2 + (sqrt(gc1) - eps*sqrt(gc2))^2 * u^2``
    per branch, which for identical cells reduces to
    ``(1 - eps)^2 * (gamma*w^2 + gamma_c*u^2)``; in particular the
    ``eps = +1`` weights then vanish exactly.
    """
    _check_sign("epsilon", epsilon)
    atom_weight = (math.sqrt(d.gamma1) - epsilon * math.sqrt(d.gamma2)) ** 2
    field_weight = (math.sqrt(d.gammac1) - epsilon * math.sqrt(d.gammac2)) ** 2
    gamma_plus = atom_weight * a.w_plus**2 + field_weight * a.u_plus**2
    gamma_minus = atom_weight * a.w_minus**2 + field_weight * a.u_minus**2
    return gamma_plus, gamma_minus


def transition_table(p: SystemParams, d: DampingParams) -> TransitionTable:
    """Rates and centers of all four probe transitions for given parameters."""
    centers = one_excitation_energies(p)
    rates: dict[BranchLabel, float] = {}
    for epsilon in (+1, -1):
        a = amplitudes(branch_detuning(p, epsilon), epsilon)
        gamma_plus, gamma_minus = transition_probabilities(a, d, epsilon)
        rates[BranchLabel(epsilon, +1)] = gamma_plus
        rates[BranchLabel(epsilon, -1)] = gamma_minus
    return TransitionTable(rates=rates, centers=centers)


def susceptibility_curve(
    p: SystemParams, d: DampingParams, omega_p: Iterable[float]
) -> AbsorptionCurve:
    """Complex susceptibility sampled over the probe grid.

    Pure per-point evaluation; the imaginary part is a sum of nonnegative
    Lorentzians and is >= 0 everywhere.  Raises ``ValueError`` when a line
    center or rate overflows.
    """
    if d.gamma_a <= 0:
        raise ValueError(f"gamma_a must be > 0, got {d.gamma_a}")
    grid = _ascending_grid("probe", omega_p)
    table = transition_table(p, d)
    # An infinite center would pass as a zero term: rate / inf = 0.
    if not all(map(math.isfinite, [*table.rates.values(), *table.centers.values()])):
        raise ValueError("susceptibility: a line center or rate is not finite")
    chi = np.zeros(grid.size, dtype=complex)
    for label in BRANCHES:
        rate = table.rates[label]
        if rate == 0.0:
            continue
        chi += rate / (table.centers[label] - grid - 1j * d.gamma_a)
    grid.setflags(write=False)
    chi.setflags(write=False)
    return AbsorptionCurve(omega_p=grid, chi=chi)


def absorption_imag(
    p: SystemParams, d: DampingParams, omega_p: Iterable[float]
) -> np.ndarray:
    """Absorption spectrum as an explicit sum of the two bright Lorentzians.

    Only valid under symmetric damping, where the ``eps = +1`` pair is dark
    and Im chi reduces to

        gamma_a*G(+,-) / ((w(-,+) - omega_p)^2 + gamma_a^2)
      + gamma_a*G(-,-) / ((w(-,-) - omega_p)^2 + gamma_a^2).

    Agrees pointwise with ``susceptibility_curve(...).im_chi``; asymmetric
    damping is rejected (use the four-term :func:`susceptibility_curve`).
    """
    if not d.is_symmetric:
        raise ValueError(
            "two-Lorentzian form requires symmetric damping; "
            "use susceptibility_curve for per-cell rates"
        )
    grid = _ascending_grid("probe", omega_p)
    centers = one_excitation_energies(p)
    a = amplitudes(branch_detuning(p, -1), -1)
    gamma_plus, gamma_minus = transition_probabilities(a, d, -1)
    out = np.zeros(grid.size)
    for branch, rate in ((+1, gamma_plus), (-1, gamma_minus)):
        center = centers[BranchLabel(-1, branch)]
        out += d.gamma_a * rate / ((center - grid) ** 2 + d.gamma_a**2)
    return out


def peak_report(curve: AbsorptionCurve) -> list[tuple[float, float]]:
    """All strict local maxima of Im chi on the grid, sorted by position.

    A grid point counts as a peak when its value strictly exceeds both
    neighbours, so a flat top of equal neighbours is no peak and the first
    and last grid points never are.  No sub-grid interpolation is attempted,
    so positions are accurate to the grid step.
    """
    if len(curve) == 0:
        raise ValueError("empty curve")
    y = curve.im_chi
    interior = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])
    index = np.flatnonzero(interior) + 1
    return list(zip(curve.omega_p[index].tolist(), y[index].tolist()))


def symmetry_metric(curve: AbsorptionCurve, n_peaks: int = 2) -> float:
    """Height imbalance of the ``n_peaks`` tallest peaks, in [0, 1].

    For the default two peaks this is ``|h1 - h2| / (h1 + h2)``; for more it
    generalizes to ``(max - min) / (max + min)`` over the selected peaks.
    Zero means perfectly balanced heights; for unequally damped bright
    states it grows with the distance from the maximal-entanglement
    threshold.  Raises if the curve has fewer than ``n_peaks`` peaks.
    """
    if n_peaks < 2:
        raise ValueError(f"n_peaks must be >= 2, got {n_peaks}")
    peaks = peak_report(curve)
    if len(peaks) < n_peaks:
        raise ValueError(f"need at least {n_peaks} peaks, found {len(peaks)}")
    heights = sorted((h for _, h in peaks), reverse=True)[:n_peaks]
    top, bottom = heights[0], heights[-1]
    return (top - bottom) / (top + bottom)
