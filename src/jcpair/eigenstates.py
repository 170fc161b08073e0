"""One-excitation eigenstates and the maximal-entanglement threshold.

Each sector ``eps`` reduces to a two-level problem controlled by a single
dimensionless detuning ``r = (delta + eps*kappa) / (2g)``.  The upper and
lower eigenstates carry a photonic amplitude ``u`` and an atomic amplitude
``w`` on each cell:

    u(+/-) = (-r +/- sqrt(1+r^2)) / sqrt(2 + 2*(r -/+ sqrt(1+r^2))^2)
    w(+/-) =                  1   / sqrt(2 + 2*(r -/+ sqrt(1+r^2))^2)

At ``r = 0`` (i.e. ``delta = -eps*kappa``) all four probability weights
equal 1/4 and the state is a maximally entangled W-like superposition of
the four single-excitation degrees of freedom.  ``u`` of the lower branch
is negative there (-1/2, not +1/2): equality of the weights, not of the
signed amplitudes, is the entanglement criterion.

Sign convention: with the ``-kappa`` hopping used by
:func:`jcpair.sectors.build_hamiltonian`, the ``eps``-labelled energies
belong to eigenvectors whose two cells are related by a factor ``+eps``
(``eps = +1`` symmetric under cell exchange, ``eps = -1`` antisymmetric).
The vectors returned here follow that pairing, which is the one that
satisfies ``H v = omega v``; the opposite pairing, sometimes quoted for
the ``+kappa`` convention, does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemParams
from .spectrum import _check_sign

__all__ = [
    "EigenAmplitudes",
    "branch_detuning",
    "amplitudes",
    "eigenstate_vector",
    "entanglement_deviation",
]


@dataclass(frozen=True)
class EigenAmplitudes:
    """Photonic (u) and atomic (w) amplitudes of one sector's two eigenstates.

    Satisfies ``2u^2 + 2w^2 = 1`` per branch (each state is unit norm over
    its four nonzero components), cross-branch orthogonality
    ``2 u+ u- + 2 w+ w- = 0``, and ``w > 0`` for both branches.
    """

    epsilon: int
    r: float
    u_plus: float
    w_plus: float
    u_minus: float
    w_minus: float

    def branch(self, branch: int) -> tuple[float, float]:
        """The ``(u, w)`` pair of the requested branch (+1 upper, -1 lower)."""
        _check_sign("branch", branch)
        if branch > 0:
            return self.u_plus, self.w_plus
        return self.u_minus, self.w_minus


def branch_detuning(p: SystemParams, epsilon: int) -> float:
    """Dimensionless detuning ``(delta + eps*kappa) / (2g)`` of one sector.

    Requires g > 0: without atom-cavity coupling the sector does not reduce
    to the two-level form this parameter describes.  Where ``2g`` or the
    sum overflows, both are halved first (delta as ``p.half_delta``, which
    holds where delta itself overflows), so r takes the bits it would have
    in an unbounded exponent range; elsewhere nothing changes.
    """
    _check_sign("epsilon", epsilon)
    if p.g == 0:
        raise ValueError("branch detuning requires g > 0")
    num, den = p.delta + epsilon * p.kappa, 2.0 * p.g
    if math.isinf(num) or math.isinf(den):
        num = p.half_delta + epsilon * (0.5 * p.kappa) if math.isinf(num) else 0.5 * num
        den = p.g
    return num / den


def amplitudes(r: float, epsilon: int) -> EigenAmplitudes:
    """Eigenstate amplitudes of the sector with dimensionless detuning ``r``.

    The radical ``sqrt(1+r^2) -/+ |r|`` is evaluated through its reciprocal
    to avoid catastrophic cancellation at large ``|r|``, keeping the
    normalization and orthogonality identities at machine precision over
    the whole finite range.
    """
    _check_sign("epsilon", epsilon)
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r!r}")
    s = math.hypot(1.0, r)
    big = s + abs(r)
    small = 1.0 / big  # == s - |r|, computed without cancellation
    # Numerator and denominator of each pair go through the same
    # cancellation-free quantity, keeping u and w consistent for any r.
    d = math.sqrt(2.0 + 2.0 * small * small)
    scale = math.sqrt(2.0 / (big * big) + 2.0)
    small_u = (small / d, 1.0 / d)  # (u, w) with |u| < |w|
    big_u = (1.0 / scale, (1.0 / big) / scale)  # (u, w) with |u| >= |w|
    (u_plus, w_plus), (u_minus, w_minus) = (small_u, big_u) if r >= 0 else (big_u, small_u)
    u_minus = -u_minus
    return EigenAmplitudes(
        epsilon=epsilon,
        r=r,
        u_plus=u_plus,
        w_plus=w_plus,
        u_minus=u_minus,
        w_minus=w_minus,
    )


def eigenstate_vector(p: SystemParams, epsilon: int, branch: int) -> np.ndarray:
    """Unit-norm eigenvector of the one-excitation block.

    Components are given in the sector basis order
    ``(|0e0g>, |1g0g>, |0g1g>, |0g0e>)`` as ``(w, u, eps*u, eps*w)``; see
    the module docstring for the cell-exchange sign pairing.  The vector
    satisfies ``H v = omega v`` against
    :func:`jcpair.sectors.build_hamiltonian` and
    :func:`jcpair.spectrum.one_excitation_energies`.
    """
    _check_sign("branch", branch)
    a = amplitudes(branch_detuning(p, epsilon), epsilon)
    u, w = a.branch(branch)
    return np.array([w, u, epsilon * u, epsilon * w])


def entanglement_deviation(a: EigenAmplitudes) -> float:
    """Distance of the sector's eigenstates from equal 1/4 weights.

    Returns ``max`` over the two branches of ``| u^2 - 1/4 | + | w^2 - 1/4 |``;
    zero exactly when every one of the four basis states carries probability
    1/4, the maximal-entanglement condition.  Strictly increasing in ``|r|``.
    """
    dev_plus = abs(a.u_plus**2 - 0.25) + abs(a.w_plus**2 - 0.25)
    dev_minus = abs(a.u_minus**2 - 0.25) + abs(a.w_minus**2 - 0.25)
    return max(dev_plus, dev_minus)
