"""Closed-form one-excitation spectrum of the coupled pair.

With one quantum shared between the two cells the four energies are

    omega(eps, +/-) = omega_c - (delta + eps*kappa)/2
                      +/- sqrt(g^2 + (delta + eps*kappa)^2 / 4)

with the sector label ``eps = +/-1`` selecting which sign of the hopping
rate adds to the detuning.  Photon hopping alone shifts the level
crossings from ``delta = 0`` to ``delta = -eps*kappa``; only a nonzero
atom-cavity coupling g turns them into avoided crossings with minimum gap
``2g``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .model import SystemParams

__all__ = [
    "BranchLabel",
    "BRANCHES",
    "SpectrumSweep",
    "energies",
    "one_excitation_energies",
    "one_excitation_energies_perturbative",
    "sweep_spectrum",
    "min_gap",
]


def _check_sign(name: str, value: int) -> None:
    if value not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1, got {value!r}")


@dataclass(frozen=True)
class BranchLabel:
    """Identifies one of the four one-excitation levels.

    ``epsilon`` picks the sector (sign of the kappa shift) and ``branch``
    the upper (+1) or lower (-1) level of that sector's doublet.
    """

    epsilon: int
    branch: int

    def __post_init__(self) -> None:
        _check_sign("epsilon", self.epsilon)
        _check_sign("branch", self.branch)

    @property
    def key(self) -> str:
        """Short suffix used in emitted column names, e.g. ``pm``."""
        return ("p" if self.epsilon > 0 else "m") + ("p" if self.branch > 0 else "m")


# Fixed output order: epsilon major, branch minor, + before -.
BRANCHES: tuple[BranchLabel, ...] = (
    BranchLabel(+1, +1),
    BranchLabel(+1, -1),
    BranchLabel(-1, +1),
    BranchLabel(-1, -1),
)


_EPSILON = np.array([label.epsilon for label in BRANCHES], dtype=float)
_BRANCH = np.array([label.branch for label in BRANCHES], dtype=float)


def energies(omega_c, delta, g, kappa) -> np.ndarray:
    """The four one-excitation energies, columns in ``BRANCHES`` order.

    The four parameters broadcast together, each a scalar or an array; the
    result has shape ``np.broadcast_shapes(*shapes) + (4,)``.  Every element
    is rounded exactly as the scalar float expression
    ``omega_c - x/2 + branch*sqrt(g*g + x*x/4)``, ``x = delta + eps*kappa``,
    of its own parameters.
    """
    omega_c, delta, g, kappa = (
        np.asarray(value, dtype=float)[..., None] for value in (omega_c, delta, g, kappa)
    )
    # In place on two buffers of the result's shape.  Each step rounds as the
    # expression does; the operands of + and * may swap, which IEEE leaves exact.
    x = np.empty(np.broadcast_shapes(omega_c.shape, delta.shape, g.shape, kappa.shape, (4,)))
    np.add(delta, kappa * _EPSILON, out=x)
    root = 0.25 * x
    root *= x
    root += g * g
    np.sqrt(root, out=root)
    root *= _BRANCH
    x *= 0.5
    np.subtract(omega_c, x, out=x)
    x += root
    return x


def one_excitation_energies(p: SystemParams) -> dict[BranchLabel, float]:
    """All four one-excitation energies, keyed by branch label."""
    return dict(zip(BRANCHES, energies(p.omega_c, p.delta, p.g, p.kappa).tolist()))


def one_excitation_energies_perturbative(p: SystemParams) -> dict[BranchLabel, float]:
    """Weak-hopping expansion of the resonant one-excitation energies.

    ``omega_c +/- g - eps*kappa/2 +/- kappa^2/(8g)``, the expansion of the
    exact energies to second order in kappa/g at zero detuning.  The branch
    sign multiplies both the vacuum Rabi shift g and the frequency-pulling
    term kappa^2/(8g); the eps*kappa/2 term is the normal-mode splitting of
    the two cavities.  Requires g > 0 and is only defined at delta = 0, the
    regime the expansion is valid in; anything else is rejected rather than
    silently extrapolated.
    """
    if p.g == 0:
        raise ValueError("perturbative energies require g > 0")
    if p.delta != 0:
        raise ValueError(f"perturbative energies require delta = 0, got {p.delta}")
    pulling = p.kappa * p.kappa / (8.0 * p.g)
    out: dict[BranchLabel, float] = {}
    for label in BRANCHES:
        out[label] = (
            p.omega_c
            + label.branch * p.g
            - 0.5 * label.epsilon * p.kappa
            + label.branch * pulling
        )
    return out


@dataclass(frozen=True, eq=False)
class SpectrumSweep:
    """One-excitation energies tabulated over a strictly ascending delta grid."""

    deltas: np.ndarray
    energies: Mapping[BranchLabel, np.ndarray]

    def __len__(self) -> int:
        return self.deltas.shape[0]

    def branch(self, label: BranchLabel) -> np.ndarray:
        return self.energies[label]

    def at(self, i: int) -> dict[BranchLabel, float]:
        return {label: float(self.energies[label][i]) for label in BRANCHES}


def _ascending_grid(name: str, values: Iterable[float]) -> np.ndarray:
    """A new float array of ``values``, checked to be nonempty, 1-d and strictly ascending.

    It is always a copy, so the caller's array stays writable when the sweep
    freezes the grid it keeps.
    """
    grid = np.array(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"{name} grid must be a nonempty 1-d sequence")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError(f"{name} grid must be strictly ascending")
    return grid


def sweep_spectrum(p: SystemParams, deltas: Iterable[float]) -> SpectrumSweep:
    """Evaluate the closed-form energies at every detuning of the grid.

    The detuning is taken from the grid; ``p.omega_a`` is ignored.  The grid
    must be nonempty and strictly ascending.  Each grid point is evaluated
    as ``SystemParams(omega_a=omega_c + delta)`` would be, so the detuning
    used is ``(omega_c + delta) - omega_c`` and an atom frequency that
    overflows is rejected.
    """
    grid = _ascending_grid("delta", deltas)
    with np.errstate(over="ignore"):
        omega_a = p.omega_c + grid
    finite = np.isfinite(omega_a)
    if not finite.all():
        raise ValueError(f"omega_a must be finite, got {float(omega_a[~finite][0])!r}")
    table = energies(p.omega_c, omega_a - p.omega_c, p.g, p.kappa)
    table.setflags(write=False)
    grid.setflags(write=False)
    columns = {label: table[:, k] for k, label in enumerate(BRANCHES)}
    return SpectrumSweep(deltas=grid, energies=columns)


def min_gap(sweep: SpectrumSweep, epsilon: int) -> tuple[float, float]:
    """Grid point minimizing the upper-lower gap of the ``epsilon`` pair.

    Returns ``(delta_at_min, gap)`` at grid resolution; no interpolation is
    attempted, so callers needing a sharper minimum refine the grid.  Ties
    resolve to the first (smallest-delta) grid point.
    """
    _check_sign("epsilon", epsilon)
    upper = sweep.branch(BranchLabel(epsilon, +1))
    lower = sweep.branch(BranchLabel(epsilon, -1))
    gaps = upper - lower
    i = int(np.argmin(gaps))
    return float(sweep.deltas[i]), float(gaps[i])
