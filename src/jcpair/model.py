"""Parameter types and single-cell Jaynes-Cummings closed forms.

The system is two identical cells, each a two-level atom coupled to one
cavity mode with strength ``g``; the cavities exchange photons coherently
at rate ``kappa``.  All frequencies and rates share one arbitrary unit
(only ratios matter), and every object here is an immutable value, so
concurrent use is safe.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "SystemParams",
    "DampingParams",
    "jc_ground_energy",
    "jc_doublet_energies",
    "jc_mixing_angle",
]


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Coherent model parameters.

    Attributes:
        omega_c: cavity mode frequency (both cavities are identical).
        omega_a: atomic transition frequency (both atoms are identical).
        g: atom-cavity coupling rate, >= 0.
        kappa: inter-cavity photon hopping rate; either sign is allowed,
            the hopping term enters the Hamiltonian as ``-kappa``.
    """

    omega_c: float
    omega_a: float
    g: float
    kappa: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(
            omega_c=self.omega_c, omega_a=self.omega_a, g=self.g, kappa=self.kappa
        )
        if self.g < 0:
            raise ValueError(f"coupling g must be >= 0, got {self.g}")

    @property
    def delta(self) -> float:
        """Atom-cavity detuning ``omega_a - omega_c``."""
        return self.omega_a - self.omega_c

    @property
    def half_delta(self) -> float:
        """``delta / 2``, finite even where ``delta`` overflows.

        There it is ``omega_a/2 - omega_c/2``, which is exact for normal
        frequencies, so it equals the halved detuning wherever both exist.
        """
        delta = self.delta
        if math.isinf(delta):
            return 0.5 * self.omega_a - 0.5 * self.omega_c
        return 0.5 * delta


@dataclass(frozen=True)
class DampingParams:
    """Phenomenological decay rates entering the probe response.

    Attributes:
        gamma1, gamma2: atomic spontaneous-emission rates of cells 1 and 2.
        gammac1, gammac2: cavity damping rates of cells 1 and 2.
        gamma_a: common linewidth of the probe transitions, > 0.
    """

    gamma1: float
    gamma2: float
    gammac1: float
    gammac2: float
    gamma_a: float

    def __post_init__(self) -> None:
        _require_finite(
            gamma1=self.gamma1,
            gamma2=self.gamma2,
            gammac1=self.gammac1,
            gammac2=self.gammac2,
            gamma_a=self.gamma_a,
        )
        for name in ("gamma1", "gamma2", "gammac1", "gammac2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.gamma_a <= 0:
            raise ValueError(f"gamma_a must be > 0, got {self.gamma_a}")

    @classmethod
    def symmetric(cls, gamma: float, gamma_c: float, gamma_a: float) -> "DampingParams":
        """Both atoms damped at ``gamma`` and both cavities at ``gamma_c``."""
        return cls(gamma, gamma, gamma_c, gamma_c, gamma_a)

    @property
    def is_symmetric(self) -> bool:
        return self.gamma1 == self.gamma2 and self.gammac1 == self.gammac2

    @property
    def gamma(self) -> float:
        """Common atomic rate; defined only when both atoms decay alike."""
        if self.gamma1 != self.gamma2:
            raise ValueError("gamma undefined: gamma1 != gamma2")
        return self.gamma1

    @property
    def gamma_c(self) -> float:
        """Common cavity rate; defined only when both cavities decay alike."""
        if self.gammac1 != self.gammac2:
            raise ValueError("gamma_c undefined: gammac1 != gammac2")
        return self.gammac1


def jc_ground_energy(p: SystemParams) -> float:
    """Ground-state energy ``-delta/2`` of a single cell."""
    return -0.5 * p.delta


def jc_doublet_energies(p: SystemParams, n: int) -> tuple[float, float]:
    """Energies ``(upper, lower)`` of the n-th single-cell doublet.

    ``n*omega_c +/- sqrt(n g^2 + delta^2/4)`` for n >= 1; the n = 0 level
    is the singlet served by :func:`jc_ground_energy`.  The root is taken as
    ``sqrt(n g^2 + h^2)`` with ``h = p.half_delta``, finite also where delta
    overflows.  Where that sum underflows or overflows, the root is taken at
    unit scale by the rule :func:`jcpair.spectrum.energies` states, with
    ``n (g/m)^2`` in place of ``(g/m)^2``.  Wherever delta is finite and no
    redo is taken, the bits are those of the plain expression.
    """
    if n < 1:
        raise ValueError(f"doublet index n must be >= 1, got {n}")
    base = n * p.omega_c
    g, h = p.g, p.half_delta
    total = n * g * g + h * h
    if (total < sys.float_info.min and (g or h)) or total == math.inf:
        m = max(g, abs(h))
        g, h = g / m, h / m
        root = m * math.sqrt(n * g * g + h * h)
    else:
        root = math.sqrt(total)
    return base + root, base - root


def jc_mixing_angle(p: SystemParams, n: int) -> float:
    """Mixing angle ``atan(2 g sqrt(n) / delta) / 2`` of the n-th doublet.

    On resonance the angle is pi/4, the delta -> 0 limit for g > 0.  The
    angle is undefined when g and delta vanish together (the doublet is
    then fully degenerate) and a ValueError is raised.  Where delta
    overflows, g and ``p.half_delta`` take its place; where ``2 g sqrt(n)``
    overflows, g and delta are first scaled by the same power of two.  Both
    leave the ratio's bits as they would be in an unbounded exponent range.
    """
    if n < 1:
        raise ValueError(f"doublet index n must be >= 1, got {n}")
    if p.g == 0.0 and p.delta == 0.0:
        raise ValueError("mixing angle undefined for g = 0 at zero detuning")
    if p.delta == 0.0:
        return 0.25 * math.pi
    g, delta = p.g, p.delta
    if math.isinf(delta):
        # Halving g and delta is exact and keeps the ratio's bits.
        g, delta = 0.5 * g, p.half_delta
    if math.isinf(2.0 * g * math.sqrt(n)):
        e = math.frexp(g)[1]
        g, delta = math.ldexp(g, -e), math.ldexp(delta, -e)
    return 0.5 * math.atan(2.0 * g * math.sqrt(n) / delta)
