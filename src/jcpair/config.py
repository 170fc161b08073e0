"""Flat key = value run configuration for the command-line tools.

Recognized keys: omega_c, omega_a, g, kappa, gamma, gamma_c, gamma1,
gamma2, gammac1, gammac2, gamma_a, sweep_start, sweep_stop, sweep_count.
Lines starting with ``#`` (or trailing ``#`` fragments) are comments.
``gamma`` is shorthand for equal per-cell atomic rates and may not be
combined with gamma1/gamma2 (same for gamma_c vs gammac1/gammac2).
Omitted omega_c defaults to 0 and omitted g to 1, so rates read as ratios
to the coupling; omitted omega_a defaults to omega_c (zero detuning).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import DampingParams, SystemParams

__all__ = ["ConfigError", "SweepSpec", "RunConfig", "parse_config", "load_config", "dump_config", "config_dict"]

_PARAM_KEYS = ("omega_c", "omega_a", "g", "kappa")
_DAMPING_KEYS = ("gamma", "gamma_c", "gamma1", "gamma2", "gammac1", "gammac2", "gamma_a")
_SWEEP_KEYS = ("sweep_start", "sweep_stop", "sweep_count")
_ALL_KEYS = _PARAM_KEYS + _DAMPING_KEYS + _SWEEP_KEYS


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class SweepSpec:
    """Uniform grid with count points from start to stop inclusive."""

    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        for key, value in (("sweep_start", self.start), ("sweep_stop", self.stop)):
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if not math.isfinite(self.stop - self.start):
            raise ConfigError(
                f"sweep_stop - sweep_start overflows: {self.stop} - {self.start}"
            )
        if self.count < 2:
            raise ConfigError(f"sweep_count must be >= 2, got {self.count}")
        if not self.start < self.stop:
            raise ConfigError(
                f"sweep_start must be < sweep_stop, got {self.start} >= {self.stop}"
            )


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration; damping and sweep sections are optional."""

    params: SystemParams
    damping: DampingParams | None
    sweep: SweepSpec | None


def _parse_lines(text: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown config key: {key}")
        if key in raw:
            raise ConfigError(f"duplicate config key: {key}")
        raw[key] = value
    return raw


def _as_float(raw: dict[str, str], key: str) -> float:
    try:
        return float(raw[key])
    except ValueError:
        raise ConfigError(f"invalid number for {key}: {raw[key]!r}") from None


def _require_together(raw: dict[str, str], keys: tuple[str, ...]) -> bool:
    present = [key for key in keys if key in raw]
    if not present:
        return False
    if len(present) != len(keys):
        missing = sorted(set(keys) - set(present))
        raise ConfigError(f"{present[0]} given but {missing[0]} missing")
    return True


def parse_config(text: str) -> RunConfig:
    """Parse configuration text; raises ConfigError naming the offending key."""
    raw = _parse_lines(text)

    omega_c = _as_float(raw, "omega_c") if "omega_c" in raw else 0.0
    omega_a = _as_float(raw, "omega_a") if "omega_a" in raw else omega_c
    g = _as_float(raw, "g") if "g" in raw else 1.0
    kappa = _as_float(raw, "kappa") if "kappa" in raw else 0.0
    if g < 0:
        raise ConfigError(f"g must be >= 0, got {g}")
    params = SystemParams(omega_c=omega_c, omega_a=omega_a, g=g, kappa=kappa)

    if "gamma" in raw and ("gamma1" in raw or "gamma2" in raw):
        raise ConfigError("gamma conflicts with gamma1/gamma2: give one form only")
    if "gamma_c" in raw and ("gammac1" in raw or "gammac2" in raw):
        raise ConfigError("gamma_c conflicts with gammac1/gammac2: give one form only")

    def _rate(key: str) -> float:
        value = _as_float(raw, key)
        if value < 0:
            raise ConfigError(f"{key} must be >= 0, got {value}")
        return value

    damping = None
    if any(key in raw for key in _DAMPING_KEYS):
        if "gamma" in raw:
            gamma1 = gamma2 = _rate("gamma")
        elif _require_together(raw, ("gamma1", "gamma2")):
            gamma1, gamma2 = _rate("gamma1"), _rate("gamma2")
        else:
            gamma1 = gamma2 = 0.0
        if "gamma_c" in raw:
            gammac1 = gammac2 = _rate("gamma_c")
        elif _require_together(raw, ("gammac1", "gammac2")):
            gammac1, gammac2 = _rate("gammac1"), _rate("gammac2")
        else:
            gammac1 = gammac2 = 0.0
        if "gamma_a" not in raw:
            raise ConfigError("damping rates given but gamma_a missing")
        gamma_a = _as_float(raw, "gamma_a")
        if gamma_a <= 0:
            raise ConfigError(f"gamma_a must be > 0, got {gamma_a}")
        damping = DampingParams(gamma1, gamma2, gammac1, gammac2, gamma_a)

    sweep = None
    if _require_together(raw, _SWEEP_KEYS):
        count_value = _as_float(raw, "sweep_count")
        if not count_value.is_integer():
            raise ConfigError(f"sweep_count must be an integer, got {raw['sweep_count']!r}")
        sweep = SweepSpec(
            start=_as_float(raw, "sweep_start"),
            stop=_as_float(raw, "sweep_stop"),
            count=int(count_value),
        )

    return RunConfig(params=params, damping=damping, sweep=sweep)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def dump_config(config: RunConfig) -> str:
    """Serialize a RunConfig; parsing the result reproduces it exactly.

    Floats are written in shortest round-trip decimal form and damping is
    always emitted through the per-cell keys.
    """
    lines = [
        f"omega_c = {config.params.omega_c!r}",
        f"omega_a = {config.params.omega_a!r}",
        f"g = {config.params.g!r}",
        f"kappa = {config.params.kappa!r}",
    ]
    if config.damping is not None:
        d = config.damping
        lines += [
            f"gamma1 = {d.gamma1!r}",
            f"gamma2 = {d.gamma2!r}",
            f"gammac1 = {d.gammac1!r}",
            f"gammac2 = {d.gammac2!r}",
            f"gamma_a = {d.gamma_a!r}",
        ]
    if config.sweep is not None:
        lines += [
            f"sweep_start = {config.sweep.start!r}",
            f"sweep_stop = {config.sweep.stop!r}",
            f"sweep_count = {config.sweep.count}",
        ]
    return "\n".join(lines) + "\n"


def config_dict(config: RunConfig) -> dict:
    """JSON-ready view of a RunConfig (used in emitted "config" blocks)."""
    out: dict = {
        "omega_c": config.params.omega_c,
        "omega_a": config.params.omega_a,
        "g": config.params.g,
        "kappa": config.params.kappa,
    }
    if config.damping is not None:
        d = config.damping
        out.update(
            gamma1=d.gamma1,
            gamma2=d.gamma2,
            gammac1=d.gammac1,
            gammac2=d.gammac2,
            gamma_a=d.gamma_a,
        )
    if config.sweep is not None:
        out.update(
            sweep_start=config.sweep.start,
            sweep_stop=config.sweep.stop,
            sweep_count=config.sweep.count,
        )
    return out
