"""Command-line front end: spectrum and absorption sweeps, eigenstate
reports, and the randomized validation suite.

Exit codes: 0 success, 1 validation failure, 2 config or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import validate as validation
from .config import ConfigError, RunConfig, config_dict, load_config
from .eigenstates import amplitudes, branch_detuning, entanglement_deviation
from .spectrum import BRANCHES, min_gap, sweep_spectrum
from .susceptibility import (
    peak_report,
    susceptibility_curve,
    symmetry_metric,
    transition_probabilities,
)

__all__ = ["main", "build_parser"]


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return repr(float(value))


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(value) for value in row))
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _require_sweep(cfg: RunConfig, command: str):
    if cfg.sweep is None:
        raise ConfigError(
            f"sweep_start/sweep_stop/sweep_count are required for '{command}'"
        )
    return np.linspace(cfg.sweep.start, cfg.sweep.stop, cfg.sweep.count)


def _require_finite(what: str, *arrays) -> None:
    """Raise before anything is written if a computed number is inf or nan."""
    for values in arrays:
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{what}: computed values are not finite; nothing written")


def cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    grid = _require_sweep(cfg, "spectrum")
    sweep = sweep_spectrum(cfg.params, grid)
    summary = {}
    for epsilon, name in ((+1, "epsilon=+1"), (-1, "epsilon=-1")):
        delta_at_min, gap = min_gap(sweep, epsilon)
        summary[name] = {"delta_at_min_gap": delta_at_min, "min_gap": gap}
    _require_finite(
        "spectrum",
        sweep.deltas,
        *(sweep.branch(label) for label in BRANCHES),
        [value for entry in summary.values() for value in entry.values()],
    )

    header = ["delta"] + [f"omega_{label.key}" for label in BRANCHES]
    rows = []
    for i in range(len(sweep)):
        rows.append(
            [float(sweep.deltas[i])]
            + [float(sweep.branch(label)[i]) for label in BRANCHES]
        )

    if args.format == "csv":
        _write_text(args.out, _csv_text(header, rows))
    else:
        data = [dict(zip(header, row)) for row in rows]
        payload = {"config": config_dict(cfg), "data": data, "summary": summary}
        _write_text(args.out, _json_text(payload))
    return 0


def cmd_absorption(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if cfg.damping is None:
        raise ConfigError("damping rates (at least gamma_a) are required for 'absorption'")
    grid = _require_sweep(cfg, "absorption")
    with np.errstate(all="ignore"):  # overflow is reported by _require_finite below
        curve = susceptibility_curve(cfg.params, cfg.damping, grid)
    _require_finite("absorption", curve.omega_p, curve.chi)

    peaks = peak_report(curve)
    metric = symmetry_metric(curve) if len(peaks) >= 2 else None
    summary = {
        "n_peaks": len(peaks),
        "peaks": [{"position": pos, "height": height} for pos, height in peaks],
        "symmetry_metric": metric,
    }
    if len(peaks) > 2:
        summary["height_imbalance_all_peaks"] = symmetry_metric(curve, n_peaks=len(peaks))
    _require_finite(
        "absorption summary",
        [value for key, value in summary.items() if key != "peaks" and value is not None],
    )
    header = ["omega_p", "re_chi", "im_chi"]
    rows = [
        [float(curve.omega_p[i]), float(curve.re_chi[i]), float(curve.im_chi[i])]
        for i in range(len(curve))
    ]

    if args.format == "csv":
        _write_text(args.out, _csv_text(header, rows))
        _write_text(args.out + ".summary.json", _json_text(summary))
    else:
        data = [dict(zip(header, row)) for row in rows]
        payload = {"config": config_dict(cfg), "data": data, "summary": summary}
        _write_text(args.out, _json_text(payload))
    return 0


def _eigenstate_records(cfg: RunConfig) -> tuple[list[dict], dict]:
    p = cfg.params
    if p.g == 0:
        raise ConfigError("g must be > 0 for 'eigenstates'")
    records = []
    summary: dict = {}
    for epsilon in (+1, -1):
        r = branch_detuning(p, epsilon)
        amps = amplitudes(r, epsilon)
        deviation = entanglement_deviation(amps)
        if cfg.damping is not None:
            gamma_plus, gamma_minus = transition_probabilities(amps, cfg.damping, epsilon)
            rates = {+1: gamma_plus, -1: gamma_minus}
        else:
            # Without rate input classify by the symmetric-probe selection
            # rule: the epsilon = +1 pair carries the (1 - eps) = 0 factor.
            rates = {+1: None, -1: None}
        for branch in (+1, -1):
            u, w = amps.branch(branch)
            rate = rates[branch]
            if rate is None:
                dark = epsilon == +1
            else:
                dark = rate == 0.0
            record = {
                "epsilon": epsilon,
                "branch": branch,
                "r": r,
                "u": u,
                "w": w,
                "weight_u2": u * u,
                "weight_w2": w * w,
                "classification": "dark" if dark else "bright",
            }
            if rate is not None:
                record["gamma_total"] = rate
            records.append(record)
        summary[f"epsilon={'+' if epsilon > 0 else '-'}1"] = {
            "r": r,
            "entanglement_deviation": deviation,
            "maximally_entangled": deviation <= 1e-12,
        }
    return records, summary


def cmd_eigenstates(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    records, summary = _eigenstate_records(cfg)
    p = cfg.params

    if args.format == "json":
        payload = {"config": config_dict(cfg), "data": records, "summary": summary}
        _write_text(args.out, _json_text(payload))
        return 0
    if args.format == "csv":
        header = ["epsilon", "branch", "r", "u", "w", "deviation", "classification"]
        rows = []
        for record in records:
            key = f"epsilon={'+' if record['epsilon'] > 0 else '-'}1"
            rows.append(
                [
                    record["epsilon"],
                    record["branch"],
                    record["r"],
                    record["u"],
                    record["w"],
                    summary[key]["entanglement_deviation"],
                    record["classification"],
                ]
            )
        _write_text(args.out, _csv_text(header, rows))
        return 0

    lines = [
        f"eigenstates: omega_c={p.omega_c!r} omega_a={p.omega_a!r} "
        f"g={p.g!r} kappa={p.kappa!r} (delta={p.delta!r})"
    ]
    for epsilon in (+1, -1):
        key = f"epsilon={'+' if epsilon > 0 else '-'}1"
        info = summary[key]
        flag = "yes" if info["maximally_entangled"] else "no"
        lines.append(
            f"{key}: r={info['r']!r} entanglement_deviation="
            f"{info['entanglement_deviation']!r} maximally_entangled={flag}"
        )
        for record in records:
            if record["epsilon"] != epsilon:
                continue
            branch = "+" if record["branch"] > 0 else "-"
            extra = (
                f" gamma_total={record['gamma_total']!r}"
                if "gamma_total" in record
                else ""
            )
            lines.append(
                f"  branch={branch}: u={record['u']!r} w={record['w']!r} "
                f"|u|^2={record['weight_u2']!r} |w|^2={record['weight_w2']!r} "
                f"[{record['classification']}]{extra}"
            )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    results = validation.run_all(args.seed, args.trials)
    _write_text(args.out, validation.summary_text(results, args.seed, args.trials))
    return 0 if validation.all_passed(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcpair",
        description=(
            "Spectrum, entangled eigenstates and probe susceptibility of two "
            "coupled Jaynes-Cummings cells."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spectrum_cmd = sub.add_parser(
        "spectrum", help="one-excitation energies over a detuning sweep"
    )
    spectrum_cmd.add_argument("--config", required=True, help="key = value config file")
    spectrum_cmd.add_argument("--out", required=True, help="output file path")
    spectrum_cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    spectrum_cmd.set_defaults(func=cmd_spectrum)

    absorption_cmd = sub.add_parser(
        "absorption", help="complex susceptibility over a probe-frequency sweep"
    )
    absorption_cmd.add_argument("--config", required=True, help="key = value config file")
    absorption_cmd.add_argument("--out", required=True, help="output file path")
    absorption_cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    absorption_cmd.set_defaults(func=cmd_absorption)

    eigenstates_cmd = sub.add_parser(
        "eigenstates", help="amplitudes, entanglement deviation and dark/bright flags"
    )
    eigenstates_cmd.add_argument("--config", required=True, help="key = value config file")
    eigenstates_cmd.add_argument("--out", default=None, help="output path (default stdout)")
    eigenstates_cmd.add_argument("--format", choices=("text", "csv", "json"), default="text")
    eigenstates_cmd.set_defaults(func=cmd_eigenstates)

    validate_cmd = sub.add_parser(
        "validate", help="run the seeded oracle/invariant suites"
    )
    validate_cmd.add_argument("--seed", type=int, default=1)
    validate_cmd.add_argument("--trials", type=int, default=1000)
    validate_cmd.add_argument("--out", default=None, help="output path (default stdout)")
    validate_cmd.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
