"""Command-line front end: spectrum and absorption sweeps, eigenstate
reports, and the randomized validation suite.

Exit codes: 0 success, 1 validation failure, 2 config or usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import contextmanager
from typing import Iterable, Iterator

import numpy as np

from . import _floatfmt
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


# Rows are formatted and written one block at a time, so the memory a data
# file takes is one block's, whatever the row count.  No per-row object is
# built, and no whole-text template, flattened cell tuple or growing buffer
# is allocated: freed and reused by the heap, those made a process's peak
# memory differ by tens of MB from one run of the same commands to the next.
# A block holds _BLOCK_CELLS cells, so a file with w columns takes
# _BLOCK_CELLS // w rows at a time (at least one).  The columns of every
# data file are float64 arrays and go through _floatfmt's NumPy repr
# kernel, which needs about 10 words per cell (14 with JSON's literals) and
# pays a fixed cost per call, so the budget is as large as the memory test
# allows: a 60,001-row spectrum CSV peaks at about 0.57 MB while it is
# written, tables included.  The few rows of the eigenstates CSV, of mixed
# types, are joined whole by _csv_text.
_BLOCK_CELLS = 5400


def _row_blocks(pieces: list[str], sep: str, columns: list[np.ndarray]) -> Iterator[str]:
    """The rows of equal-length float64 columns, each cell's ``repr``
    between the literal ``pieces`` (one more than there are columns) and
    the rows separated by ``sep``, one block of up to ``_BLOCK_CELLS``
    cells (whole rows, at least one) at a time."""
    return _floatfmt.row_blocks(pieces, sep, columns, max(1, _BLOCK_CELLS // len(columns)))


def _csv_parts(header: list[str], columns: list[np.ndarray]) -> Iterator[str]:
    """The header line and data rows of a CSV file of float64 columns, in
    parts formatted as they are taken."""
    yield ",".join(header) + "\n"
    yield from _row_blocks([""] + [","] * (len(header) - 1) + ["\n"], "", columns)


def _csv_text(header: list[str], columns: list) -> str:
    """A short CSV text of equal-length columns of any cells, each cell's ``str``."""
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *zip(*columns)])


def _json_parts(payload: dict, header: list[str] | None = None) -> Iterator[str]:
    """The JSON text of ``_json_text``, in parts formatted as they are taken."""
    if header is None:
        yield json.dumps(payload, indent=2) + "\n"
        return
    names = [f"      {json.dumps(name)}: " for name in header]
    pieces = ["    {\n" + names[0]] + [",\n" + name for name in names[1:]] + ["\n    }"]
    yield "{"
    for i, (key, value) in enumerate(payload.items()):
        yield ("," if i else "") + f"\n  {json.dumps(key)}: "
        if key == "data":
            yield "[\n"
            yield from _row_blocks(pieces, ",\n", value)
            yield "\n  ]"
        else:
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
    yield "\n}\n"


def _json_text(payload: dict, header: list[str] | None = None) -> str:
    """``json.dumps(payload, indent=2)`` plus a newline.

    With ``header`` (distinct names), ``payload["data"]`` holds nonempty
    equal-length float64 columns and is written as the row objects
    ``dict(zip(header, row))`` would be: keys through ``json.dumps``, values
    through ``float.__repr__``, as the encoder writes them.  The values
    must be finite.
    """
    return "".join(_json_parts(payload, header))


def _discard(path: str) -> None:
    # Best effort: a failed cleanup must not hide the error that caused it.
    try:
        os.remove(path)
    except OSError:
        pass


@contextmanager
def _replacing():
    """Yield a list for ``_write_parts(..., staged=)``; at the end of the
    block move each staged temp file over its target, or on any error
    delete every temp file not yet moved."""
    staged: list[tuple[str, str]] = []
    try:
        yield staged
        while staged:
            os.replace(*staged[0])
            del staged[0]
    finally:
        for temp, _ in staged:
            _discard(temp)


def _stage(path: str, parts: Iterable[str], staged: list[tuple[str, str]]) -> None:
    """Write ``parts``, one after the other as they are produced, to a new
    temp file beside the file ``path`` names and add ``(temp, target)`` to
    ``staged``.

    A symlink's target is replaced, not the link.  Where a rename would not
    do what writing ``path`` does, ``path`` is written in place instead: a
    device, FIFO or other non-regular file, a file with more than one hard
    link, or a file whose temp file cannot be created (a read-only
    directory, or that name already taken).  A file written in place holds
    the parts written so far if producing or writing a later part fails.
    """
    try:
        info = os.stat(path)
    except FileNotFoundError:
        info = None
    if info is None or (stat.S_ISREG(info.st_mode) and info.st_nlink == 1):
        # Only a regular file's path is resolved: /proc's fd links to a pipe
        # or socket resolve to names that do not exist.
        target = os.path.realpath(path)
        temp = f"{target}.{os.getpid()}.tmp"
        try:
            handle = open(temp, "x", encoding="utf-8", newline="\n")
        except (PermissionError, FileExistsError):
            pass
        else:
            staged.append((temp, target))
            with handle:
                if info is not None:
                    os.chmod(temp, stat.S_IMODE(info.st_mode))
                handle.writelines(parts)
            return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(parts)


def _write_parts(path: str | None, parts: Iterable[str], *, staged: list | None = None) -> None:
    """Write the concatenation of ``parts`` to ``path``, or to stdout when
    ``path`` is None, taking each part only once the one before is written.

    ``path`` holds either its old content or all of the new, unless it is
    written in place (see ``_stage``).  With ``staged`` from ``_replacing``,
    the file is replaced only at the end of that block, together with the
    others staged there.
    """
    if path is None:
        sys.stdout.writelines(parts)
    elif staged is not None:
        _stage(path, parts, staged)
    else:
        with _replacing() as staged:
            _stage(path, parts, staged)


def _write_text(path: str | None, text: str, *, staged: list | None = None) -> None:
    """Write ``text`` to ``path``, or to stdout when ``path`` is None, as
    ``_write_parts`` writes the one part ``text``: a file written in place
    may hold a prefix of ``text`` if the write fails."""
    _write_parts(path, (text,), staged=staged)


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
    with np.errstate(all="ignore"):  # overflow is reported by _require_finite below
        sweep = sweep_spectrum(cfg.params, grid)
        summary = {}
        for epsilon, name in ((+1, "epsilon=+1"), (-1, "epsilon=-1")):
            delta_at_min, gap = min_gap(sweep, epsilon)
            summary[name] = {"delta_at_min_gap": delta_at_min, "min_gap": gap}
    columns = [sweep.deltas] + [sweep.branch(label) for label in BRANCHES]
    _require_finite(
        "spectrum",
        *columns,
        [value for entry in summary.values() for value in entry.values()],
    )

    header = ["delta"] + [f"omega_{label.key}" for label in BRANCHES]
    if args.format == "csv":
        _write_parts(args.out, _csv_parts(header, columns))
    else:
        payload = {"config": config_dict(cfg), "data": columns, "summary": summary}
        _write_parts(args.out, _json_parts(payload, header))
    return 0


def cmd_absorption(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if cfg.damping is None:
        raise ConfigError("damping rates (at least gamma_a) are required for 'absorption'")
    grid = _require_sweep(cfg, "absorption")
    if args.format == "csv":
        try:
            regular = stat.S_ISREG(os.stat(args.out).st_mode)
        except OSError:  # a new file, or one the write below reports on
            regular = True
        if not regular:
            raise ConfigError(
                f"--out {args.out} is not a regular file, so an 'absorption' CSV "
                "has no place for its .summary.json; use --format json"
            )
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
    columns = [curve.omega_p, curve.re_chi, curve.im_chi]
    if args.format == "csv":
        # The data file and its summary are replaced only once both are written.
        with _replacing() as staged:
            _write_parts(args.out, _csv_parts(header, columns), staged=staged)
            _write_text(args.out + ".summary.json", _json_text(summary), staged=staged)
    else:
        payload = {"config": config_dict(cfg), "data": columns, "summary": summary}
        _write_parts(args.out, _json_parts(payload, header))
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
        deviations = [
            summary[f"epsilon={'+' if record['epsilon'] > 0 else '-'}1"]["entanglement_deviation"]
            for record in records
        ]
        columns = [
            deviations if name == "deviation" else [record[name] for record in records]
            for name in header
        ]
        _write_text(args.out, _csv_text(header, columns))
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
    except OverflowError as exc:
        print(f"error: overflow: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
