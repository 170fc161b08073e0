"""The three benchmark workloads: seeded inputs, operations and output checks.

* ``dense_sweep`` - the CLI sweep path.  Each operation is one command at
  200,001 grid points, cycling through ``spectrum`` CSV, ``absorption`` CSV
  with shared damping (two bright peaks) and ``absorption`` JSON with
  per-cell damping (four peaks).  Loads the spectrum, susceptibility and
  cli format/write layers and makes no ``eig_sym`` call, so a Jacobi change
  should move nothing here.
* ``oracle_validate`` - ``jcpair validate --trials 1000`` over eight
  consecutive seeds.  About 1,281 Jacobi solves per operation, ~94% of them
  4x4; its output is one short text block, so an output-layer or sweep
  change should move nothing here.
* ``sector_ladder`` - enumerate, build and solve the sectors nu = 1..12
  (n = 4..48) for fresh parameters each operation: a few large solves, the
  case where a kernel batched for many small solves can lose.

An item is a grid point emitted, a validation trial, or a sector solved.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import reference

DEFAULT_SEED = 1
VALIDATE_SEEDS = 8


@dataclass
class Op:
    kind: str  # timings are aggregated per kind
    key: str  # names the operation's inputs in the golden hash table
    request: dict  # what the worker runs
    items: int
    check: Callable[[dict], list]  # worker reply -> list of problems
    outputs: list = field(default_factory=list)  # files the operation emits


@dataclass
class Workload:
    name: str
    config: str  # the config a user's run would load; timed by setup_s
    cycle: int  # operations per cycle; runs stop on a cycle boundary
    distinct: int  # operations before inputs repeat (0: never repeat)
    op: Callable[[int], Op]  # the i-th operation of a run


def _key(workload: str, small: bool, name: str) -> str:
    return f"{'small' if small else 'full'}/{workload}/{name}"


def _write_config(path: Path, values: dict) -> str:
    lines = [f"{key} = {value!r}" for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _full_params(values: dict) -> dict:
    """Config values with every default made explicit, as the checks need them."""
    p = {"omega_c": 0.0, "g": 1.0, "kappa": 0.0, **values}
    p.setdefault("omega_a", p["omega_c"])
    for cell, shared in (("gamma", "gamma"), ("gammac", "gamma_c")):
        if shared in p:
            p[cell + "1"] = p[cell + "2"] = p[shared]
    return p


def _centers(p: dict) -> np.ndarray:
    delta = p["omega_a"] - p["omega_c"]
    return np.sort(reference.energies(p["omega_c"], p["g"], p["kappa"], delta)[0])


def _absorption_inputs(rng: random.Random, count: int) -> tuple[dict, dict]:
    """Shared-damping and per-cell-damping configs whose peaks are resolved.

    Redraws until the reference curve on the grid has exactly two (shared)
    and four (per-cell) peaks and the four line centers are at least twenty
    linewidths apart, so every seed gives inputs on which peak detection is
    well defined.
    """
    for _ in range(1000):
        g = rng.uniform(0.5, 2.0)
        kappa = rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 3.0) * g
        omega_c = rng.uniform(-1.0, 1.0)
        gamma_a = rng.uniform(0.02, 0.06) * g
        shared_delta = kappa + rng.uniform(-1.5, 1.5) * g
        shared = {
            "omega_c": omega_c, "omega_a": omega_c + shared_delta, "g": g, "kappa": kappa,
            "gamma": rng.uniform(0.01, 0.05) * g, "gamma_c": rng.uniform(0.01, 0.05) * g,
            "gamma_a": gamma_a,
        }
        cells_delta = rng.uniform(-1.5, 1.5) * g
        cells = {
            "omega_c": omega_c, "omega_a": omega_c + cells_delta, "g": g, "kappa": kappa,
            "gamma1": rng.uniform(0.002, 0.01) * g, "gamma2": rng.uniform(0.03, 0.06) * g,
            "gammac1": rng.uniform(0.002, 0.01) * g, "gammac2": rng.uniform(0.03, 0.06) * g,
            "gamma_a": gamma_a,
        }
        ok = True
        for values, peaks in ((shared, 2), (cells, 4)):
            span = abs(values["omega_a"] - omega_c) + abs(kappa) + 2.0 * g
            values.update(sweep_start=omega_c - span, sweep_stop=omega_c + span, sweep_count=count)
            p = _full_params(values)
            chi, _ = reference.susceptibility(p, np.linspace(p["sweep_start"], p["sweep_stop"], count))
            ok = ok and reference.count_peaks(chi.imag) == peaks
            ok = ok and float(np.min(np.diff(_centers(p)))) >= 20.0 * gamma_a
        if ok:
            return shared, cells
    raise RuntimeError("no resolvable absorption inputs drawn")


def dense_sweep(seed: int, work: Path, small: bool) -> Workload:
    count = 2001 if small else 200001
    rng = random.Random(f"dense_sweep:{seed}")
    shared, cells = _absorption_inputs(rng, count)
    span = abs(shared["kappa"]) + 5.0 * shared["g"]
    spectrum = {
        "omega_c": shared["omega_c"], "g": shared["g"], "kappa": shared["kappa"],
        "sweep_start": -span, "sweep_stop": span, "sweep_count": count,
    }
    commands = []
    for label, command, values, fmt, out, check in (
        ("spectrum_csv", "spectrum", spectrum, "csv", "spectrum.csv",
         reference.check_spectrum_csv),
        ("absorption_csv", "absorption", shared, "csv", "absorption.csv",
         partial(reference.check_absorption_csv, expected_peaks=2)),
        ("absorption_json", "absorption", cells, "json", "absorption.json",
         partial(reference.check_absorption_json, expected_peaks=4)),
    ):
        config = _write_config(work / f"{label}.cfg", values)
        out_path = str(work / out)
        outputs = [out_path] + ([out_path + ".summary.json"] if label == "absorption_csv" else [])
        argv = [command, "--config", config, "--out", out_path, "--format", fmt]
        commands.append(Op(
            label, _key("dense_sweep", small, label), {"kind": "cli", "argv": argv}, count,
            lambda reply, c=check, o=out_path, p=_full_params(values): c(o, p), outputs,
        ))
    # Set-up loads the config with the most keys, the per-cell absorption one.
    return Workload("dense_sweep", config, 3, 3, lambda i: commands[i % 3])


def _check_validate_text(path: str, seed: int, trials: int) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    suites = lines[1:-1]
    expected = [f"jcpair validation: seed={seed} trials={trials}",
                f"result: all {len(suites)} suites passed"]
    if not suites or [lines[0], lines[-1]] != expected:
        return [f"{path}: unexpected header or result line"]
    failing = [line for line in suites if not line.startswith("PASS ")]
    return [f"{path}: {line}" for line in failing]


def oracle_validate(seed: int, work: Path, small: bool) -> Workload:
    trials = 100 if small else 1000
    # validate reads no config; set-up times loading a small parameter file.
    config = _write_config(work / "validate.cfg", {"omega_a": 1.0, "g": 1.0, "kappa": 1.0})
    out = str(work / "validate.txt")

    def make_op(i: int) -> Op:
        s = 1000 * seed + i % VALIDATE_SEEDS
        argv = ["validate", "--seed", str(s), "--trials", str(trials), "--out", out]
        return Op("validate", _key("oracle_validate", small, f"validate_seed={s}"),
                  {"kind": "cli", "argv": argv}, trials,
                  lambda reply: _check_validate_text(out, s, trials), [out])

    return Workload("oracle_validate", config, 1, VALIDATE_SEEDS, make_op)


def sector_ladder(seed: int, work: Path, small: bool) -> Workload:
    nu_max = 6 if small else 12

    def params(i: int) -> dict:
        rng = random.Random(f"sector_ladder:{seed}:{i}")
        g = rng.uniform(0.5, 2.0)
        omega_c = rng.uniform(-2.0, 2.0)
        return {"omega_c": omega_c, "omega_a": omega_c + rng.uniform(-3.0, 3.0) * g,
                "g": g, "kappa": rng.uniform(-3.0, 3.0) * g}

    config = _write_config(work / "ladder.cfg", params(0))

    def make_op(i: int) -> Op:
        p = params(i)
        request = {"kind": "ladder", "params": p, "nu_max": nu_max}
        return Op("ladder", _key("sector_ladder", small, "ladder"), request, nu_max,
                  lambda reply: reference.check_ladder(reply["values"] or [], p, nu_max))

    return Workload("sector_ladder", config, 1, 0, make_op)


WORKLOADS = {
    "dense_sweep": dense_sweep,
    "oracle_validate": oracle_validate,
    "sector_ladder": sector_ladder,
}


def file_hashes(paths: list) -> dict:
    hashes = {}
    for path in paths:
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        hashes[os.path.basename(path)] = digest.hexdigest()
    return hashes


def remove_outputs(op: Op) -> None:
    for path in op.outputs:
        if os.path.exists(path):
            os.remove(path)

