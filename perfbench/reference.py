"""Independent NumPy evaluation of the paper's closed forms, and output checks.

Nothing here imports ``jcpair``: the benchmark checks the package's emitted
files against formulas written out again from the paper.

* One-excitation energies, for ``x = delta + eps*kappa``:
  ``omega_c - x/2 +/- sqrt(g^2 + x^2/4)``.
* Eigenstate amplitudes of sector ``eps`` at ``r = x / (2g)``: the branch-b
  state is ``(w, u)`` with ``u : w = (-r + b*sqrt(1+r^2)) : 1`` and
  ``2u^2 + 2w^2 = 1``.
* Probe weight of state (eps, b):
  ``(sqrt(g1) - eps*sqrt(g2))^2 w^2 + (sqrt(gc1) - eps*sqrt(gc2))^2 u^2``;
  ``chi(omega_p) = sum Gamma / (omega(eps, b) - omega_p - i*gamma_a)``.
* Sector blocks of the full Hamiltonian (``sector_matrix``), whose
  eigenvalues ``numpy.linalg.eigvalsh`` gives independently of the package.

Values are compared at 1e-12 relative to the magnitude of the terms each
value is summed from, the scale that rounding error is proportional to.
"""

from __future__ import annotations

import json
import math

import numpy as np

REL_TOL = 1e-12
LADDER_REL_TOL = 1e-12
SPECTRUM_HEADER = "delta,omega_pp,omega_pm,omega_mp,omega_mm"
ABSORPTION_HEADER = "omega_p,re_chi,im_chi"


def energies(omega_c: float, g: float, kappa: float, delta):
    """Energies in column order (pp, pm, mp, mm) and their rounding scales."""
    delta = np.asarray(delta, dtype=float)
    columns, scales = [], []
    for eps in (+1, -1):
        x = delta + eps * kappa
        root = np.sqrt(g * g + 0.25 * x * x)
        for branch in (+1, -1):
            columns.append(omega_c - 0.5 * x + branch * root)
            scales.append(abs(omega_c) + 0.5 * np.abs(x) + root)
    return np.stack(columns, axis=-1), np.stack(scales, axis=-1)


def _amplitudes(r: float, branch: int) -> tuple[float, float]:
    s = math.hypot(1.0, r)
    if branch * r > 0:
        q = branch / (s + abs(r))  # -r + branch*s without cancellation
    else:
        q = -r + branch * s
    d = math.sqrt(2.0 * (1.0 + q * q))
    return q / d, 1.0 / d


def susceptibility(p: dict, grid: np.ndarray):
    """Complex chi on ``grid`` and its rounding scale; ``p`` holds config keys."""
    delta = p["omega_a"] - p["omega_c"]
    centers = energies(p["omega_c"], p["g"], p["kappa"], delta)[0]
    chi = np.zeros(grid.size, dtype=complex)
    scale = np.zeros(grid.size)
    k = 0
    for eps in (+1, -1):
        r = (delta + eps * p["kappa"]) / (2.0 * p["g"])
        atom = (math.sqrt(p["gamma1"]) - eps * math.sqrt(p["gamma2"])) ** 2
        field = (math.sqrt(p["gammac1"]) - eps * math.sqrt(p["gammac2"])) ** 2
        for branch in (+1, -1):
            u, w = _amplitudes(r, branch)
            rate = atom * w * w + field * u * u
            if rate != 0.0:
                denominator = centers[k] - grid - 1j * p["gamma_a"]
                chi += rate / denominator
                scale += rate / np.abs(denominator)
            k += 1
    return chi, scale


def count_peaks(y: np.ndarray) -> int:
    """Number of strict interior local maxima."""
    return int(np.count_nonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])))


def _compare(problems: list, name: str, got: np.ndarray, want: np.ndarray, scale) -> None:
    if not np.all(np.isfinite(got)):
        problems.append(f"{name}: non-finite values")
        return
    err = np.abs(got - want) / np.maximum(scale, np.finfo(float).tiny)
    worst = float(np.max(err))
    if worst > REL_TOL:
        problems.append(f"{name}: relative error {worst:.3e} > {REL_TOL:g}")


def _grid(p: dict) -> np.ndarray:
    return np.linspace(p["sweep_start"], p["sweep_stop"], p["sweep_count"])


def _read_csv(path: str, header: str, count: int, problems: list):
    with open(path, encoding="utf-8") as handle:
        first = handle.readline().rstrip("\n")
        if first != header:
            problems.append(f"{path}: header {first!r}, expected {header!r}")
            return None
        table = np.loadtxt(handle, delimiter=",", ndmin=2)
    if table.shape != (count, header.count(",") + 1):
        problems.append(f"{path}: table shape {table.shape}, expected {count} rows")
        return None
    return table


def check_spectrum_csv(path: str, p: dict) -> list[str]:
    problems: list[str] = []
    table = _read_csv(path, SPECTRUM_HEADER, p["sweep_count"], problems)
    if table is None:
        return problems
    grid = _grid(p)
    _compare(problems, "delta", table[:, 0], grid, np.abs(grid).max())
    want, scale = energies(p["omega_c"], p["g"], p["kappa"], grid)
    _compare(problems, "energies", table[:, 1:], want, scale)
    return problems


def _check_absorption(table: np.ndarray, p: dict, problems: list) -> None:
    grid = _grid(p)
    _compare(problems, "omega_p", table[:, 0], grid, np.abs(grid).max())
    chi, scale = susceptibility(p, grid)
    _compare(problems, "re_chi", table[:, 1], chi.real, scale)
    _compare(problems, "im_chi", table[:, 2], chi.imag, scale)


def _check_summary(summary: dict, expected_peaks: int, problems: list) -> None:
    peaks = summary.get("peaks", [])
    if summary.get("n_peaks") != expected_peaks or len(peaks) != expected_peaks:
        problems.append(f"summary: {summary.get('n_peaks')} peaks, expected {expected_peaks}")
        return
    values = [v for peak in peaks for v in (peak["position"], peak["height"])]
    metric = summary.get("symmetry_metric")
    if not all(math.isfinite(v) for v in values) or not (0.0 <= metric <= 1.0):
        problems.append("summary: non-finite peak or symmetry metric out of [0, 1]")
    if expected_peaks > 2 and "height_imbalance_all_peaks" not in summary:
        problems.append("summary: height_imbalance_all_peaks missing")


def check_absorption_csv(path: str, p: dict, expected_peaks: int) -> list[str]:
    problems: list[str] = []
    table = _read_csv(path, ABSORPTION_HEADER, p["sweep_count"], problems)
    if table is not None:
        _check_absorption(table, p, problems)
    with open(path + ".summary.json", encoding="utf-8") as handle:
        _check_summary(json.load(handle), expected_peaks, problems)
    return problems


def check_absorption_json(path: str, p: dict, expected_peaks: int) -> list[str]:
    problems: list[str] = []
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    data = payload.get("data", [])
    if len(data) != p["sweep_count"]:
        return [f"{path}: {len(data)} rows, expected {p['sweep_count']}"]
    keys = ABSORPTION_HEADER.split(",")
    table = np.array([[row[key] for key in keys] for row in data], dtype=float)
    _check_absorption(table, p, problems)
    _check_summary(payload.get("summary", {}), expected_peaks, problems)
    return problems


def sector_matrix(p: dict, nu: int) -> np.ndarray:
    """Hamiltonian block of sector ``nu >= 1``, built from the model's terms.

    States ``|n1 e1 n2 e2>`` (``e = 1`` for an excited atom) with
    ``n1 + n2 + e1 + e2 = nu``, in an order of this module's own.  The
    diagonal is ``omega_c*(n1+n2+1) + omega_a*(e1+e2-1)``; inside each cell
    ``|n, e>`` couples to ``|n+1, g>`` with ``g*sqrt(n+1)``, and a photon
    hopping from cavity 2 to cavity 1 has ``-kappa*sqrt((n1+1)*n2)``.
    """
    states = [(n1, e1, nu - e1 - e2 - n1, e2)
              for e1 in (0, 1) for e2 in (0, 1) for n1 in range(nu - e1 - e2 + 1)]
    index = {state: i for i, state in enumerate(states)}
    h = np.zeros((len(states), len(states)))

    def couple(a: tuple, b: tuple, value: float) -> None:
        h[index[a], index[b]] = h[index[b], index[a]] = value

    for state, i in index.items():
        n1, e1, n2, e2 = state
        h[i, i] = p["omega_c"] * (n1 + n2 + 1) + p["omega_a"] * (e1 + e2 - 1)
        if e1:
            couple(state, (n1 + 1, 0, n2, e2), p["g"] * math.sqrt(n1 + 1))
        if e2:
            couple(state, (n1, e1, n2 + 1, 0), p["g"] * math.sqrt(n2 + 1))
        if n2:
            couple(state, (n1 + 1, e1, n2 - 1, e2), -p["kappa"] * math.sqrt((n1 + 1) * n2))
    return h


def check_ladder(spectra: list, p: dict, nu_max: int) -> list[str]:
    """Each sector's eigenvalues against ``numpy.linalg.eigvalsh`` of its block.

    The error is taken relative to the block's largest eigenvalue magnitude,
    the scale a backward-stable solver's error is proportional to.
    """
    if len(spectra) != nu_max:
        return [f"{len(spectra)} sectors solved, expected {nu_max}"]
    problems: list[str] = []
    for nu, values in enumerate(spectra, start=1):
        values = np.asarray(values, dtype=float)
        n = 4 * nu
        if values.shape != (n,) or not np.all(np.isfinite(values)):
            problems.append(f"nu={nu}: {values.shape} values, expected {n} finite")
            continue
        if np.any(np.diff(values) < 0):
            problems.append(f"nu={nu}: eigenvalues not ascending")
        want = np.linalg.eigvalsh(sector_matrix(p, nu))
        err = float(np.max(np.abs(values - want))) / max(float(np.max(np.abs(want))), 1e-300)
        if not err <= LADDER_REL_TOL:
            problems.append(f"nu={nu}: eigenvalues differ from eigvalsh by {err:.3e} relative")
    if nu_max:
        closed = np.sort(energies(p["omega_c"], p["g"], p["kappa"], p["omega_a"] - p["omega_c"])[0])
        err = float(np.max(np.abs(np.asarray(spectra[0]) - closed)))
        if not err <= 1e-10:
            problems.append(f"nu=1: eigenvalues differ from the closed form by {err:.3e}")
    return problems
