"""Seeded randomized validation: every closed form against the numeric oracle.

Each suite draws random parameters from a deterministic generator, checks
one family of identities at its contractual tolerance, and reports its
worst residual.  ``run_all`` is reproducible: identical (seed, trials)
give identical results, and the text summary is byte-stable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import eigenstates, model, sectors, spectrum, susceptibility
from .linalg import SymMatrix, eig_sym, eig_sym_many
from .model import DampingParams, SystemParams
from .spectrum import BRANCHES, BranchLabel

__all__ = ["SuiteResult", "run_all", "summary_text", "all_passed"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    residual: float
    tol: float


class _Checks:
    """Collects (residual, tol) pairs and reduces them to one SuiteResult."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.worst_residual = 0.0
        self.worst_tol = math.inf
        self.passed = True

    def add(self, residual: float, tol: float) -> None:
        ok = residual <= tol
        ratio = residual / tol if tol > 0 else (0.0 if residual == 0.0 else math.inf)
        worst_ratio = (
            self.worst_residual / self.worst_tol
            if self.worst_tol > 0
            else (0.0 if self.worst_residual == 0.0 else math.inf)
        )
        if ratio >= worst_ratio:
            self.worst_residual = residual
            self.worst_tol = tol
        if not ok:
            self.passed = False

    def require(self, condition: bool) -> None:
        self.add(0.0 if condition else 1.0, 0.0)

    def result(self) -> SuiteResult:
        tol = 0.0 if math.isinf(self.worst_tol) else self.worst_tol
        return SuiteResult(self.name, self.passed, self.worst_residual, tol)


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _draw_params(rng: random.Random, g_min: float = 0.1) -> SystemParams:
    g = rng.uniform(g_min, 10.0)
    delta = rng.uniform(-10.0 * g, 10.0 * g)
    kappa = rng.uniform(-10.0 * g, 10.0 * g)
    omega_c = rng.uniform(-10.0, 10.0)
    return SystemParams(omega_c=omega_c, omega_a=omega_c + delta, g=g, kappa=kappa)


def _stack(blocks) -> np.ndarray:
    """The (B, n, n) stack of sector blocks, for one batched ``eig_sym``."""
    return np.stack([block.matrix.to_array() for block in blocks])


def _suite_closed_form_vs_oracle(seed: int, trials: int) -> SuiteResult:
    checks = _Checks("closed_form_vs_oracle")
    rng = _rng(seed, "closed_form")
    basis = sectors.enumerate_sector(1)
    draws = [_draw_params(rng) for _ in range(trials)]
    numeric = eig_sym(_stack(sectors.build_hamiltonian(p, basis) for p in draws)).values
    for p, values in zip(draws, numeric):
        closed = np.sort(list(spectrum.one_excitation_energies(p).values()))
        checks.add(float(np.max(np.abs(closed - values))), 1e-10)
    return checks.result()


def _suite_eigenstate_residuals(seed: int, trials: int) -> SuiteResult:
    checks = _Checks("eigenstate_residuals")
    rng = _rng(seed, "eigenstates")
    basis = sectors.enumerate_sector(1)
    for _ in range(max(1, trials // 10)):
        p = _draw_params(rng)
        h = sectors.build_hamiltonian(p, basis).matrix.to_array()
        energies = spectrum.one_excitation_energies(p)
        vectors = []
        for label in BRANCHES:
            v = eigenstates.eigenstate_vector(p, label.epsilon, label.branch)
            checks.add(float(np.max(np.abs(h @ v - energies[label] * v))), 1e-10)
            vectors.append(v)
        gram = np.array(vectors) @ np.array(vectors).T
        checks.add(float(np.max(np.abs(gram - np.eye(4)))), 1e-10)
    return checks.result()


def _suite_decoupled_limit(seed: int, trials: int) -> SuiteResult:
    checks = _Checks("decoupled_limit")
    rng = _rng(seed, "decoupled")
    for _ in range(max(1, trials // 10)):
        base = _draw_params(rng)
        p = SystemParams(omega_c=base.omega_c, omega_a=base.omega_a, g=base.g, kappa=0.0)
        energies = spectrum.one_excitation_energies(p)
        ground = model.jc_ground_energy(p)
        upper, lower = model.jc_doublet_energies(p, 1)
        for epsilon in (+1, -1):
            checks.add(abs(energies[BranchLabel(epsilon, +1)] - (ground + upper)), 1e-12)
            checks.add(abs(energies[BranchLabel(epsilon, -1)] - (ground + lower)), 1e-12)
        for branch in (+1, -1):
            checks.add(
                abs(energies[BranchLabel(+1, branch)] - energies[BranchLabel(-1, branch)]), 0.0
            )
    return checks.result()


def _perturbative_error(kappa: float) -> float:
    p = SystemParams(omega_c=0.0, omega_a=0.0, g=1.0, kappa=kappa)
    exact = spectrum.one_excitation_energies(p)
    approx = spectrum.one_excitation_energies_perturbative(p)
    return max(abs(exact[label] - approx[label]) for label in BRANCHES)


def _suite_perturbative_limit(seed: int, trials: int) -> SuiteResult:
    checks = _Checks("perturbative_limit")
    err_full = _perturbative_error(0.2)
    err_half = _perturbative_error(0.1)
    checks.add(err_full, 2e-5)
    # Next omitted order is kappa^4, so halving kappa must shrink the error 8x+.
    checks.require(err_full >= 8.0 * err_half)
    return checks.result()


def _suite_collective_modes(seed: int, trials: int) -> SuiteResult:
    checks = _Checks("collective_modes")
    rng = _rng(seed, "collective")
    basis = sectors.enumerate_sector(1)
    draws = [_draw_params(rng, g_min=0.0) for _ in range(max(1, trials // 10))]
    direct = eig_sym(_stack(sectors.build_hamiltonian(p, basis) for p in draws)).values
    collective = eig_sym(
        _stack(sectors.build_collective_hamiltonian(p, 1) for p in draws)
    ).values
    for direct_values, collective_values in zip(direct, collective):
        checks.add(float(np.max(np.abs(direct_values - collective_values))), 1e-10)
    p = SystemParams(omega_c=10.0, omega_a=10.0, g=0.0, kappa=2.0)
    values = eig_sym(sectors.build_collective_hamiltonian(p, 1).matrix).values
    checks.add(float(np.max(np.abs(values - np.array([8.0, 10.0, 10.0, 12.0])))), 0.0)
    return checks.result()


def _product_basis(max_photons: int) -> list[sectors.BasisState]:
    states = []
    for n1 in range(max_photons + 1):
        for c1 in ("g", "e"):
            for n2 in range(max_photons + 1):
                for c2 in ("g", "e"):
                    states.append(sectors.BasisState(n1, c1, n2, c2))
    return states


def _suite_sector_structure(seed: int, trials: int) -> SuiteResult:
    checks = _Checks("sector_structure")
    checks.require(len(sectors.enumerate_sector(0)) == 1)
    for nu in range(1, 9):
        checks.require(len(sectors.enumerate_sector(nu)) == 4 * nu)

    rng = _rng(seed, "sectors")
    p = _draw_params(rng)
    states = _product_basis(4)
    index = {state: i for i, state in enumerate(states)}
    cross = 0.0
    for i, a in enumerate(states):
        for b in states[i + 1 :]:
            element = sectors.coupling_element(p, a, b)
            if a.excitation_number() != b.excitation_number():
                cross = max(cross, abs(element))
    checks.add(cross, 0.0)

    # Sector blocks cut out of the truncated product Hamiltonian must equal
    # the direct sector construction entry for entry.
    for nu in range(0, 4):
        basis = sectors.enumerate_sector(nu)
        h_sector = sectors.build_hamiltonian(p, basis).matrix.to_array()
        rows = [index[s] for s in basis.states]
        block = np.empty((len(rows), len(rows)))
        for bi, si in enumerate(basis.states):
            block[bi, bi] = sectors.diagonal_energy(p, si)
            for bj in range(bi + 1, len(rows)):
                block[bi, bj] = block[bj, bi] = sectors.coupling_element(
                    p, si, basis.states[bj]
                )
        checks.add(float(np.max(np.abs(block - h_sector))), 0.0)
    return checks.result()


def _suite_entanglement_thresholds(seed: int, trials: int) -> SuiteResult:
    checks = _Checks("entanglement_thresholds")
    rng = _rng(seed, "thresholds")
    for _ in range(max(1, trials // 10)):
        g = rng.uniform(0.1, 10.0)
        kappa = rng.uniform(-10.0 * g, 10.0 * g)
        omega_c = rng.uniform(-10.0, 10.0)
        for epsilon in (+1, -1):
            at = SystemParams(omega_c, omega_c - epsilon * kappa, g, kappa)
            dev = eigenstates.entanglement_deviation(
                eigenstates.amplitudes(eigenstates.branch_detuning(at, epsilon), epsilon)
            )
            checks.add(dev, 1e-12)
            for sign in (+1, -1):
                off = SystemParams(
                    omega_c, omega_c - epsilon * kappa + sign * 0.01 * g, g, kappa
                )
                dev_off = eigenstates.entanglement_deviation(
                    eigenstates.amplitudes(
                        eigenstates.branch_detuning(off, epsilon), epsilon
                    )
                )
                checks.require(dev_off > 0.0)
    return checks.result()


def _suite_transition_rates(seed: int, trials: int) -> SuiteResult:
    checks = _Checks("transition_rates")
    rng = _rng(seed, "rates")
    for _ in range(max(1, trials // 10)):
        r = rng.uniform(-20.0, 20.0)
        gamma = rng.uniform(0.0, 1.0)
        gamma_c = rng.uniform(0.0, 1.0)
        d = DampingParams.symmetric(gamma, gamma_c, gamma_a=0.05)

        dark = susceptibility.transition_probabilities(
            eigenstates.amplitudes(r, +1), d, +1
        )
        checks.add(max(abs(dark[0]), abs(dark[1])), 0.0)

        a = eigenstates.amplitudes(r, -1)
        bright = susceptibility.transition_probabilities(a, d, -1)
        checks.add(abs(bright[0] + bright[1] - 2.0 * (gamma + gamma_c)), 1e-12)

        # The shared-rate formula is the (1 - eps)^2 special case of the
        # per-cell one; both code paths must agree to rounding.
        for epsilon in (+1, -1):
            amps = eigenstates.amplitudes(r, epsilon)
            general = susceptibility.transition_probabilities(amps, d, epsilon)
            for branch, value in ((+1, general[0]), (-1, general[1])):
                u, w = amps.branch(branch)
                reference = (1 - epsilon) ** 2 * (gamma * w * w + gamma_c * u * u)
                checks.add(abs(value - reference), 1e-13 * (1.0 + abs(reference)))
    return checks.result()


def _suite_susceptibility_consistency(seed: int, trials: int) -> SuiteResult:
    checks = _Checks("susceptibility_consistency")
    rng = _rng(seed, "susceptibility")
    for _ in range(max(1, trials // 50)):
        p = _draw_params(rng)
        d = DampingParams.symmetric(
            rng.uniform(0.001, 0.5), rng.uniform(0.001, 0.5), rng.uniform(0.01, 1.0)
        )
        span = 12.0 * max(p.g, abs(p.kappa), abs(p.delta), 1.0)
        grid = np.linspace(p.omega_c - span, p.omega_c + span, 401)
        curve = susceptibility.susceptibility_curve(p, d, grid)
        two_lorentzian = susceptibility.absorption_imag(p, d, grid)
        checks.add(float(np.max(np.abs(curve.im_chi - two_lorentzian))), 1e-12)

        # Dropping the exactly-dark pair must not change chi at all.
        table = susceptibility.transition_table(p, d)
        bright_only = np.zeros(grid.size, dtype=complex)
        for label in BRANCHES:
            if label.epsilon == -1:
                bright_only += table.rates[label] / (
                    table.centers[label] - grid - 1j * d.gamma_a
                )
        checks.add(float(np.max(np.abs(curve.chi - bright_only))), 1e-14)
    return checks.result()


def _random_symmetric(rng: random.Random, n: int) -> SymMatrix:
    m = [[rng.uniform(-5.0, 5.0) for _ in range(n)] for _ in range(n)]
    return SymMatrix(m)


def _random_orthogonal(rng: random.Random, n: int) -> np.ndarray:
    q = np.eye(n)
    for i in range(n - 1):
        for j in range(i + 1, n):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            c, s = math.cos(angle), math.sin(angle)
            rot = np.eye(n)
            rot[i, i] = c
            rot[j, j] = c
            rot[i, j] = s
            rot[j, i] = -s
            q = q @ rot
    return q


def _suite_eigensolver_properties(seed: int, trials: int) -> SuiteResult:
    checks = _Checks("eigensolver_properties")
    rng = _rng(seed, "jacobi")
    matrices = []
    for _ in range(max(1, trials // 25)):
        n = rng.randint(1, 16)
        a = _random_symmetric(rng, n)
        q = _random_orthogonal(rng, n)
        matrices += [a, SymMatrix(q.T @ a.to_array() @ q)]
    systems = eig_sym_many(matrices)
    for a, system, rotated in zip(matrices[::2], systems[::2], systems[1::2]):
        trace = float(np.trace(a.to_array()))
        checks.add(
            abs(trace - float(np.sum(system.values))), 1e-10 * a.n * max(a.max_abs(), 1.0)
        )
        checks.add(float(np.max(np.abs(rotated.values - system.values))), 1e-9)
    return checks.result()


_SUITES = (
    _suite_closed_form_vs_oracle,
    _suite_eigenstate_residuals,
    _suite_decoupled_limit,
    _suite_perturbative_limit,
    _suite_collective_modes,
    _suite_sector_structure,
    _suite_entanglement_thresholds,
    _suite_transition_rates,
    _suite_susceptibility_consistency,
    _suite_eigensolver_properties,
)


def run_all(seed: int, trials: int) -> list[SuiteResult]:
    """Run every validation suite; deterministic for fixed (seed, trials)."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return [suite(seed, trials) for suite in _SUITES]


def all_passed(results: list[SuiteResult]) -> bool:
    return all(result.passed for result in results)


def summary_text(results: list[SuiteResult], seed: int, trials: int) -> str:
    lines = [f"jcpair validation: seed={seed} trials={trials}"]
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(
            f"{status} {result.name:<30} max_residual={result.residual:.6e} tol={result.tol:g}"
        )
    failed = sum(1 for result in results if not result.passed)
    if failed:
        lines.append(f"result: {failed} of {len(results)} suites FAILED")
    else:
        lines.append(f"result: all {len(results)} suites passed")
    return "\n".join(lines) + "\n"
