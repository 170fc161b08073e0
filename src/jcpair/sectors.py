"""Fixed-excitation bases and Hamiltonian assembly for the coupled pair.

The full Hamiltonian conserves the total number of quanta
``nu = n1 + n2 + [atom 1 excited] + [atom 2 excited]`` and is therefore
block diagonal over sectors of fixed ``nu``.  This module enumerates the
sector bases and assembles the dense symmetric matrix of each block.

Assembly works on arrays of parameters.  :func:`sector_terms` gives each
basis its read-only coefficient matrices of ``omega_c``, ``omega_a``, ``g``
and ``kappa``, made once from :func:`diagonal_energy` and
:func:`coupling_element` and cached per basis order.
:func:`build_hamiltonian_stack` turns parameter arrays of length B into a
``(B, n, n)`` stack of blocks, and :func:`build_hamiltonian` is its B = 1
case, so every block carries the same bits whichever way it was asked for.

Basis ordering is part of the public contract so emitted matrices are
reproducible byte for byte: states are ordered lexicographically in
``(n1, c1, n2, c2)`` with ``g < e``, except the one-excitation sector,
which keeps the conventional order ``|0e0g>, |1g0g>, |0g1g>, |0g0e>``.

Energy offset convention: diagonal entries are the sum of the two
single-cell energies including zero-point terms,
``omega_c*(n1+n2+1) + omega_a*(excited_count - 1)``, which puts the empty
sector at ``-delta`` and the one-excitation block at the matrix
``[[0, g, 0, 0], [g, -d, -k, 0], [0, -k, -d, g], [0, 0, g, 0]] + omega_c*I``
(``d = delta``, ``k = kappa``).  Absolute offsets cancel in all transition
frequencies.

The two cells are identical, so every block commutes with their exchange,
``|n1 c1 n2 c2> -> |n2 c2 n1 c1>``.  :func:`build_hamiltonian` attaches that
permutation of the basis to its matrix as the ``swap`` of
:class:`jcpair.linalg.SymMatrix`, and ``eig_sym`` then solves the block as
its even and odd halves under the exchange, which in the one-excitation
sector are the ``eps = +1`` and ``eps = -1`` collective modes.  Stacks carry
no swap and are solved whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt
from typing import NamedTuple

import numpy as np

from .linalg import SymMatrix
from .model import SystemParams

__all__ = [
    "NU_CAP",
    "BasisState",
    "SectorBasis",
    "SectorMatrix",
    "SectorTerms",
    "enumerate_sector",
    "diagonal_energy",
    "coupling_element",
    "sector_terms",
    "build_hamiltonian_stack",
    "build_hamiltonian",
    "build_collective_stack",
    "build_collective_hamiltonian",
]

# Keeps dense sector matrices at most 48 x 48, comfortable for the Jacobi solver.
NU_CAP = 12

_LEVELS = ("g", "e")


@dataclass(frozen=True, order=True)
class BasisState:
    """Product state ``|n1 c1 n2 c2>``: photon numbers and atomic levels."""

    n1: int
    c1: str
    n2: int
    c2: str

    def __post_init__(self) -> None:
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError(f"photon numbers must be >= 0, got {self.n1}, {self.n2}")
        if self.c1 not in _LEVELS or self.c2 not in _LEVELS:
            raise ValueError(f"atomic levels must be 'g' or 'e', got {self.c1!r}, {self.c2!r}")

    def excitation_number(self) -> int:
        return self.n1 + self.n2 + (self.c1 == "e") + (self.c2 == "e")

    @property
    def label(self) -> str:
        return f"{self.n1}{self.c1}{self.n2}{self.c2}"

    def sort_key(self) -> tuple[int, int, int, int]:
        return (self.n1, _LEVELS.index(self.c1), self.n2, _LEVELS.index(self.c2))


@dataclass(frozen=True)
class SectorBasis:
    """Ordered basis of the fixed-excitation sector ``nu``."""

    nu: int
    states: tuple[BasisState, ...]

    def __len__(self) -> int:
        return len(self.states)

    def index(self, state: BasisState) -> int:
        return self.states.index(state)


@dataclass(frozen=True, eq=False)
class SectorMatrix:
    """A sector basis together with the Hamiltonian block expressed in it."""

    basis: SectorBasis
    matrix: SymMatrix


def enumerate_sector(nu: int) -> SectorBasis:
    """All basis states with ``nu`` total quanta, canonically ordered.

    The sector has one state for nu = 0 and ``4*nu`` states for nu >= 1.
    ``nu`` above :data:`NU_CAP` is rejected.
    """
    if nu < 0:
        raise ValueError(f"excitation number must be >= 0, got {nu}")
    if nu > NU_CAP:
        raise ValueError(f"excitation number {nu} exceeds the cap of {NU_CAP}")
    if nu == 1:
        states = (
            BasisState(0, "e", 0, "g"),
            BasisState(1, "g", 0, "g"),
            BasisState(0, "g", 1, "g"),
            BasisState(0, "g", 0, "e"),
        )
        return SectorBasis(nu=1, states=states)

    found = []
    for e1 in (0, 1):
        for e2 in (0, 1):
            rest = nu - e1 - e2
            if rest < 0:
                continue
            for n1 in range(rest + 1):
                found.append(BasisState(n1, _LEVELS[e1], rest - n1, _LEVELS[e2]))
    found.sort(key=BasisState.sort_key)
    return SectorBasis(nu=nu, states=tuple(found))


def diagonal_energy(p: SystemParams, s: BasisState) -> float:
    """Diagonal matrix element of ``|s>`` (sum of the two cell energies)."""
    excited = (s.c1 == "e") + (s.c2 == "e")
    return p.omega_c * (s.n1 + s.n2 + 1) + p.omega_a * (excited - 1)


def coupling_element(p: SystemParams, a: BasisState, b: BasisState) -> float:
    """Off-diagonal matrix element ``<a|H|b>`` between distinct product states.

    Three processes contribute: the atom-photon exchange inside each cell
    (``g*sqrt(n+1)`` between ``|n,e>`` and ``|n+1,g>``) and photon hopping
    between the cavities (``-kappa*sqrt((n1+1)*n2)`` between
    ``|n1,n2>`` and ``|n1+1,n2-1>``).  Everything else vanishes, which is
    what makes the excitation number a conserved quantity.
    """
    if (a.n2, a.c2) == (b.n2, b.c2):
        lo, hi = (a, b) if a.n1 < b.n1 else (b, a)
        if hi.n1 == lo.n1 + 1 and lo.c1 == "e" and hi.c1 == "g":
            return p.g * sqrt(hi.n1)
    if (a.n1, a.c1) == (b.n1, b.c1):
        lo, hi = (a, b) if a.n2 < b.n2 else (b, a)
        if hi.n2 == lo.n2 + 1 and lo.c2 == "e" and hi.c2 == "g":
            return p.g * sqrt(hi.n2)
    if a.c1 == b.c1 and a.c2 == b.c2:
        lo, hi = (a, b) if a.n1 < b.n1 else (b, a)
        if hi.n1 == lo.n1 + 1 and hi.n2 == lo.n2 - 1:
            return -p.kappa * sqrt(hi.n1 * lo.n2)
    return 0.0


class SectorTerms(NamedTuple):
    """Read-only ``(n, n)`` coefficient matrices of one sector block.

    Each field is named after the parameter it multiplies: the block of
    ``p`` is ``p.omega_c*terms.omega_c + p.omega_a*terms.omega_a`` on the
    diagonal and ``p.g*terms.g - p.kappa*terms.kappa`` off it.  The hopping
    enters with the Hamiltonian's ``-kappa`` sign, so ``terms.kappa`` holds
    ``+sqrt((n1+1)*n2)``.  The two diagonal terms vanish off the diagonal,
    the two coupling terms on it, and no entry lies on the support of both
    ``g`` and ``kappa``.
    """

    omega_c: np.ndarray
    omega_a: np.ndarray
    g: np.ndarray
    kappa: np.ndarray


def sector_terms(basis: SectorBasis) -> SectorTerms:
    """The coefficient matrices of ``basis``, made on first use and cached.

    The cache is keyed on the ordered states, so a basis in any order gets
    the terms of that order.
    """
    return _terms(basis.states)


# One unit parameter per term; kappa = -1 turns the -kappa hopping into +1.
_UNIT_PARAMS = (
    SystemParams(omega_c=1.0, omega_a=0.0, g=0.0),
    SystemParams(omega_c=0.0, omega_a=1.0, g=0.0),
    SystemParams(omega_c=0.0, omega_a=0.0, g=1.0),
    SystemParams(omega_c=0.0, omega_a=0.0, g=0.0, kappa=-1.0),
)


@lru_cache(maxsize=64)
def _terms(states: tuple[BasisState, ...]) -> SectorTerms:
    n = len(states)
    terms = []
    for unit in _UNIT_PARAMS:
        m = np.zeros((n, n))
        for i, si in enumerate(states):
            m[i, i] = diagonal_energy(unit, si)
            for j in range(i + 1, n):
                m[i, j] = m[j, i] = coupling_element(unit, si, states[j])
        # Unit parameters give the integer and sqrt coefficients exactly and
        # every other entry as +0.0 or -0.0; + 0.0 makes each zero +0.0.
        m += 0.0
        m.setflags(write=False)
        terms.append(m)
    return SectorTerms(*terms)


def _parameter_arrays(*values) -> list[np.ndarray]:
    """The parameters as float arrays broadcast to one common shape ``(B,)``."""
    arrays = np.broadcast_arrays(*np.atleast_1d(*(np.asarray(v, dtype=float) for v in values)))
    if arrays[0].ndim != 1:
        raise ValueError(f"parameters must be scalars or 1-d arrays, got shape {arrays[0].shape}")
    return arrays


def _diagonals(terms: SectorTerms, omega_c: np.ndarray, omega_a: np.ndarray) -> np.ndarray:
    """``(B, n)`` diagonals ``omega_c*C + omega_a*A``, as :func:`diagonal_energy` rounds them."""
    return np.multiply.outer(omega_c, terms.omega_c.diagonal()) + np.multiply.outer(
        omega_a, terms.omega_a.diagonal()
    )


def build_hamiltonian_stack(basis: SectorBasis, omega_c, omega_a, g, kappa) -> np.ndarray:
    """The ``(B, n, n)`` stack of ``basis`` blocks, one per parameter set.

    Each parameter is a scalar or a 1-d array, and they broadcast to length
    B.  Member ``b`` equals :func:`build_hamiltonian` of
    ``SystemParams(omega_c[b], omega_a[b], g[b], kappa[b])`` bit for bit:
    its diagonal is ``omega_c*C + omega_a*A``, each off-diagonal entry is
    its one nonzero term (``g*G`` or ``-kappa*K``), and every off-diagonal
    entry equal to zero is +0.0.  The parameters are taken as given; the
    eigensolver rejects blocks with entries that are not finite.
    """
    terms = sector_terms(basis)
    omega_c, omega_a, g, kappa = _parameter_arrays(omega_c, omega_a, g, kappa)
    # The supports are disjoint, so each entry is one term plus zeros, which
    # leave a nonzero term exact; + 0.0 then turns every -0.0 into +0.0.
    h = np.multiply.outer(g, terms.g)
    h -= np.multiply.outer(kappa, terms.kappa)
    h += 0.0
    diagonal = np.arange(len(basis))
    h[:, diagonal, diagonal] = _diagonals(terms, omega_c, omega_a)
    return h


def build_hamiltonian(p: SystemParams, basis: SectorBasis) -> SectorMatrix:
    """Assemble the Hamiltonian block of ``basis`` as a dense symmetric matrix.

    This is the B = 1 case of :func:`build_hamiltonian_stack`.  The matrix
    carries the exchange of the two cells as its ``swap`` when every state's
    mirror is in ``basis``, so ``eig_sym`` solves it as its even and odd
    halves.
    """
    m = build_hamiltonian_stack(basis, p.omega_c, p.omega_a, p.g, p.kappa)[0]
    return SectorMatrix(basis=basis, matrix=SymMatrix(m, swap=_swap(basis.states)))


@lru_cache(maxsize=64)
def _swap(states: tuple[BasisState, ...]) -> np.ndarray | None:
    """The index of each state's mirror ``|n2 c2 n1 c1>``, or None if one is missing.

    The cells are identical, so the block commutes with this exchange: the
    terms of a state and of its mirror are equal, entry for entry.
    """
    index = {s: i for i, s in enumerate(states)}
    mirrors = [index.get(BasisState(s.n2, s.c2, s.n1, s.c1)) for s in states]
    if None in mirrors or len(index) != len(states):
        return None
    swap = np.array(mirrors)
    swap.setflags(write=False)
    return swap


def build_collective_stack(omega_c, omega_a, g, kappa) -> np.ndarray:
    """The ``(B, 4, 4)`` stack of one-excitation blocks in the collective basis.

    Parameters broadcast as in :func:`build_hamiltonian_stack`, whose
    diagonals give the atom and photon energies; member ``b`` is
    :func:`build_collective_hamiltonian` of the ``b``-th parameter set.
    """
    omega_c, omega_a, g, kappa = _parameter_arrays(omega_c, omega_a, g, kappa)
    diagonals = _diagonals(sector_terms(enumerate_sector(1)), omega_c, omega_a)
    atom, photon = diagonals[:, 0], diagonals[:, 1]
    h = np.zeros((g.size, 4, 4))
    h[:, 0, 0] = photon + kappa
    h[:, 2, 2] = photon - kappa
    h[:, 1, 1] = h[:, 3, 3] = atom
    h[:, 0, 1] = h[:, 1, 0] = h[:, 2, 3] = h[:, 3, 2] = g
    return h


def build_collective_hamiltonian(p: SystemParams, nu: int) -> SectorMatrix:
    """One-excitation Hamiltonian in the collective (normal-mode) basis.

    The symmetric/antisymmetric combinations of the two cavity modes and of
    the two atomic operators decouple the pair into two independent
    atom-mode blocks with the same coupling ``g`` and mode energies shifted
    by ``+kappa`` and ``-kappa``.  For nu = 1 the returned matrix is block
    diagonal in the order

        (mode 1, symmetric atomic, mode 2, antisymmetric atomic)

    i.e. the collective combinations ``(e2 +/- e3)/sqrt(2)`` and
    ``(e1 +/- e4)/sqrt(2)`` of the product basis states attached to the
    result.  Note the sign pairing of the mode shifts versus the direct
    ``-kappa`` hopping convention of :func:`build_hamiltonian` is a pure
    relabelling of the two blocks: only the eigenvalue multiset is
    contractual, and it always matches the direct construction.

    Only nu in {0, 1} is supported; higher sectors are validated through
    the direct construction instead.
    """
    if nu not in (0, 1):
        raise ValueError(f"collective construction supports nu in {{0, 1}}, got {nu}")
    basis = enumerate_sector(nu)
    if nu == 0:
        return build_hamiltonian(p, basis)
    m = build_collective_stack(p.omega_c, p.omega_a, p.g, p.kappa)[0]
    return SectorMatrix(basis=basis, matrix=SymMatrix(m))
