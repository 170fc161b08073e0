"""Self-contained dense real-symmetric eigensolver.

This is the numeric oracle every closed form in the package is checked
against, so the algorithm (cyclic Jacobi) lives in this repository instead
of delegating to an external LAPACK-backed routine.  ``eig_sym`` checks
every input as a ``(B, n, n)`` stack on one path; ``_jacobi_py`` alone
picks the sweep body.  A stack of two or more runs ``jacobi_stack`` in the
row-cyclic order of the list loop, NumPy calls over all live members, with
the list loop's bits.  One matrix, alone or as a stack of one, runs
``jacobi_cycle`` as its even and odd halves (below): Python lists below 17
rows, and from there up round-robin rounds of NumPy calls.  So below 17
rows a matrix gets the same bits alone and in a stack; from 17 rows up,
alone, it gets other bits that pass the same checks.  NumPy calls cost a
fixed time each, so on a 2-vCPU Xeon VM a dense 48x48 takes 17-40 ms alone
against about 90 ms as lists, while 1,000 dense 4x4s take 5-6 ms as one
stack against about 135 ms one by one (best of 5, NumPy 2.4).

A :class:`SymMatrix` may carry a ``swap``: an involutive permutation of its
rows that leaves its entries unchanged, such as the exchange of two
identical cells that ``sectors.build_hamiltonian`` attaches to a sector
block.  ``eig_sym`` of one matrix solves its even and odd halves under that
exchange, two blocks of about n/2 rows, in place of the whole matrix
(Cantoni & Butler, Linear Algebra Appl. 13, 1976), and checks the
reassembled vectors against the whole matrix.  Jacobi's cost grows as n^3,
so each half costs about an eighth of the whole.  Both halves go to one
``jacobi_cycle`` call as a ``(2, m, m)`` stack, the odd half zero-padded to
the even half's m rows: below 17 rows they are swept one after the other on
lists, each with the bits it gets unpadded, and from 17 rows up in the same
round-robin rounds, so each round's NumPy calls serve both.  Without a
``swap`` the even half is the whole matrix and the odd half, all zero,
converges at sweep 0.  Stacks of two or more ignore ``swap``.

``eig_sym_many`` solves matrices of mixed sizes as one zero-padded stack,
sorted by size, with each result equal to ``eig_sym`` of that matrix's
entries bit for bit below 17 rows; ``validate``'s 80 eigensolver-suite
matrices (n = 1..16) per seed take about a third as long that way as one by
one.

Convergence contract: sweeps stop once the off-diagonal Frobenius norm is
below ``1e-13 * ||A||_F``, with a hard cap of 100 sweeps (Jacobi converges
quadratically; the cap only guards malformed input).  Output is
deterministic for identical input.  Degenerate eigenvalues come with no
eigenvector canonicalization: downstream checks must use residuals and
eigenvalue multisets, never specific eigenvector entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _jacobi_py as _kernel

__all__ = [
    "REL_TOL",
    "MAX_SWEEPS",
    "ConvergenceError",
    "SymMatrix",
    "EigenSystem",
    "eig_sym",
    "eig_sym_many",
    "eigenvalue_multiset_equal",
]

REL_TOL = 1e-13
MAX_SWEEPS = 100


class ConvergenceError(RuntimeError):
    """Jacobi iteration failed to meet its convergence contract."""


def _symmetrized(entries, ndim: int) -> np.ndarray:
    """``(A + A^T) / 2`` of ``ndim``-D ``entries``, square, nonempty and finite."""
    m = np.asarray(entries, dtype=float)
    if m.ndim != ndim or m.shape[-1] != m.shape[-2] or 0 in m.shape:
        what = "a square matrix" if ndim == 2 else "a stack of square matrices"
        raise ValueError(f"expected {what}, got shape {m.shape}")
    # Finite entries can overflow here; the check below rejects them too.
    with np.errstate(over="ignore", invalid="ignore"):
        sym = 0.5 * (m + m.swapaxes(-1, -2))
    if not np.isfinite(sym).all():
        raise ValueError("matrix entries and their symmetrization must be finite")
    return sym


def _involution(sym: np.ndarray, swap) -> np.ndarray:
    """``swap`` as a read-only index array, checked against the (n, n) ``sym``."""
    n = len(sym)
    s = np.asarray(swap)
    if s.shape != (n,) or s.dtype.kind not in "iu" or s.min() < 0 or s.max() >= n:
        raise ValueError(f"swap must be {n} integer row indices in range({n})")
    s = s.astype(np.intp)
    if not (s[s] == np.arange(n)).all():
        raise ValueError("swap must be a permutation that is its own inverse")
    # Bit for bit, so the even and odd halves are exact.
    if sym[s][:, s].tobytes() != sym.tobytes():
        raise ValueError("matrix entries must be unchanged under swap")
    s.setflags(write=False)
    return s


class SymMatrix:
    """Dense real symmetric matrix.

    Construction symmetrizes the input as ``(A + A^T) / 2``, which leaves an
    already-symmetric matrix bit-identical and otherwise enforces exact
    symmetry.  Entries and their symmetrization must be finite.

    ``swap``, if given, is an involutive permutation of the rows that the
    symmetrized entries satisfy bit for bit, ``m[swap][:, swap] == m``;
    ``eig_sym`` then solves the matrix as its even and odd halves under it.
    Anything else raises ``ValueError``.
    """

    __slots__ = ("_m", "_swap")

    def __init__(self, entries, swap=None) -> None:
        self._m = _symmetrized(entries, 2)
        self._m.setflags(write=False)
        self._swap = None if swap is None else _involution(self._m, swap)

    @property
    def n(self) -> int:
        return self._m.shape[0]

    @property
    def swap(self) -> np.ndarray | None:
        """The read-only row permutation the entries are invariant under, or None."""
        return self._swap

    def to_array(self) -> np.ndarray:
        """Writable C-contiguous copy of the entries."""
        return np.array(self._m, dtype=float, order="C")

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._m)))

    def __getitem__(self, idx):
        return self._m[idx]

    def __repr__(self) -> str:
        return f"SymMatrix(n={self.n})"


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns.

    ``orthogonality`` (``||V^T V - I||_max``) and ``residual``
    (``||A V - V diag(w)||_max``) are the figures ``eig_sym`` checked.  For
    a stack, ``values`` is (B, n), ``vectors`` (B, n, n) and the other
    fields (B,) arrays; for one matrix ``sweeps`` is an int, the rest floats.
    A matrix solved as its even and odd halves reports the larger of the two
    halves' sweep counts as ``sweeps``.
    """

    values: np.ndarray
    vectors: np.ndarray
    sweeps: int | np.ndarray
    orthogonality: float | np.ndarray
    residual: float | np.ndarray


def eig_sym(a: SymMatrix | np.ndarray) -> EigenSystem:
    """Full eigendecomposition of a symmetric matrix, or a stack, by cyclic Jacobi.

    A :class:`SymMatrix` or 2-D input is one matrix; a 3-D ``(B, n, n)``
    array is a stack, symmetrized and checked member by member.  One matrix,
    or a stack of one, is solved as its even and odd halves under its
    ``swap`` (see :func:`_parity_sweep`; without a ``swap`` the even half is
    the whole matrix) and checked whole.  In a larger stack, which ignores
    ``swap``, a member below 17 rows gets the bits of solving it alone; a
    member from 17 rows up takes the row-cyclic order, while alone it takes
    the round-robin order, so its bits differ and both pass the checks below.

    The returned decomposition is verified before it is handed back, at unit
    scale (see :func:`_unit_scaled`): ``||V^T V - I||_max <= 1e-12`` and
    ``||A v_k - w_k v_k||_max <= 1e-10 * ||A||_max`` for every k (and every
    member).  A violation, NaN included (possible only for pathological
    input), or an eigenvalue past the largest float raises
    :class:`ConvergenceError` rather than returning a bad oracle.
    """
    if not isinstance(a, SymMatrix) and np.ndim(a) != 3:
        a = SymMatrix(a)
    if not isinstance(a, SymMatrix):
        sym, exps, peak = _unit_scaled(_symmetrized(a, 3))
        return _checked(sym, *_sweep(sym), exps, peak, np.arange(len(sym)))
    sym, exps, peak = _unit_scaled(a._m[np.newaxis])
    return _member(_checked(sym, *_sweep(sym, a._swap), exps, peak, None), 0)


_SQRT2 = math.sqrt(2.0)


def _parity_sweep(m: np.ndarray, swap: np.ndarray | None):
    """``_sweep`` of the (n, n) ``m`` as its two halves under the exchange ``swap``.

    With pairs ``(i, j = swap[i])``, ``i < j``, their first members I, their
    partners J and the fixed points F (every row if ``swap`` is None, which
    exchanges no pair), the even half is
    ``[[A[I,I] + A[I,J], sqrt2*A[I,F]], [sqrt2*A[F,I], A[F,F]]]`` and the odd
    half ``A[I,I] - A[I,J]``; ``m``'s invariance under ``swap`` makes both
    exactly symmetric.  The odd half, which is never the larger, is
    zero-padded to the even one's size m, and one ``jacobi_cycle`` call
    sweeps the ``(2, m, m)`` pair and returns one sweep count; the kernel
    module picks how it sweeps them.  The vectors are put back as
    ``v[I] = v[J] = x/sqrt2, v[F] = x_F`` (even) and
    ``v[I] = y/sqrt2, v[J] = -y/sqrt2`` (odd), so each column is exactly
    even or odd under ``swap``.  Without a pair, the even half is ``m`` in
    its own order and the odd half is all zero; it converges at sweep 0, so
    the sweep count is ``m``'s own.

    ``m`` is at unit scale (``_unit_scaled``), so no sum or ``sqrt2`` product overflows.
    """
    n = len(m)
    rows = np.arange(n)
    if swap is None:
        swap = rows
    first = (swap > rows).nonzero()[0]
    k = len(first)
    size = n - k
    # Rows and columns in the order I, F, J, so each block is a slice.
    order = np.concatenate((first, (swap == rows).nonzero()[0], swap[first]))
    g = m[order[:, np.newaxis], order]
    pair = np.zeros((2, size, size))
    even = pair[0]
    even[...] = g[:size, :size]
    even[:k, :k] += g[:k, size:]
    even[:k, k:] *= _SQRT2
    even[k:, :k] *= _SQRT2
    pair[1, :k, :k] = g[:k, :k] - g[:k, size:]
    pair_vecs = np.eye(size)[np.newaxis].repeat(2, axis=0)
    sweeps = _kernel.jacobi_cycle(pair, pair_vecs, REL_TOL, MAX_SWEEPS)
    vals = np.concatenate((np.diagonal(pair[0]), np.diagonal(pair[1])[:k]))[np.newaxis]
    x, y = pair_vecs[0], pair_vecs[1, :k, :k]
    half_x, half_y = x[:k] / _SQRT2, y / _SQRT2
    v = np.zeros((n, n))
    v[k:size, :size] = x[k:]
    v[:k, :size] = v[size:, :size] = half_x
    v[:k, size:] = half_y
    v[size:, size:] = -half_y
    vecs = np.empty((1, n, n))
    vecs[0, order] = v
    return vals, vecs, np.array([sweeps])


def eig_sym_many(matrices: Sequence[SymMatrix | np.ndarray]) -> list[EigenSystem]:
    """``[eig_sym(m) for m in matrices]``, solved as one stack.

    Each result equals ``eig_sym`` of ``m``'s entries bit for bit when ``m``
    has fewer than 17 rows or is the only matrix; a ``swap`` is ignored, as
    in any stack.  A larger matrix among others is swept in the row-cyclic
    order, and alone in the round-robin order, so its bits differ; both pass
    ``eig_sym``'s checks.  The matrices may differ in size.  They are sorted
    by size, largest first, and zero-padded into one ``(B, N, N)`` stack for
    the kernel call ``eig_sym`` makes.  Padding changes no bit: every pivot
    in a padded row or column is +0.0, so those rotations are skipped; a
    member's own rotations write ``c*0 - s*0 = +0.0`` (``c > 0``) into its
    padded entries; and its norms only add +0.0 to nonnegative running sums.
    Each member is then sorted and checked unpadded, with the members of its
    size, by the code ``eig_sym`` runs.  An error names the input index of
    the member that caused it.
    """
    syms = []
    for index, m in enumerate(matrices):
        try:
            syms.append((m if isinstance(m, SymMatrix) else SymMatrix(m))._m)
        except ValueError as error:
            raise ValueError(f"member {index}: {error}") from None
    if not syms:
        return []
    # Largest first, so the members that still rotate at a padded pivot
    # position are a leading block of the stack.
    order = sorted(range(len(syms)), key=lambda index: -len(syms[index]))
    size = len(syms[order[0]])
    padded = np.zeros((len(syms), size, size))
    for row, index in enumerate(order):
        n = len(syms[index])
        padded[row, :n, :n] = syms[index]
    padded, exps, peak = _unit_scaled(padded)
    vals, vecs, sweeps = _sweep(padded)

    results: list[EigenSystem | None] = [None] * len(syms)
    start = 0
    for n, group in itertools.groupby(order, key=lambda index: len(syms[index])):
        members = np.array(list(group))
        stop = start + len(members)
        system = _checked(
            np.ascontiguousarray(padded[start:stop, :n, :n]),
            vals[start:stop, :n],
            vecs[start:stop, :n, :n],
            sweeps[start:stop],
            exps[start:stop], peak[start:stop],
            members,
        )
        for k, index in enumerate(members):
            results[index] = _member(system, k)
        start = stop
    return results


def _unit_scaled(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (B, n, n) ``sym`` at unit scale, the B exponents e that undo it, and max|A| there.

    A member whose max|A| has a ``frexp`` exponent e with |e| > 450 is
    multiplied by 2^-e, exactly, into [0.5, 1); the others keep e = 0 and
    every bit.  Sweeps are covariant under a power of two, so this changes
    no sweep count or vector bit unless a subnormal is involved.
    """
    peak = np.max(np.abs(sym), axis=(1, 2))
    exps = np.frexp(peak)[1]
    exps[np.abs(exps) <= 450] = 0
    if exps.any():
        sym = np.ldexp(sym, -exps[:, np.newaxis, np.newaxis])
        peak = np.ldexp(peak, -exps)
    return sym, exps, peak


def _sweep(sym: np.ndarray, swap: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jacobi sweeps on a copy of the (B, n, n) stack ``sym``: ``jacobi_stack``,
    or for a stack of one :func:`_parity_sweep` under ``swap``.

    Returns the (B, n) diagonals of the swept matrices (the unsorted
    eigenvalues), the accumulated rotations and B sweep counts.
    """
    if len(sym) == 1:
        return _parity_sweep(sym[0], swap)
    work = sym.copy()
    vecs = np.broadcast_to(np.eye(sym.shape[1]), sym.shape).copy()
    sweeps = _kernel.jacobi_stack(work, vecs, REL_TOL, MAX_SWEEPS)
    return np.diagonal(work, axis1=1, axis2=2), vecs, sweeps


def _checked(sym, vals, vecs, sweeps, exps, peak, members) -> EigenSystem:
    """Sort, check and freeze ``_sweep``'s output for the (B, n, n) stack ``sym``.

    ``sym``, ``exps`` and ``peak`` are ``_unit_scaled``'s: the check runs at
    unit scale, and the values and residuals are scaled back by 2^exps.
    ``members`` holds the index each member is named by in an error, or is
    None for a single matrix, which an error does not number.
    """
    n = sym.shape[1]
    if np.any(sweeps < 0):
        member = "" if members is None else f"member {members[np.flatnonzero(sweeps < 0)[0]]}, "
        raise ConvergenceError(f"no convergence within {MAX_SWEEPS} sweeps ({member}n={n})")

    order = np.argsort(vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    vecs = np.take_along_axis(vecs, order[:, np.newaxis, :], axis=2)

    ortho = np.max(np.abs(vecs.transpose(0, 2, 1) @ vecs - np.eye(n)), axis=(1, 2))
    resid = np.max(np.abs(sym @ vecs - vecs * vals[:, np.newaxis, :]), axis=(1, 2))
    checked = (ortho <= 1e-12) & (resid <= 1e-10 * peak)
    bad = ~checked
    if exps.any():
        # Back to the input's scale, where a value, or a residual that failed, can overflow.
        with np.errstate(over="ignore"):
            vals, resid = np.ldexp(vals, exps[:, np.newaxis]), np.ldexp(resid, exps)
        bad |= np.isinf(vals).any(axis=1)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        member = "" if members is None else f" for member {members[k]}"
        if checked[k]:
            raise ConvergenceError(f"an eigenvalue is outside the float range{member}")
        raise ConvergenceError(
            f"decomposition check failed{member}: "
            f"orthogonality {ortho[k]:.3e}, residual {resid[k]:.3e}"
        )
    for array in (vals, vecs, sweeps, ortho, resid):
        array.setflags(write=False)
    return EigenSystem(vals, vecs, sweeps, ortho, resid)


def _member(system: EigenSystem, k: int) -> EigenSystem:
    """Member ``k`` of a stack's results, as ``eig_sym`` returns one matrix."""
    return EigenSystem(
        system.values[k],
        system.vectors[k],
        int(system.sweeps[k]),
        float(system.orthogonality[k]),
        float(system.residual[k]),
    )


def eigenvalue_multiset_equal(
    a: Sequence[float], b: Sequence[float], tol: float
) -> bool:
    """True iff the two value multisets match elementwise within ``tol``."""
    av = np.sort(np.asarray(a, dtype=float))
    bv = np.sort(np.asarray(b, dtype=float))
    if av.shape != bv.shape:
        raise ValueError(f"length mismatch: {av.shape[0]} vs {bv.shape[0]}")
    if tol < 0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    return bool(np.all(np.abs(av - bv) <= tol))
