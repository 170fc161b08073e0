"""Self-contained dense real-symmetric eigensolver.

This is the numeric oracle every closed form in the package is checked
against, so the algorithm (cyclic Jacobi) lives in this repository instead
of delegating to an external LAPACK-backed routine.  The rotation sweeps
run in ``_jacobi_py``: one matrix on Python lists, a ``(B, n, n)`` stack as
NumPy operations over its members, with the same bits per member.

Convergence contract: sweeps stop once the off-diagonal Frobenius norm is
below ``1e-13 * ||A||_F``, with a hard cap of 100 sweeps (Jacobi converges
quadratically; the cap only guards malformed input).  Output is
deterministic for identical input.  Degenerate eigenvalues come with no
eigenvector canonicalization: downstream checks must use residuals and
eigenvalue multisets, never specific eigenvector entries.
"""

from __future__ import annotations

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
    "eigenvalue_multiset_equal",
]

REL_TOL = 1e-13
MAX_SWEEPS = 100


class ConvergenceError(RuntimeError):
    """Jacobi iteration failed to meet its convergence contract."""


class SymMatrix:
    """Dense real symmetric matrix.

    Construction symmetrizes the input as ``(A + A^T) / 2``, which leaves an
    already-symmetric matrix bit-identical and otherwise enforces exact
    symmetry.  Entries must be finite.
    """

    __slots__ = ("_m",)

    def __init__(self, entries) -> None:
        m = np.array(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        self._m = 0.5 * (m + m.T)
        self._m.setflags(write=False)

    @property
    def n(self) -> int:
        return self._m.shape[0]

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

    For a stack, ``values`` is (B, n), ``vectors`` is (B, n, n) and
    ``sweeps`` is a (B,) int array; for one matrix ``sweeps`` is an int.
    """

    values: np.ndarray
    vectors: np.ndarray
    sweeps: int | np.ndarray


def eig_sym(a: SymMatrix | np.ndarray) -> EigenSystem:
    """Full eigendecomposition of a symmetric matrix, or a stack, by cyclic Jacobi.

    A :class:`SymMatrix` or 2-D input is one matrix.  A 3-D ``(B, n, n)``
    array is a stack: it is symmetrized and checked like a ``SymMatrix``,
    member by member, and solved by one batched sweep whose results equal
    those of solving each member alone.

    The returned decomposition is verified before it is handed back:
    ``||V^T V - I||_max <= 1e-12`` and
    ``||A v_k - w_k v_k||_max <= 1e-10 * (1 + ||A||_max)`` for every k (and
    every member).  A violation (possible only for pathological input)
    raises :class:`ConvergenceError` rather than returning a bad oracle.
    """
    if not isinstance(a, SymMatrix):
        m = np.asarray(a, dtype=float)
        if m.ndim == 3:
            return _eig_stack(m)
        a = SymMatrix(m)
    n = a.n
    work = a.to_array()
    vecs = np.eye(n)
    sweeps = _kernel.jacobi_cycle(work, vecs, REL_TOL, MAX_SWEEPS)
    if sweeps < 0:
        raise ConvergenceError(f"no convergence within {MAX_SWEEPS} sweeps (n={n})")

    vals = np.diag(work).copy()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]

    ortho = float(np.max(np.abs(vecs.T @ vecs - np.eye(n))))
    resid = float(np.max(np.abs(a.to_array() @ vecs - vecs * vals[np.newaxis, :])))
    if ortho > 1e-12 or resid > 1e-10 * (1.0 + a.max_abs()):
        raise ConvergenceError(
            f"decomposition check failed: orthogonality {ortho:.3e}, residual {resid:.3e}"
        )
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return EigenSystem(values=vals, vectors=vecs, sweeps=sweeps)


def _eig_stack(m: np.ndarray) -> EigenSystem:
    """``eig_sym`` over a (B, n, n) stack, through ``jacobi_stack``."""
    if m.shape[0] < 1 or m.shape[1] != m.shape[2] or m.shape[1] < 1:
        raise ValueError(f"expected a stack of square matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    n = m.shape[1]
    sym = 0.5 * (m + m.transpose(0, 2, 1))
    work = sym.copy()
    vecs = np.broadcast_to(np.eye(n), sym.shape).copy()
    sweeps = _kernel.jacobi_stack(work, vecs, REL_TOL, MAX_SWEEPS)
    if np.any(sweeps < 0):
        member = int(np.flatnonzero(sweeps < 0)[0])
        raise ConvergenceError(
            f"no convergence within {MAX_SWEEPS} sweeps (member {member}, n={n})"
        )

    vals = np.diagonal(work, axis1=1, axis2=2)
    order = np.argsort(vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    vecs = np.take_along_axis(vecs, order[:, np.newaxis, :], axis=2)

    ortho = np.max(np.abs(vecs.transpose(0, 2, 1) @ vecs - np.eye(n)), axis=(1, 2))
    resid = np.max(np.abs(sym @ vecs - vecs * vals[:, np.newaxis, :]), axis=(1, 2))
    scale = 1.0 + np.max(np.abs(sym), axis=(1, 2))
    bad = np.flatnonzero((ortho > 1e-12) | (resid > 1e-10 * scale))
    if bad.size:
        member = int(bad[0])
        raise ConvergenceError(
            f"decomposition check failed for member {member}: orthogonality "
            f"{ortho[member]:.3e}, residual {resid[member]:.3e}"
        )
    for array in (vals, vecs, sweeps):
        array.setflags(write=False)
    return EigenSystem(values=vals, vectors=vecs, sweeps=sweeps)


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
