"""Cyclic Jacobi sweeps: the rotation kernels behind ``linalg.eig_sym``.

Two drivers run the same row-cyclic sweep.  ``_cycle_lists`` solves one
matrix on nested Python lists copied from the input arrays.  ``jacobi_stack``
solves a ``(B, n, n)`` stack with NumPy, keeping each member as the rows of
``W = [A | V^T]``, so one update of rows p and q rotates A and V together.
While two or more members are live, each rotation is one set of NumPy
operations over the members; once one is left, its sweep runs pivot by pivot
with Python-float angles and whole-row NumPy calls.  ``jacobi_cycle`` solves
one matrix: below ``_ROWS_FROM_N`` rows with the list loop, from there up as
a stack of one.  Both drivers copy their results back into the arrays they
were given, and both give the same bits and sweep counts for the same matrix.

Each NumPy call costs a fixed time, so lists win for small single matrices
and a stack of one for large ones.  Best-of-5 on a 2-vCPU Xeon VM: a dense
48x48 takes about 110 ms as a stack of one against 240-260 ms as lists,
lists lead by 20-30% at n = 16, and the two are within 10% at n = 20.

A member zero-padded to a larger size keeps its bits in ``jacobi_stack``:
its padded pivots are +0.0 and are skipped, and its own rotations write
+0.0 into its padding.  ``linalg.eig_sym_many`` sorts such a stack by size,
largest first, so the members that rotate at each pivot are a leading block,
which ``jacobi_stack`` rotates in place; members in any other order are
gathered and scattered two rows at a time.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# Single matrices with at least this many rows run ``jacobi_stack``, measured
# on dense and sector blocks at n = 16..32.
_ROWS_FROM_N = 21

# Sums of squares below this are zero or subnormal and have lost digits.
_TINY = sys.float_info.min


def jacobi_cycle(a, v, rel_tol: float, max_sweeps: int) -> int:
    """Run cyclic Jacobi sweeps in place on the (n, n) float64 array ``a``.

    Rotations are accumulated into ``v`` (passed in as the identity), so on
    return the columns of ``v`` are eigenvectors and ``diag(a)`` holds the
    eigenvalues, unsorted.  Returns the number of sweeps performed, or -1
    if the off-diagonal Frobenius norm did not drop below
    ``rel_tol * ||A||_F`` within ``max_sweeps`` sweeps.
    """
    if a.shape[0] < _ROWS_FROM_N:
        return _cycle_lists(a, v, rel_tol, max_sweeps)
    return int(jacobi_stack(a[np.newaxis], v[np.newaxis], rel_tol, max_sweeps)[0])


def _angle(app: float, aqq: float, apq: float) -> tuple[float, float, float]:
    """``(t, c, s)`` of the rotation that zeroes the nonzero pivot ``apq``.

    The smaller root of t^2 + 2*tau*t - 1 = 0 keeps |t| <= 1 for stability.
    """
    tau = (aqq - app) / (2.0 * apq)
    if tau >= 0.0:
        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    return t, c, t * c


def _cycle_lists(a, v, rel_tol: float, max_sweeps: int) -> int:
    """``jacobi_cycle`` on nested Python lists."""
    n = a.shape[0]
    aw = a.tolist()
    vw = v.tolist()

    total = 0.0
    for i in range(n):
        row = aw[i]
        for j in range(n):
            total += row[j] * row[j]
    if total == math.inf or total < _TINY:
        with np.errstate(over="ignore"):
            norm = _norms(a.reshape(1, n * n), 1.0).item()
    else:
        norm = math.sqrt(total)
    thresh = rel_tol * norm

    sweeps_done = 0
    while True:
        off = 0.0
        for i in range(n - 1):
            row = aw[i]
            for j in range(i + 1, n):
                off += 2.0 * row[j] * row[j]
        # An exact zero is common (2x2s, block matrices) and needs no redo.
        if off == math.inf or (
            off < _TINY and any(aw[i][j] for i in range(n - 1) for j in range(i + 1, n))
        ):
            with np.errstate(over="ignore"):
                off_norm = _norms(np.array(aw)[np.triu_indices(n, 1)][np.newaxis], 2.0).item()
        else:
            off_norm = math.sqrt(off)
        if off_norm <= thresh:
            break
        if sweeps_done == max_sweeps:
            sweeps_done = -1
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = aw[p][q]
                if apq == 0.0:
                    continue
                t, c, s = _angle(aw[p][p], aw[q][q], apq)
                aw[p][p] -= t * apq
                aw[q][q] += t * apq
                aw[p][q] = 0.0
                aw[q][p] = 0.0
                for k in range(n):
                    if k != p and k != q:
                        akp = aw[k][p]
                        akq = aw[k][q]
                        aw[k][p] = c * akp - s * akq
                        aw[k][q] = s * akp + c * akq
                        aw[p][k] = aw[k][p]
                        aw[q][k] = aw[k][q]
                for k in range(n):
                    vkp = vw[k][p]
                    vkq = vw[k][q]
                    vw[k][p] = c * vkp - s * vkq
                    vw[k][q] = s * vkp + c * vkq
        sweeps_done += 1
    a[:] = aw
    v[:] = vw
    return sweeps_done


def _norms(entries, weight: float):
    """``sqrt(sum(weight * x * x))`` over each row of the (B, k) ``entries``.

    Sums run in order, as ``cumsum`` does (``sum`` is pairwise), which is
    the list loop's order.  A row whose sum overflows, or underflows to zero
    or a subnormal although the row is not all zeros, is summed again over
    ``x / max|x|`` and its root scaled back; the sums of every other row,
    and so their bits, stay as they are.  Call under
    ``np.errstate(over="ignore")``.
    """
    sums = np.cumsum((weight * entries) * entries, axis=1)[:, -1]
    norms = np.sqrt(sums)
    redo = np.flatnonzero((sums == np.inf) | (sums < _TINY))
    if redo.size:
        scale = np.max(np.abs(entries[redo]), axis=1)
        nonzero = scale > 0.0
        redo, scale = redo[nonzero], scale[nonzero]
        x = entries[redo] / scale[:, np.newaxis]
        norms[redo] = scale * np.sqrt(np.cumsum((weight * x) * x, axis=1)[:, -1])
    return norms


def jacobi_stack(a, v, rel_tol: float, max_sweeps: int):
    """Run ``jacobi_cycle`` on every member of the (B, n, n) float64 stack ``a``.

    ``v`` is a stack of identities that receives the rotations.  Returns an
    int64 array of B sweep counts, -1 for a member that hit ``max_sweeps``.

    Bit-identity with ``_cycle_lists`` fixes the arithmetic: norms come from
    ``_norms``, a member whose pivot is zero is not rotated at all (a
    ``t = 0`` rotation can flip the sign of a zero), and rows p and q become
    ``c*w_p - s*w_q`` and ``s*w_p + c*w_q``, the list loop's values for A
    (which stays exactly symmetric) and for V.  Overflow stays silent, as in
    Python float arithmetic.  A member is written back to ``a`` and ``v`` and
    leaves the stack once it has converged.
    """
    count, n = a.shape[0], a.shape[1]
    sweeps = np.zeros(count, dtype=np.int64)
    if n < 2:
        return sweeps
    rows, cols = np.triu_indices(n, 1)  # row-major, the list loop's order
    pairs = list(zip(rows.tolist(), cols.tolist()))
    w = np.concatenate((a, v.transpose(0, 2, 1)), axis=2)
    live = np.arange(count)
    sweeps_done = 0
    with np.errstate(over="ignore"):
        thresh = rel_tol * _norms(a.reshape(count, n * n), 1.0)
        while True:
            converged = _norms(w[:, rows, cols], 2.0) <= thresh
            done = converged | (sweeps_done == max_sweeps)
            if done.any():
                members = live[done]
                a[members] = w[done, :, :n]
                v[members] = w[done, :, n:].transpose(0, 2, 1)
                sweeps[members] = np.where(converged[done], sweeps_done, -1)
                keep = ~done
                live, w, thresh = live[keep], w[keep], thresh[keep]
                if not live.size:
                    return sweeps
            if live.size == 1:
                _sweep_one(w[0], pairs)
            else:
                _sweep_many(w, pairs)
            sweeps_done += 1


def _sweep_one(w, pairs) -> None:
    """One sweep of the single member whose rows are the (n, 2n) array ``w``.

    Pivots are read with ``w.item`` and the angle is ``_angle``'s Python-float
    arithmetic; each rotation is one pass over rows p and q, two column
    writes that restore the symmetry of A, and four scalar sets that give the
    pivot pair's exact diagonal entries and zeros.
    """
    n = w.shape[0]
    sq = w[:, :n]
    minus_s_s = np.empty((2, 1))
    for p, q in pairs:
        apq = w.item(p, q)
        if apq == 0.0:
            continue
        app, aqq = w.item(p, p), w.item(q, q)
        t, c, s = _angle(app, aqq, apq)
        # Rows p and q become c*w_p - s*w_q and c*w_q + s*w_p: a + (-b)
        # rounds as a - b.
        pair = w[p : q + 1 : q - p]
        minus_s_s[0, 0], minus_s_s[1, 0] = -s, s
        rotated = c * pair
        rotated += pair[::-1] * minus_s_s
        pair[...] = rotated
        sq[:, p] = sq[p]
        sq[:, q] = sq[q]
        shift = t * apq
        w[p, p] = app - shift
        w[q, q] = aqq + shift
        w[p, q] = w[q, p] = 0.0


def _sweep_many(w, pairs) -> None:
    """One sweep of every member of the (B, n, 2n) row stack ``w``."""
    for p, q in pairs:
        nonzero = w[:, p, q] != 0.0
        k = np.count_nonzero(nonzero)
        if not k:
            continue
        # Every member, or the leading block as in a size-sorted padded stack,
        # is rotated through views; any other set through its indices.
        _rotate(w, slice(0, k) if nonzero[:k].all() else np.flatnonzero(nonzero), p, q)


def _rotate(w, members, p, q) -> None:
    """One (p, q) rotation of the ``members`` of ``w``, all pivots nonzero."""
    n = w.shape[1]
    row_p, row_q = w[members, p], w[members, q]
    app, aqq, apq = row_p[:, p], row_q[:, q], row_p[:, q]
    tau = (aqq - app) / (2.0 * apq)
    # Equals both branches of _angle's root exactly; the sum is >= 1.
    t = np.where(tau >= 0.0, 1.0, -1.0) * (1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau)))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    shift = t * apq
    new_pp, new_qq = app - shift, aqq + shift
    c, s = c[:, None], s[:, None]
    # The entries at k = p and k = q are overwritten below, exactly as the
    # list loop skips them.
    new_p, new_q = c * row_p - s * row_q, s * row_p + c * row_q
    w[members, p] = new_p
    w[members, q] = new_q
    w[members, :, p] = new_p[:, :n]
    w[members, :, q] = new_q[:, :n]
    w[members, p, p] = new_pp
    w[members, q, q] = new_qq
    w[members, p, q] = 0.0
    w[members, q, p] = 0.0
