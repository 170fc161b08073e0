"""Cyclic Jacobi sweeps: the rotation kernels behind ``linalg.eig_sym``.

``jacobi_cycle`` solves one matrix.  Below ``_ROWS_FROM_N`` rows it runs
``_cycle_lists`` on nested Python lists copied from the input arrays; from
there up it runs ``_cycle_rows``, whose rotations are whole-row NumPy calls on
``[A | V^T]``.  ``jacobi_stack`` runs the same sweep on every member of a
``(B, n, n)`` stack at once, one set of NumPy operations per rotation.  All
of them copy their results back into the arrays they were given, and every
path gives the same bits and sweep counts for the same matrix.

The NumPy paths pay a fixed cost per call, so lists win for small single
matrices and rows for large ones.  Best-of-5 on a 2-vCPU Xeon VM: a dense
48x48 takes 70-100 ms as rows against 190-240 ms as lists, lists lead by
10-50% at n = 16, and the two tie at n = 20.

A member zero-padded to a larger size keeps its bits in ``jacobi_stack``:
its padded pivots are +0.0 and are skipped, and its own rotations write
+0.0 into its padding.  ``linalg.eig_sym_many`` sorts such a stack by size,
largest first, so the members that rotate at each pivot are a leading block,
which ``jacobi_stack`` rotates in place.  For ``validate``'s eigensolver-suite
matrices at 8 seeds (best of 5, interleaved) that takes 0.27 s, against
0.36 s gathering and scattering the rotating members and 0.65 s solving one
matrix at a time.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# Single matrices with at least this many rows run ``_cycle_rows``, measured
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
    sweep = _cycle_rows if a.shape[0] >= _ROWS_FROM_N else _cycle_lists
    return sweep(a, v, rel_tol, max_sweeps)


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
                # Rotation angle that zeroes a[p][q]; the smaller root of
                # t^2 + 2*tau*t - 1 = 0 keeps |t| <= 1 for stability.
                tau = (aw[q][q] - aw[p][p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
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


def _cycle_rows(a, v, rel_tol: float, max_sweeps: int) -> int:
    """``_cycle_lists`` with each rotation as whole-row NumPy calls.

    The work array is ``W = [A | V^T]``, so rotating rows p and q of ``W``
    updates rows p and q of A and columns p and q of V together; two column
    writes restore the symmetry of A, and four scalar sets give the pivot
    pair's exact diagonal entries and zeros.  The angle is Python-float
    arithmetic on entries read with ``W.item``, as in the list loop, and the
    norms come from ``_norms``, which sums in the list loop's order.
    """
    n = a.shape[0]
    if n < 2:
        return 0
    w = np.concatenate((a, v.T), axis=1)
    sq = w[:, :n]
    rows, cols = np.triu_indices(n, 1)  # row-major, the list loop's order
    minus_s_s = np.empty((2, 1))
    sweeps_done = 0
    with np.errstate(over="ignore"):
        thresh = rel_tol * _norms(sq.reshape(1, n * n), 1.0).item()
        while True:
            if _norms(sq[rows, cols].reshape(1, -1), 2.0).item() <= thresh:
                break
            if sweeps_done == max_sweeps:
                sweeps_done = -1
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = w.item(p, q)
                    if apq == 0.0:
                        continue
                    app, aqq = w.item(p, p), w.item(q, q)
                    # The list loop's angle, operation for operation.
                    tau = (aqq - app) / (2.0 * apq)
                    if tau >= 0.0:
                        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                    else:
                        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                    c = 1.0 / math.sqrt(1.0 + t * t)
                    s = t * c
                    # Rows p and q become c*w_p - s*w_q and c*w_q + s*w_p,
                    # the list loop's values: a + (-b) rounds as a - b.
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
            sweeps_done += 1
    a[:] = sq
    v[:] = w[:, n:].T
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

    Bit-identity with ``jacobi_cycle`` fixes the arithmetic: norms come from
    ``_norms``, a member whose pivot is zero is not rotated at all (a
    ``t = 0`` rotation can flip the sign of a zero), and both roots of the
    rotation angle come from one expression.  Overflow stays silent, as in
    Python float arithmetic.  A member leaves the stack once it has
    converged.
    """
    count, n = a.shape[0], a.shape[1]
    sweeps = np.zeros(count, dtype=np.int64)
    if n < 2:
        return sweeps
    rows, cols = np.triu_indices(n, 1)  # row-major, the list loop's order
    pairs = list(zip(rows.tolist(), cols.tolist()))
    aw, vw = a.copy(), v.copy()
    live = np.arange(count)
    sweeps_done = 0
    with np.errstate(over="ignore"):
        thresh = rel_tol * _norms(aw.reshape(count, n * n), 1.0)
        while live.size:
            converged = _norms(aw[:, rows, cols], 2.0) <= thresh
            done = converged | (sweeps_done == max_sweeps)
            if done.any():
                members = live[done]
                a[members] = aw[done]
                v[members] = vw[done]
                sweeps[members] = np.where(converged[done], sweeps_done, -1)
                keep = ~done
                live, aw, vw, thresh = live[keep], aw[keep], vw[keep], thresh[keep]
                if not live.size:
                    break
            for p, q in pairs:
                nonzero = aw[:, p, q] != 0.0
                k = np.count_nonzero(nonzero)
                if not k:
                    continue
                if nonzero[:k].all():
                    # Every member, or the leading block as in a size-sorted
                    # padded stack: rotate the views in place.
                    _rotate(aw[:k], vw[:k], p, q)
                else:
                    sub = np.flatnonzero(nonzero)
                    sub_a, sub_v = aw[sub], vw[sub]
                    _rotate(sub_a, sub_v, p, q)
                    aw[sub], vw[sub] = sub_a, sub_v
            sweeps_done += 1
    return sweeps


def _rotate(a, v, p, q) -> None:
    """One (p, q) rotation of every member of the stack, all pivots nonzero."""
    app, aqq, apq = a[:, p, p], a[:, q, q], a[:, p, q]
    tau = (aqq - app) / (2.0 * apq)
    # Equals both branches of jacobi_cycle's root exactly; the sum is >= 1.
    t = np.where(tau >= 0.0, 1.0, -1.0) * (1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau)))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    shift = t * apq
    new_pp, new_qq = app - shift, aqq + shift
    c, s = c[:, None], s[:, None]
    # Columns p and q for every k; the entries at k = p and k = q are
    # overwritten below, exactly as the list loop skips them.
    akp, akq = a[:, :, p], a[:, :, q]
    col_p, col_q = c * akp - s * akq, s * akp + c * akq
    a[:, :, p] = col_p
    a[:, :, q] = col_q
    a[:, p, :] = col_p
    a[:, q, :] = col_q
    a[:, p, p] = new_pp
    a[:, q, q] = new_qq
    a[:, p, q] = 0.0
    a[:, q, p] = 0.0
    vkp, vkq = v[:, :, p], v[:, :, q]
    v[:, :, p], v[:, :, q] = c * vkp - s * vkq, s * vkp + c * vkq
