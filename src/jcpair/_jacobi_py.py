"""Cyclic Jacobi sweeps: the rotation kernels behind ``linalg.eig_sym``.

``jacobi_cycle`` solves one matrix on nested Python lists copied from the
input arrays; ``jacobi_stack`` runs the same sweep on every member of a
``(B, n, n)`` stack at once, one set of NumPy operations per rotation.  Both
copy their results back into the arrays they were given, and a member of a
stack comes out with the same bits and sweep count as ``jacobi_cycle`` gives
for it alone.
"""

from __future__ import annotations

import math

import numpy as np


def jacobi_cycle(a, v, rel_tol: float, max_sweeps: int) -> int:
    """Run cyclic Jacobi sweeps in place on the (n, n) float64 array ``a``.

    Rotations are accumulated into ``v`` (passed in as the identity), so on
    return the columns of ``v`` are eigenvectors and ``diag(a)`` holds the
    eigenvalues, unsorted.  Returns the number of sweeps performed, or -1
    if the off-diagonal Frobenius norm did not drop below
    ``rel_tol * ||A||_F`` within ``max_sweeps`` sweeps.
    """
    n = a.shape[0]
    aw = a.tolist()
    vw = v.tolist()

    total = 0.0
    for i in range(n):
        row = aw[i]
        for j in range(n):
            total += row[j] * row[j]
    thresh = rel_tol * math.sqrt(total)

    sweeps_done = 0
    while True:
        off = 0.0
        for i in range(n - 1):
            row = aw[i]
            for j in range(i + 1, n):
                off += 2.0 * row[j] * row[j]
        if math.sqrt(off) <= thresh:
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


def jacobi_stack(a, v, rel_tol: float, max_sweeps: int):
    """Run ``jacobi_cycle`` on every member of the (B, n, n) float64 stack ``a``.

    ``v`` is a stack of identities that receives the rotations.  Returns an
    int64 array of B sweep counts, -1 for a member that hit ``max_sweeps``.

    Bit-identity with ``jacobi_cycle`` fixes the arithmetic: sums run through
    ``cumsum`` (sequential, like the list loop; ``sum`` is pairwise), a
    member whose pivot is zero is not rotated at all (a ``t = 0`` rotation
    can flip the sign of a zero), and both roots of the rotation angle come
    from one expression.  Overflow stays silent, as in Python float
    arithmetic.  A member leaves the stack once it has converged.
    """
    count, n = a.shape[0], a.shape[1]
    sweeps = np.zeros(count, dtype=np.int64)
    if n < 2:
        return sweeps
    rows, cols = np.triu_indices(n, 1)  # row-major, the list loop's order
    pairs = list(zip(rows.tolist(), cols.tolist()))
    aw, vw = a.copy(), v.copy()
    live = np.arange(count)
    thresh = rel_tol * np.sqrt(np.cumsum((aw * aw).reshape(count, n * n), axis=1)[:, -1])
    sweeps_done = 0
    with np.errstate(over="ignore"):
        while live.size:
            upper = aw[:, rows, cols]
            off = np.cumsum((2.0 * upper) * upper, axis=1)[:, -1]
            converged = np.sqrt(off) <= thresh
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
                if nonzero.all():
                    _rotate(aw, vw, p, q)
                elif nonzero.any():
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
