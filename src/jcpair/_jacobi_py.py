"""Cyclic Jacobi sweeps: the rotation kernel behind ``linalg.eig_sym``.

The sweeps run on nested Python lists copied from the input arrays; the
results are copied back into those arrays on return.
"""

from __future__ import annotations

import math


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
