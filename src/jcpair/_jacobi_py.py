"""Cyclic Jacobi sweeps: the rotation kernels behind ``linalg.eig_sym``.

Two entry points, and this module alone picks the sweep body of each.
``jacobi_stack`` solves a ``(B, n, n)`` stack of matrices; ``jacobi_cycle``
solves one matrix as the two halves it splits into under an exchange of its
rows (``linalg._parity_sweep``; a matrix that exchanges no rows is its even
half, beside an all-zero odd half).  There are three bodies:

* ``_cycle_lists``: one matrix on nested Python lists, in the row-cyclic
  order.  ``jacobi_cycle`` runs it below ``_ROWS_FROM_N`` rows, on each
  half in turn;
* ``_sweep_many``: the row-cyclic order with NumPy, each rotation one set of
  operations over the members, with ``_cycle_lists``' bits and sweep counts
  for every member, however many are still live.  ``jacobi_stack`` always
  runs it, so a member's bits do not depend on the size of its stack;
* ``_sweep_rounds``: the round-robin order of Brent & Luk (SIAM J. Sci.
  Stat. Comput. 6, 1985), n/2 disjoint rotations per member at once, one
  set of NumPy operations per round over every live member.
  ``jacobi_cycle`` runs it from ``_ROWS_FROM_N`` rows up, on both halves
  together, so each round's fixed NumPy call cost is paid once for both.

The NumPy bodies keep each member as the rows of ``W = [A | V^T]``, so one
update of rows p and q rotates A and V together.  Below the boundary a
matrix gets the same bits alone and in any stack; from the boundary up,
alone, it gets other bits, which pass the same checks.  Both entry points
copy their results back into the arrays they were given.

Each NumPy call costs a fixed time, so lists win for small single matrices
and round-robin rounds for large ones.  Best of 3 to 7 runs on a 2-vCPU
Xeon VM, whose speed drifts: a dense 48x48 takes 17-40 ms in rounds against
about 90 ms on lists; the two are level at n = 16-17, and rounds take
0.73-0.78x the lists' time at n = 18-19 and 0.54-0.74x from n = 20.  Two
dense halves of 17, 20 or 24 rows take 3.9, 4.5 or 7.0 ms in shared rounds,
against 6.2, 7.2 or 9.8 ms in two calls.

A matrix zero-padded to a larger size keeps its bits in the row-cyclic
order, on lists or in ``_sweep_many``: its padded pivots are +0.0 and are
skipped, its own rotations write +0.0 into its padding, and its norms only
add +0.0.  In ``_sweep_rounds`` the same holds, but the padding moves the
member's rotations into other rounds, so its bits are those of the padded
size.  ``linalg.eig_sym_many`` sorts a padded stack by size, largest first,
so the members that rotate at each pivot are a leading block, which
``_sweep_many`` rotates in place; members in any other order are gathered
and scattered two rows at a time.

Input contract: max|A| has a ``frexp`` exponent within +-450 (``linalg``
ensures it), so ||A||_F^2 is a normal float, and an off-diagonal sum of
squares that underflows is far below the stopping threshold: norms are plain sums.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Single matrices, and pairs of exchange halves, with at least this many
# rows run the round-robin order.  On dense matrices, best of 7 on a 2-vCPU
# Xeon VM, rounds take 1.22x the lists' time at 15 rows, 0.98-1.02x at 16
# and 17 (3.2 ms each), 0.75x at 18 and 0.62-0.66x at 20.  17 is the lowest
# boundary that keeps the 16-row single solves on lists with the bits they
# share with stacks.  The sector blocks whose even half has this many rows
# are nu = 8..12 (17-25 rows).
_ROWS_FROM_N = 17


def jacobi_cycle(a, v, rel_tol: float, max_sweeps: int) -> int:
    """Run cyclic Jacobi sweeps in place on one matrix, given as its two halves.

    ``a`` is a (2, m, m) float64 stack: the even and odd halves of one
    matrix under an exchange of its rows, the smaller half zero-padded to m
    (``linalg._parity_sweep``).  Rotations are accumulated into ``v``, a
    stack of two identities, so on return the columns of each ``v[h]`` are
    eigenvectors of half h and the diagonal of ``a[h]`` holds its
    eigenvalues, unsorted.  Returns one int: the larger of the two halves'
    sweep counts, or -1 if the off-diagonal Frobenius norm of either half
    did not drop below ``rel_tol * ||A||_F`` within ``max_sweeps`` sweeps.
    An all-zero half converges at sweep 0, so it adds no sweep.

    Below ``_ROWS_FROM_N`` rows each half takes the row-cyclic order on
    lists, with the bits it gets unpadded.  From there up the halves take
    the round-robin order together, in the same rounds, and each leaves
    them once it has converged, as in ``jacobi_stack``; a half gets the
    bits it gets alone at its padded size.
    """
    if a.shape[1] < _ROWS_FROM_N:
        sweeps = [_cycle_lists(part, vecs, rel_tol, max_sweeps) for part, vecs in zip(a, v)]
    else:
        sweeps = _solve_stack(a, v, rel_tol, max_sweeps, _sweep_rounds).tolist()
    return -1 if min(sweeps) < 0 else max(sweeps)


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
            row_p = aw[p]
            for q in range(p + 1, n):
                apq = row_p[q]
                if apq == 0.0:
                    continue
                row_q = aw[q]
                t, c, s = _angle(row_p[p], row_q[q], apq)
                row_p[p] -= t * apq
                row_q[q] += t * apq
                row_p[q] = 0.0
                row_q[p] = 0.0
                for k in range(n):
                    if k != p and k != q:
                        row_k = aw[k]
                        akp = row_k[p]
                        akq = row_k[q]
                        row_k[p] = row_p[k] = c * akp - s * akq
                        row_k[q] = row_q[k] = s * akp + c * akq
                for row in vw:
                    vkp = row[p]
                    vkq = row[q]
                    row[p] = c * vkp - s * vkq
                    row[q] = s * vkp + c * vkq
        sweeps_done += 1
    a[:] = aw
    v[:] = vw
    return sweeps_done


def _norms(entries, weight: float):
    """``sqrt(sum(weight * x * x))`` over each row of the (B, k) ``entries``.

    Sums run in order, as ``cumsum`` does (``sum`` is pairwise), which is the
    list loop's order.  Under the module's input contract no square overflows.
    """
    return np.sqrt(np.cumsum((weight * entries) * entries, axis=1)[:, -1])


def jacobi_stack(a, v, rel_tol: float, max_sweeps: int):
    """Run row-cyclic sweeps on every member of the (B, n, n) float64 stack ``a``.

    ``v`` is a stack of identities that receives the rotations.  Returns an
    int64 array of B sweep counts, -1 for a member that hit ``max_sweeps``.

    Every sweep is ``_sweep_many``, whose bits equal ``_cycle_lists``', so a
    member gets the same bits however many members share the stack: norms
    come from ``_norms``, a member whose pivot is zero is not rotated at all
    (a ``t = 0`` rotation can flip the sign of a zero), and rows p and q become
    ``c*w_p - s*w_q`` and ``s*w_p + c*w_q``, the list loop's values for A
    (which stays exactly symmetric) and for V.  Overflow stays silent, as in
    Python float arithmetic.  A member is written back to ``a`` and ``v`` and
    leaves the stack once it has converged.
    """
    return _solve_stack(a, v, rel_tol, max_sweeps, _sweep_many)


def _solve_stack(a, v, rel_tol: float, max_sweeps: int, sweep):
    """The sweep loop of ``jacobi_stack`` and of ``jacobi_cycle``'s rounds, with ``sweep`` as its body."""
    count, n = a.shape[0], a.shape[1]
    sweeps = np.zeros(count, dtype=np.int64)
    if n < 2:
        return sweeps
    rows, cols = np.triu_indices(n, 1)  # row-major, the list loop's order
    # C order, so the flat views in _sweep_rounds write through to w.
    w = np.ascontiguousarray(np.concatenate((a, v.transpose(0, 2, 1)), axis=2))
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
            sweep(w)
            sweeps_done += 1


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The row-cyclic pivot order: (p, q) for p < q, row by row."""
    rows, cols = np.triu_indices(n, 1)
    return tuple(zip(rows.tolist(), cols.tolist()))


def _sweep_many(w) -> None:
    """One row-cyclic sweep of every member of the (B, n, 2n) row stack ``w``."""
    for p, q in _pairs(w.shape[1]):
        nonzero = w[:, p, q] != 0.0
        k = np.count_nonzero(nonzero)
        if not k:
            continue
        # Every member, or the leading block as in a size-sorted padded stack,
        # is rotated through views; any other set through its indices.
        _rotate(w, slice(0, k) if nonzero[:k].all() else np.flatnonzero(nonzero), p, q)


def _angles(app, aqq, apq):
    """``_angle`` over arrays, with the same bits for every nonzero pivot."""
    tau = (aqq - app) / (2.0 * apq)
    # Equals both branches of _angle's root exactly; the sum is >= 1.
    t = np.where(tau >= 0.0, 1.0, -1.0) * (1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau)))
    c = 1.0 / np.sqrt(1.0 + t * t)
    return t, c, t * c


def _rotate(w, members, p, q) -> None:
    """One (p, q) rotation of the ``members`` of ``w``, all pivots nonzero."""
    n = w.shape[1]
    row_p, row_q = w[members, p], w[members, q]
    app, aqq, apq = row_p[:, p], row_q[:, q], row_p[:, q]
    t, c, s = _angles(app, aqq, apq)
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


@functools.lru_cache(maxsize=None)
def _rounds(n: int) -> np.ndarray:
    """The flat gather that ends each round of ``_sweep_rounds`` on n rows.

    A round pairs slots 2k and 2k + 1 of the rows ``[A | V^T]``.  Between
    rounds the indices move as in a round-robin tournament of ``n + n % 2``
    players: the player in the last slot stays, and the others step once
    around a circle.  Over ``n + n % 2 - 1`` rounds every two indices meet
    once, and then each index is back in its own slot.  For an odd n the
    player that stays is a missing index n, so the index in slot n - 1 is
    idle.  The gather takes every entry of A from the upper triangle, which
    also makes A exactly symmetric again.
    """
    size = n + n % 2
    half = size // 2
    # Circle position j sits in slot 2j in the first half, 2(size-1-j)+1 after,
    # so positions j and size-1-j are paired, and position half is the last slot.
    slot = [2 * j if j < half else 2 * (size - 1 - j) + 1 for j in range(size)]
    circle = [j for j in range(size) if j != half]
    src = np.arange(size)
    for k, j in enumerate(circle):
        src[slot[circle[(k + 1) % len(circle)]]] = slot[j]
    src = src[:n]
    lo, hi = np.minimum.outer(src, src), np.maximum.outer(src, src)
    gather = np.concatenate((lo * 2 * n + hi, src[:, None] * 2 * n + np.arange(n, 2 * n)), axis=1)
    gather.setflags(write=False)
    return gather


def _sweep_rounds(w) -> None:
    """One round-robin sweep of every member of the (B, n, 2n) row stack ``w``.

    Each round rotates every slot pair (2k, 2k + 1) whose pivot is nonzero,
    in every member at once: the angles are ``_angles`` over the pairs, rows
    2k and 2k + 1 of ``[A | V^T]`` are updated, then columns 2k and 2k + 1
    of A, and the pivot blocks get their exact diagonal entries and zeros.
    A pair whose pivot is zero is not written.  ``_rounds``' gather then
    mirrors A and moves the next round's pairs into place, in a second
    buffer.  The operations are elementwise, so each member gets the bits
    it gets alone.
    """
    n = w.shape[1]
    # One member is swept as its (n, 2n) rows: NumPy runs a 1-D strided view
    # of the pivots faster than a (1, n/2) one.
    stack = w[0] if len(w) == 1 else w
    gather = _rounds(n)
    npairs = n // 2
    step = 4 * n + 2  # from one pivot block to the next in a member's flat rows
    stop = step * npairs
    views = []
    for rows in (stack, np.empty_like(stack)):
        flat = rows.reshape(*rows.shape[:-2], -1)
        views.append((
            rows, flat, rows[..., 0 : 2 * npairs : 2, :], rows[..., 1 : 2 * npairs : 2, :],
            # Columns as (n, [B,] n/2), so the pairs' angles broadcast over them.
            rows[..., 0 : 2 * npairs : 2].swapaxes(-2, 0),
            rows[..., 1 : 2 * npairs : 2].swapaxes(-2, 0),
            flat[..., 0:stop:step], flat[..., 2 * n + 1 : stop : step], flat[..., 1:stop:step],
        ))
    # A zero pivot's angle is NaN or zero, and is never written.
    with np.errstate(divide="ignore", invalid="ignore"):
        for r in range(n + n % 2 - 1):
            _, flat, row_p, row_q, col_p, col_q, app, aqq, apq = views[r % 2]
            keep = apq != 0.0
            kept = np.count_nonzero(keep)
            if kept:
                row_kept, col_kept = (True, True) if kept == keep.size else (keep[..., None], keep)
                t, c, s = _angles(app, aqq, apq)
                shift = t * apq
                new_pp, new_qq = app - shift, aqq + shift
                _pair_update(row_p, row_q, c[..., None], s[..., None], row_kept)
                _pair_update(col_p, col_q, c, s, col_kept)
                np.copyto(app, new_pp, where=col_kept)
                np.copyto(aqq, new_qq, where=col_kept)
                np.copyto(apq, 0.0, where=col_kept)
            np.take(flat, gather, axis=-1, out=views[1 - r % 2][0], mode="clip")
    stack[...] = views[1][0]


def _pair_update(x_p, x_q, c, s, where) -> None:
    """``x_p, x_q = c*x_p - s*x_q, s*x_p + c*x_q``, written ``where`` given."""
    cp, sq, sp, cq = c * x_p, s * x_q, s * x_p, c * x_q
    np.subtract(cp, sq, out=x_p, where=where)
    np.add(sp, cq, out=x_q, where=where)
