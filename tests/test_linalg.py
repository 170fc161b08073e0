import hashlib
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jcpair import linalg, validate
from jcpair.linalg import SymMatrix, eig_sym, eig_sym_many, eigenvalue_multiset_equal
from jcpair.model import SystemParams
from jcpair.sectors import build_hamiltonian, enumerate_sector


def eig2(a, b, c):
    """Closed-form eigenvalues of [[a, b], [b, c]], ascending (test oracle)."""
    mean = 0.5 * (a + c)
    root = math.hypot(0.5 * (a - c), b)
    return mean - root, mean + root


def random_symmetric(rng, n):
    m = [[rng.uniform(-5, 5) for _ in range(n)] for _ in range(n)]
    return SymMatrix(m)


class TestSymMatrix:
    def test_symmetrizes_input(self):
        m = SymMatrix([[1.0, 2.0], [4.0, 3.0]])
        assert m[0, 1] == m[1, 0] == 3.0

    def test_symmetric_input_unchanged(self):
        m = SymMatrix([[1.0, -0.3], [-0.3, 2.0]])
        assert m[0, 1] == -0.3 and m[0, 0] == 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SymMatrix([[1.0, math.nan], [math.nan, 1.0]])

    @pytest.mark.parametrize(
        "entries",
        [
            # Finite entries whose sum A + A^T overflows to inf.
            [[1.0, 1.7e308], [1.7e308, 1.0]],
            [[1.0, math.inf], [-math.inf, 1.0]],
        ],
    )
    def test_non_finite_symmetrization_rejected(self, entries):
        with pytest.raises(ValueError, match="finite"):
            SymMatrix(entries)
        with pytest.raises(ValueError, match="finite"):
            eig_sym(np.array(entries))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            SymMatrix([[1.0, 2.0, 3.0], [2.0, 1.0, 0.0]])


class TestEigSym:
    def test_identity(self):
        system = eig_sym(SymMatrix(np.eye(4)))
        assert np.array_equal(system.values, np.ones(4))
        assert np.max(np.abs(system.vectors.T @ system.vectors - np.eye(4))) <= 1e-12

    def test_two_by_two_exchange(self):
        system = eig_sym(SymMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(system.values, [-1.0, 1.0], atol=0)

    def test_one_by_one(self):
        system = eig_sym(SymMatrix([[-3.5]]))
        assert system.values[0] == -3.5
        assert system.vectors[0, 0] == 1.0

    def test_one_excitation_example_matrix(self):
        # Exchange symmetry splits this matrix into [[0,1],[1,-4]] on the
        # symmetric pair and [[0,1],[1,0]] on the antisymmetric pair; the
        # expected values come from the 2x2 closed form.
        h = SymMatrix(
            [
                [0.0, 1.0, 0.0, 0.0],
                [1.0, -2.0, -2.0, 0.0],
                [0.0, -2.0, -2.0, 1.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        expected = sorted(eig2(0.0, 1.0, -4.0) + eig2(0.0, 1.0, 0.0))
        assert np.allclose(eig_sym(h).values, expected, atol=1e-12)
        assert expected == pytest.approx(
            [-4.2360680, -1.0, 0.2360680, 1.0], abs=1e-7
        )

    def test_deterministic(self):
        a = random_symmetric(random.Random(7), 9)
        first = eig_sym(a)
        second = eig_sym(a)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)

    def test_non_finite_kernel_output_rejected(self, monkeypatch):
        cycle = linalg._kernel.jacobi_cycle

        def nan_on_diagonal(a, v, tol, cap):
            sweeps = cycle(a, v, tol, cap)
            a[0, 2, 2] = math.nan
            return sweeps

        monkeypatch.setattr(linalg._kernel, "jacobi_cycle", nan_on_diagonal)
        with pytest.raises(linalg.ConvergenceError, match="residual nan"):
            eig_sym(SymMatrix(np.eye(3)))

    @pytest.mark.parametrize("x", [1e-12, 1e-200])
    def test_check_scales_with_tiny_entries(self, monkeypatch, x):
        # A kernel that rotates nothing returns [0, 0] for eigenvalues +/-x;
        # its residual x is small in absolute terms but not against ||A||_max.
        monkeypatch.setattr(linalg._kernel, "jacobi_cycle", lambda a, v, tol, cap: 0)
        with pytest.raises(linalg.ConvergenceError, match="residual"):
            eig_sym(SymMatrix([[0.0, x], [x, 0.0]]))

    def test_subnormal_matrix_passes_the_check(self):
        x = 5e-324
        system = eig_sym(SymMatrix([[0.0, x], [x, 0.0]]))
        assert system.values.tolist() == [-x, x]

    def test_zero_matrix(self):
        system = eig_sym(SymMatrix(np.zeros((5, 5))))
        assert np.array_equal(system.values, np.zeros(5))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 12, 16])
    def test_residual_and_orthonormality(self, n):
        rng = random.Random(100 + n)
        for _ in range(5):
            a = random_symmetric(rng, n)
            system = eig_sym(a)
            assert np.all(np.diff(system.values) >= 0)
            resid = np.max(
                np.abs(a.to_array() @ system.vectors - system.vectors * system.values)
            )
            assert resid <= 1e-10 * (1 + a.max_abs())
            ortho = np.max(np.abs(system.vectors.T @ system.vectors - np.eye(n)))
            assert ortho <= 1e-12

    def test_trace_identity(self):
        rng = random.Random(5)
        for n in range(1, 17):
            a = random_symmetric(rng, n)
            assert float(np.trace(a.to_array())) == pytest.approx(
                float(np.sum(eig_sym(a).values)), abs=1e-10 * n * a.max_abs()
            )

    def test_similarity_invariance(self):
        rng = random.Random(11)
        for n in (2, 5, 9, 16):
            a = random_symmetric(rng, n)
            q = np.eye(n)
            for i in range(n - 1):
                for j in range(i + 1, n):
                    angle = rng.uniform(0, 2 * math.pi)
                    rot = np.eye(n)
                    rot[i, i] = rot[j, j] = math.cos(angle)
                    rot[i, j] = math.sin(angle)
                    rot[j, i] = -math.sin(angle)
                    q = q @ rot
            rotated = SymMatrix(q.T @ a.to_array() @ q)
            assert np.max(np.abs(eig_sym(rotated).values - eig_sym(a).values)) <= 1e-9


PINNED = [
    (1, 0, "8b652168da78d520b22ceea909a4a7ae012c176388f1c78f703e50b09e41168d"),
    (2, 1, "62eaa07ee8493e864c06c3e8821ba638ea037d7594af0ae168c267a96ab16706"),
    (4, 4, "3194ca45cbdcc7fc1e0d783b320b9602ddf4cc6102abdfd81c6fbcffd44a93c2"),
    (7, 5, "b4470bbb7e5dbb3eace0395caa48e2922a9f4499991225f7418f81f1b3159bd1"),
    (12, 6, "3fe38d955059cfdc9bcd2f13efa98dfcf3fdca71a64bfdd7b98503d55a25d633"),
    (16, 7, "a232f1d86381cdcc9cfc343c5462344c91ec18daa4d134c2bcb822acf1b180a3"),
    (48, 8, "d4fa4edc3163e24638a93bf6719cbdb3d6a5e4a91b9d60f77a0654786b706d79"),
]

# A single matrix from ROWS_FROM_N rows up takes the round-robin order, so
# its pin differs from the row-cyclic one that the stacked test keeps.
PINNED_SINGLE = [
    *PINNED[:-1],
    (48, 7, "46ddedda097367de723b78917a2ee47f55d1efb221f545cfa38e40f8813f1a29"),
]


class TestPinnedBits:
    """Bit-level regression gate for the Jacobi kernel.

    The sweep counts and SHA-256 digests pin the kernel's exact output; a
    rewrite of the rotation arithmetic (say, a batched kernel) must
    reproduce them bit for bit.
    """

    @pytest.mark.parametrize("n,sweeps,digest", PINNED_SINGLE)
    def test_sweeps_and_output_bits(self, n, sweeps, digest):
        a = random_symmetric(random.Random(1000 + n), n)
        work, vecs = a.to_array()[np.newaxis], np.eye(n)[np.newaxis]
        assert linalg._kernel.jacobi_cycle(work, vecs, linalg.REL_TOL, linalg.MAX_SWEEPS) == sweeps
        system = eig_sym(a)
        bits = system.values.tobytes() + system.vectors.tobytes()
        assert hashlib.sha256(bits).hexdigest() == digest


class TestPinnedBitsStacked:
    """``TestPinnedBits`` through the stacked kernel.

    Each pinned matrix shares its stack with an already-diagonal and a zero
    matrix, which converge at sweep 0 and leave the stack first.
    """

    @pytest.mark.parametrize("n,sweeps,digest", PINNED)
    def test_sweeps_and_output_bits(self, n, sweeps, digest):
        a = random_symmetric(random.Random(1000 + n), n)
        stack = np.stack([a.to_array(), np.diag(np.arange(n, 0, -1.0)), np.zeros((n, n))])
        system = eig_sym(stack)
        assert system.values.shape == (3, n) and system.vectors.shape == (3, n, n)
        assert system.sweeps.tolist() == [sweeps, 0, 0]
        bits = system.values[0].tobytes() + system.vectors[0].tobytes()
        assert hashlib.sha256(bits).hexdigest() == digest


# Entries include exact zeros of both signs, so members have zero pivots
# that a rotation must skip rather than apply with t = 0.
stack_entries = st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0)


@st.composite
def symmetric_stacks(draw):
    count, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    m = draw(arrays(np.float64, (count, n, n), elements=stack_entries))
    return 0.5 * (m + m.transpose(0, 2, 1))


class TestStackedKernel:
    @given(symmetric_stacks())
    def test_each_member_matches_jacobi_cycle(self, stack):
        count, n = stack.shape[:2]
        work, vecs = stack.copy(), np.broadcast_to(np.eye(n), stack.shape).copy()
        sweeps = linalg._kernel.jacobi_stack(work, vecs, linalg.REL_TOL, linalg.MAX_SWEEPS)
        for i in range(count):
            alone, alone_vecs = stack[i].copy(), np.eye(n)
            assert sweeps[i] == linalg._kernel.jacobi_cycle(
                alone[np.newaxis], alone_vecs[np.newaxis], linalg.REL_TOL, linalg.MAX_SWEEPS
            )
            assert work[i].tobytes() == alone.tobytes()
            assert vecs[i].tobytes() == alone_vecs.tobytes()

    def test_sweep_cap_marks_only_unconverged_members(self):
        a = random_symmetric(random.Random(1004), 4).to_array()
        stack = np.stack([a, np.eye(4)])
        vecs = np.broadcast_to(np.eye(4), stack.shape).copy()
        sweeps = linalg._kernel.jacobi_stack(stack, vecs, linalg.REL_TOL, 2)
        assert sweeps.tolist() == [-1, 0]

    def test_stack_is_symmetrized(self):
        stack = np.array([[[1.0, 2.0], [4.0, 3.0]], [[0.0, 1.0], [1.0, 0.0]]])
        system = eig_sym(stack)
        assert system.values[0].tobytes() == eig_sym(SymMatrix(stack[0])).values.tobytes()

    def test_outputs_are_read_only(self):
        system = eig_sym(np.stack([np.eye(3), np.ones((3, 3))]))
        for array in (system.values, system.vectors, system.sweeps):
            assert not array.flags.writeable

    def test_unconverged_member_named(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
        stack = np.stack([np.eye(4), random_symmetric(random.Random(1004), 4).to_array()])
        with pytest.raises(linalg.ConvergenceError, match="member 1"):
            eig_sym(stack)

    def test_failed_check_names_member(self, monkeypatch):
        # A kernel that rotates nothing leaves member 1 undiagonalized.
        monkeypatch.setattr(
            linalg._kernel, "jacobi_stack", lambda a, v, tol, cap: np.zeros(len(a), dtype=np.int64)
        )
        stack = np.stack([np.eye(3), np.ones((3, 3)), np.eye(3)])
        with pytest.raises(linalg.ConvergenceError, match="member 1: orthogonality"):
            eig_sym(stack)

    def test_non_finite_kernel_output_names_member(self, monkeypatch):
        stacked = linalg._kernel.jacobi_stack

        def nan_on_diagonal(a, v, tol, cap):
            sweeps = stacked(a, v, tol, cap)
            a[1, 2, 2] = math.nan
            return sweeps

        monkeypatch.setattr(linalg._kernel, "jacobi_stack", nan_on_diagonal)
        with pytest.raises(linalg.ConvergenceError, match="member 1: .* residual nan"):
            eig_sym(np.stack([np.eye(3), np.eye(3)]))

    @pytest.mark.parametrize(
        "stack, needle",
        [
            (np.array([[[1.0, math.inf], [math.inf, 1.0]]]), "finite"),
            (np.array([[[1.0, math.nan], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]), "finite"),
            (np.zeros((2, 3, 4)), "square"),
            (np.zeros((2, 0, 0)), "square"),
            (np.zeros((0, 3, 3)), "square"),
            (np.zeros((2, 2, 3, 3)), "square"),
            (np.zeros(3), "square"),
            (np.array([np.eye(2), [[1.0, 1.7e308], [1.7e308, 1.0]]]), "finite"),
        ],
    )
    def test_bad_stack_rejected(self, stack, needle):
        with pytest.raises(ValueError, match=needle):
            eig_sym(stack)


ROWS_FROM_N = linalg._kernel._ROWS_FROM_N


def solve_both_loops(m, max_sweeps=linalg.MAX_SWEEPS):
    """(sweeps, values bytes, vectors bytes) of ``m`` by the list loop and in a stack of two.

    The other member is a zero matrix, which leaves the stack at sweep 0.
    """
    n = len(m)
    work, vecs = m.copy(), np.eye(n)
    sweeps = linalg._kernel._cycle_lists(work, vecs, linalg.REL_TOL, max_sweeps)
    lists = (sweeps, work.tobytes(), vecs.tobytes())
    work, vecs = np.stack([m, np.zeros((n, n))]), np.broadcast_to(np.eye(n), (2, n, n)).copy()
    sweeps = linalg._kernel.jacobi_stack(work, vecs, linalg.REL_TOL, max_sweeps)
    return [lists, (int(sweeps[0]), work[0].tobytes(), vecs[0].tobytes())]


def ladder_matrix(nu, seed=0):
    """The sector-nu block, a ``SymMatrix`` carrying the exchange of the cells as its ``swap``.

    Seed 0 draws the parameters every test uses; other seeds draw others.
    """
    rng = random.Random(f"ladder:{nu}:{seed}" if seed else f"ladder:{nu}")
    g = rng.uniform(0.5, 2.0)
    omega_c = rng.uniform(-2.0, 2.0)
    p = SystemParams(omega_c=omega_c, omega_a=omega_c + rng.uniform(-3.0, 3.0) * g,
                     g=g, kappa=rng.uniform(-3.0, 3.0) * g)
    return build_hamiltonian(p, enumerate_sector(nu)).matrix


def ladder_block(nu):
    return ladder_matrix(nu).to_array()


@st.composite
def loop_inputs(draw):
    sizes = sorted({*range(1, 9), *range(ROWS_FROM_N - 3, ROWS_FROM_N + 5), 48})
    n = draw(st.sampled_from(sizes))
    m = draw(arrays(np.float64, (n, n), elements=stack_entries))
    m = 0.5 * (m + m.T)
    if draw(st.booleans()):
        # Dense random entries wherever the drawn matrix holds neither zero.
        noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-10.0, 10.0, (n, n))
        m = np.where(m == 0.0, m, 0.5 * (noise + noise.T))
    return m, draw(st.sampled_from([linalg.MAX_SWEEPS, 0, 1]))


class TestInnerLoops:
    """``_cycle_lists`` and ``jacobi_stack`` on a stack of two give the same bits on any input."""

    @settings(max_examples=100)
    @given(loop_inputs())
    def test_loops_agree(self, case):
        m, max_sweeps = case
        lists, stacked = solve_both_loops(m, max_sweeps)
        assert lists == stacked

    @pytest.mark.parametrize("nu", range(1, 13))
    def test_ladder_blocks_agree(self, nu):
        lists, stacked = solve_both_loops(ladder_block(nu))
        assert lists == stacked and lists[0] > 0

    def test_validate_solves_no_single_matrix_above_4_rows(self, monkeypatch):
        # validate solves larger matrices as stacks, so the row boundary may move.
        single_sizes, stack_sizes = [], []
        solve = validate.eig_sym

        def recording_solve(a):
            sizes = single_sizes if isinstance(a, SymMatrix) or np.ndim(a) == 2 else stack_sizes
            sizes.append(a.n if isinstance(a, SymMatrix) else np.shape(a)[-1])
            return solve(a)

        monkeypatch.setattr(validate, "eig_sym", recording_solve)
        validate.run_all(1, 100)
        assert single_sizes and stack_sizes
        assert max(single_sizes) <= 4


# Sizes on both sides of the list/row boundary, members on both kernels.
@st.composite
def lapack_cases(draw):
    n, count = draw(st.integers(1, 48)), draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.uniform(-10.0, 10.0, (count, n, n))
    m[rng.random(m.shape) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    return 0.5 * (m + m.transpose(0, 2, 1))


class TestAgainstLapack:
    @settings(max_examples=25)
    @given(lapack_cases())
    def test_values_match_eigvalsh(self, stack):
        values = eig_sym(stack[0]).values[np.newaxis] if len(stack) == 1 else eig_sym(stack).values
        expected = np.linalg.eigvalsh(stack)
        scale = np.max(np.abs(expected), axis=1, keepdims=True)
        assert np.all(np.abs(values - expected) <= 1e-12 * scale)


class TestLiveCountSwitch:
    """A stack that drops to one live member keeps its sweep body and its bits."""

    def test_large_members_leaving_at_different_sweeps(self, monkeypatch):
        # A 48-row ladder block (9 sweeps), a dense 48x48 (8) and a 24-row
        # ladder block zero-padded to 48 (7): three live members, then two,
        # then the ladder block alone for its last sweep.
        members = [ladder_block(12), random_symmetric(random.Random(1048), 48).to_array(),
                   ladder_block(6)]
        stack = np.zeros((3, 48, 48))
        for k, m in enumerate(members):
            stack[k, : len(m), : len(m)] = m
        work, vecs = stack.copy(), np.broadcast_to(np.eye(48), stack.shape).copy()
        bodies = []

        def recorded(body):
            sweep = getattr(linalg._kernel, body)

            def record(w):
                bodies.append(body)
                sweep(w)

            return record

        for body in ("_sweep_rounds", "_sweep_many"):
            monkeypatch.setattr(linalg._kernel, body, recorded(body))
        sweeps = linalg._kernel.jacobi_stack(work, vecs, linalg.REL_TOL, linalg.MAX_SWEEPS)
        monkeypatch.undo()
        assert sweeps.tolist() == [9, 8, 7]
        assert bodies == ["_sweep_many"] * 9
        for k, m in enumerate(members):
            n = len(m)
            alone, alone_vecs = m.copy(), np.eye(n)
            assert sweeps[k] == linalg._kernel._cycle_lists(
                alone, alone_vecs, linalg.REL_TOL, linalg.MAX_SWEEPS
            )
            assert work[k, :n, :n].tobytes() == alone.tobytes()
            assert vecs[k, :n, :n].tobytes() == alone_vecs.tobytes()


@st.composite
def round_robin_inputs(draw):
    """A symmetric matrix with ROWS_FROM_N..64 rows and a sweep cap.

    Zeros of both signs fill a drawn share of the entries, the blocks off a
    block diagonal, or everything off the diagonal, so zero pivots occur,
    some of them between equal diagonal entries (a 0/0 angle).
    """
    n = draw(st.integers(ROWS_FROM_N, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.uniform(-10.0, 10.0, (n, n))
    pattern = draw(st.sampled_from(["dense", "sparse", "blocks", "diagonal"]))
    if pattern == "sparse":
        zero = rng.random((n, n)) < draw(st.sampled_from([0.5, 0.9, 0.98]))
    elif pattern == "blocks":
        block = np.cumsum(rng.random(n) < 0.2)
        zero = block[:, None] != block[None, :]
    else:
        zero = ~np.eye(n, dtype=bool) if pattern == "diagonal" else np.zeros((n, n), dtype=bool)
    m[zero] = np.where(rng.random((n, n)) < 0.5, 0.0, -0.0)[zero]
    if draw(st.booleans()):
        # Few distinct diagonal entries make zero pivots between equal ones.
        np.fill_diagonal(m, rng.choice([-0.0, 0.0, 1.0], n))
    m = np.where(np.triu(np.ones((n, n), dtype=bool)), m, m.T)
    return m, draw(st.sampled_from([linalg.MAX_SWEEPS, 0, 1]))


class TestRoundRobin:
    """One matrix from ``ROWS_FROM_N`` rows up runs ``_sweep_rounds``."""

    @settings(max_examples=100)
    @given(round_robin_inputs())
    def test_solves_any_input(self, case):
        m, max_sweeps = case
        n = len(m)
        work, vecs = m.copy(), np.eye(n)
        sweeps = linalg._kernel.jacobi_cycle(
            work[np.newaxis], vecs[np.newaxis], linalg.REL_TOL, max_sweeps
        )
        assert np.isfinite(work).all() and np.isfinite(vecs).all()
        assert work.tobytes() == work.T.tobytes()
        if not np.count_nonzero(m - np.diag(np.diagonal(m))):
            assert sweeps == 0
            assert work.tobytes() == m.tobytes() and vecs.tobytes() == np.eye(n).tobytes()
            return
        if max_sweeps < linalg.MAX_SWEEPS:
            # One sweep can be enough for a sparse matrix, so a cap of 1 may
            # be met; then the capped run is the uncapped one, bit for bit.
            free, free_vecs = m.copy(), np.eye(n)
            uncapped = linalg._kernel.jacobi_cycle(
                free[np.newaxis], free_vecs[np.newaxis], linalg.REL_TOL, linalg.MAX_SWEEPS
            )
            assert sweeps == (uncapped if 0 <= uncapped <= max_sweeps else -1)
            if sweeps == -1:
                return
            assert work.tobytes() == free.tobytes() and vecs.tobytes() == free_vecs.tobytes()
        assert 0 < sweeps <= max_sweeps
        system = eig_sym(m)  # raises unless both checks pass
        assert system.sweeps == sweeps
        expected = np.linalg.eigvalsh(m)
        assert np.all(np.abs(system.values - expected) <= 1e-12 * np.max(np.abs(expected)))

    @settings(max_examples=20)
    @given(
        nu=st.sampled_from([6, 12]),
        exponent=st.floats(-150.0, 150.0),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_ladder_blocks_at_extreme_magnitudes(self, nu, exponent, sign):
        m = ladder_block(nu) * (sign * 10.0**exponent)
        system = eig_sym(m)
        expected = np.linalg.eigvalsh(m)
        assert np.all(np.abs(system.values - expected) <= 1e-12 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("nu", range(1, 13))
    def test_ladder_sweeps_near_row_cyclic(self, nu):
        m = ladder_block(nu)
        row_cyclic = eig_sym(np.stack([m, np.zeros_like(m)])).sweeps[0]
        assert 0 < eig_sym(m).sweeps <= row_cyclic + 1

    def test_alone_and_stacked_agree(self):
        m = ladder_block(12)
        alone, stacked = eig_sym(m), eig_sym(np.stack([m, np.eye(48)]))
        tol = 1e-12 * np.max(np.abs(alone.values))
        assert np.all(np.abs(alone.values - stacked.values[0]) <= tol)
        for ortho, resid in ((alone.orthogonality, alone.residual),
                             (stacked.orthogonality[0], stacked.residual[0])):
            assert ortho <= 1e-12 and resid <= 1e-10 * np.max(np.abs(m))

    @pytest.mark.parametrize("count, n, body", [
        (1, ROWS_FROM_N, "_sweep_rounds"),
        (1, ROWS_FROM_N - 1, "_sweep_many"),
        (2, ROWS_FROM_N, "_sweep_many"),
        (1, 21, "_sweep_rounds"),  # odd, so each round leaves one row out
        (2, 21, "_sweep_many"),
    ])
    def test_body_chosen_from_the_input(self, monkeypatch, count, n, body):
        bodies = set()
        for name in ("_sweep_rounds", "_sweep_many"):
            sweep = getattr(linalg._kernel, name)
            monkeypatch.setattr(
                linalg._kernel, name, lambda w, name=name, sweep=sweep: (bodies.add(name), sweep(w))
            )
        stack = np.stack([random_symmetric(random.Random(n + k), n).to_array() for k in range(count)])
        vecs = np.broadcast_to(np.eye(n), stack.shape).copy()
        if body == "_sweep_rounds":
            # One matrix goes to jacobi_cycle, as eig_sym sends it.
            sweeps = linalg._kernel.jacobi_cycle(stack[:1], vecs[:1], linalg.REL_TOL, linalg.MAX_SWEEPS)
        else:
            sweeps = linalg._kernel.jacobi_stack(stack, vecs, linalg.REL_TOL, linalg.MAX_SWEEPS)
        assert np.all(sweeps > 0) and bodies == {body}

    @pytest.mark.parametrize("n", [ROWS_FROM_N, 21])
    def test_stack_of_one_gets_its_stacked_bits(self, n):
        m = random_symmetric(random.Random(4000 + n), n).to_array()
        alone, alone_vecs = m[np.newaxis].copy(), np.eye(n)[np.newaxis]
        alone_sweeps = linalg._kernel.jacobi_stack(alone, alone_vecs, linalg.REL_TOL, linalg.MAX_SWEEPS)
        [stacked] = solve_both_loops(m)[1:]
        assert stacked == (int(alone_sweeps[0]), alone[0].tobytes(), alone_vecs[0].tobytes())

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 21, 24, 47, 48])
    def test_schedule_meets_every_pair_once(self, n):
        gather = linalg._kernel._rounds(n)
        assert gather.shape == (n, 2 * n) and not gather.flags.writeable
        src = gather[:, n] // (2 * n)  # the slot each row is read from
        layout, met = np.arange(n), set()
        for _ in range(n + n % 2 - 1):
            met.update(frozenset(layout[k : k + 2]) for k in range(0, n - 1, 2))
            layout = layout[src]
        assert layout.tolist() == list(range(n))
        assert len(met) == n * (n - 1) // 2

    def test_fortran_ordered_input(self):
        # The rounds run on flat views of one C-ordered row stack, whatever the input's order.
        m = random_symmetric(random.Random(1018), 18).to_array()
        solved = []
        for order_a, order_v in ("CC", "FC", "CF", "FF"):
            a = np.array(m, order=order_a)[np.newaxis]
            v = np.array(np.eye(18), order=order_v)[np.newaxis]
            assert a.flags.c_contiguous == (order_a == "C") and v.flags.c_contiguous == (order_v == "C")
            sweeps = linalg._kernel.jacobi_cycle(a, v, linalg.REL_TOL, linalg.MAX_SWEEPS)
            solved.append((sweeps, a.tobytes(), v.tobytes()))
        assert solved[0][0] > 0 and all(each == solved[0] for each in solved)

    def test_schedules_built_on_first_use(self):
        code = "import jcpair; from jcpair import _jacobi_py as k; print(k._rounds.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert out.stdout.strip() == "0", out.stderr


def every_path(m, other):
    """``m``'s (sweeps, values, vectors): alone, after ``other`` in a stack, by ``eig_sym_many``."""
    a = m.to_array() if isinstance(m, SymMatrix) else m
    alone, stacked = eig_sym(m), eig_sym(np.stack([other, a]))
    many = eig_sym_many([np.eye(3), m, np.zeros((2, 2))])[1]
    return [(alone.sweeps, alone.values, alone.vectors),
            (int(stacked.sweeps[1]), stacked.values[1], stacked.vectors[1]),
            (many.sweeps, many.values, many.vectors)]


def assert_covariant(m, k, companions=("zero", "identity")):
    """Every path solves ``2^k m`` with ``m``'s sweeps and vectors and values ``2^k`` times ``m``'s.

    ``eig_sym`` solves a matrix outside the band at unit scale and scales its
    values back, and Jacobi's sweeps are covariant under a power of two, so
    this holds wherever neither ``m`` nor ``2^k m`` is subnormal.  In the
    stacks, ``m`` shares the solve with a zero matrix or an identity, which
    stays as it is.
    """
    if isinstance(m, SymMatrix):
        n, scaled = m.n, SymMatrix(np.ldexp(m.to_array(), k), swap=m.swap)
    else:
        n, scaled = len(m), np.ldexp(m, k)
    for companion in companions:
        other = np.eye(n) if companion == "identity" else np.zeros((n, n))
        for plain, rescaled in zip(every_path(m, other), every_path(scaled, other)):
            sweeps, values, vectors = plain
            assert rescaled[0] == sweeps
            assert rescaled[1].tobytes() == np.ldexp(values, k).tobytes()
            assert rescaled[2].tobytes() == vectors.tobytes()


class TestLargeEntries:
    """Entries whose squares overflow still give a finite stopping threshold."""

    @pytest.mark.parametrize("x", [1e160, 1e300])
    def test_two_by_two(self, x):
        system = eig_sym(SymMatrix([[1.0, x], [x, 1.0]]))
        assert system.sweeps == 1
        assert system.values.tolist() == [1.0 - x, 1.0 + x]

    def test_scaled_16x16_alone_and_stacked(self):
        a = random_symmetric(random.Random(1016), 16).to_array() * 1e300
        expected = np.linalg.eigvalsh(a)
        tol = 1e-12 * np.max(np.abs(expected))
        assert np.max(np.abs(eig_sym(a).values - expected)) <= tol
        stacked = eig_sym(np.stack([a, np.eye(16)]))
        assert np.max(np.abs(stacked.values[0] - expected)) <= tol

    @pytest.mark.parametrize("n", sorted({2, ROWS_FROM_N, 21}))
    def test_covariant_with_unit_scale(self, n):
        # 2^997 is about 1.3e300.
        assert_covariant(random_symmetric(random.Random(2000 + n), n).to_array(), 997)

    def test_sector_block_near_the_float_maximum(self):
        # ||A||_F of this 24-row block is past the largest float; its eigenvalues are not.
        m = ladder_matrix(6)
        a = m.to_array() * (sys.float_info.max / 4 / m.max_abs())
        expected = np.linalg.eigvalsh(a)
        tol = 1e-12 * np.max(np.abs(expected))
        for solved in (eig_sym(SymMatrix(a, swap=m.swap)).values, eig_sym(a).values,
                       eig_sym(np.stack([a, np.eye(24)])).values[0]):
            assert np.max(np.abs(solved - expected)) <= tol

    def test_random_matrices_at_the_top_exponent(self):
        # Entries up to 2^1022: each matrix is solved as its unit-scale twin, or
        # raises because one of its eigenvalues is past the largest float.
        rng = np.random.default_rng(1022)
        outcomes = set()
        for _ in range(200):
            n = int(rng.integers(2, 30))
            b = rng.uniform(-1.0, 1.0, (n, n))
            b = b + b.T
            c = b / np.max(np.abs(b))
            unit, a = eig_sym(c), np.ldexp(c, 1022)
            with np.errstate(over="ignore"):
                values = np.ldexp(unit.values, 1022)
            if np.isfinite(values).all():
                system = eig_sym(a)
                assert system.sweeps == unit.sweeps
                assert system.values.tobytes() == values.tobytes()
                assert system.vectors.tobytes() == unit.vectors.tobytes()
                outcomes.add("solved")
            else:
                with pytest.raises(linalg.ConvergenceError, match="outside the float range"):
                    eig_sym(a)
                outcomes.add("raised")
        assert outcomes == {"solved", "raised"}

    @pytest.mark.parametrize("solve, named", [
        (lambda a: eig_sym(a), ""),
        (lambda a: eig_sym(np.stack([np.eye(3), a])), " for member 1"),
        (lambda a: eig_sym_many([np.eye(2), a]), " for member 1"),
    ], ids=["alone", "stacked", "many"])
    def test_eigenvalue_past_the_float_maximum(self, solve, named):
        # Every entry is finite, and so is A + A^T; the largest eigenvalue is 1.2 * max.
        a = np.full((3, 3), sys.float_info.max / 2.5)
        with pytest.raises(linalg.ConvergenceError) as error:
            solve(a)
        assert str(error.value) == "an eigenvalue is outside the float range" + named


class TestTinyEntries:
    """Entries whose squares underflow still give a nonzero stopping threshold."""

    @pytest.mark.parametrize("x", [1e-170, 1e-250, 1e-300])
    def test_two_by_two(self, x):
        system = eig_sym(SymMatrix([[0.0, x], [x, 0.0]]))
        assert system.sweeps == 1
        assert system.values.tolist() == [-x, x]

    def test_one_by_one(self):
        system = eig_sym(SymMatrix([[1e-300]]))
        assert (system.sweeps, system.values.tolist()) == (0, [1e-300])

    @pytest.mark.parametrize("scale", [1e-170, 1e-250, 1e-300])
    @pytest.mark.parametrize("shape", [(1, 16), (1, ROWS_FROM_N + 3), (8, 4)])
    def test_values_match_eigvalsh(self, scale, shape):
        count, n = shape
        rng = random.Random(3000 + n)
        stack = np.stack([random_symmetric(rng, n).to_array() * scale for _ in range(count)])
        values = eig_sym(stack[0]).values[np.newaxis] if count == 1 else eig_sym(stack).values
        expected = np.linalg.eigvalsh(stack)
        scale = np.max(np.abs(expected), axis=1, keepdims=True)
        assert np.all(np.abs(values - expected) <= 1e-12 * scale)

    @pytest.mark.parametrize("exponent", [-600, -900])
    @pytest.mark.parametrize("shape", [(1, 16), (1, ROWS_FROM_N + 3), (8, 4)])
    def test_power_of_two_scale_is_exact(self, exponent, shape):
        # Scaling by 2**exponent rounds nothing while entries stay normal, so
        # the solve must match the unscaled one bit for bit and sweep for sweep.
        count, n = shape
        rng = random.Random(3000 + n)
        stack = np.stack([random_symmetric(rng, n).to_array() for _ in range(count)])
        plain, scaled = (
            eig_sym(m[0]) if count == 1 else eig_sym(m) for m in (stack, stack * 2.0**exponent)
        )
        assert np.array_equal(scaled.sweeps, plain.sweeps)
        assert scaled.values.tobytes() == (plain.values * 2.0**exponent).tobytes()
        assert scaled.vectors.tobytes() == plain.vectors.tobytes()

    @pytest.mark.parametrize("n", sorted({2, ROWS_FROM_N, 21}))
    def test_covariant_with_unit_scale(self, n):
        # 2^-997 is about 7.5e-301.
        assert_covariant(random_symmetric(random.Random(2000 + n), n).to_array(), -997)


@st.composite
def covariance_cases(draw):
    """A matrix near unit scale, n = 1..48 or a sector block with its swap, an exponent k
    and the companion it is stacked with.

    k keeps every nonzero entry of ``2^k A`` normal, and ``2^k`` times
    n * max|A|, a bound on every eigenvalue, within half the largest float.
    """
    if draw(st.booleans()):
        m = ladder_matrix(draw(st.integers(1, 12)))
        a = m.to_array()
    else:
        n = draw(st.integers(1, 48))
        b = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-5.0, 5.0, (n, n))
        a = m = 0.5 * (b + b.T)
    smallest = np.frexp(np.min(np.abs(a[a != 0.0])))[1]
    largest = np.frexp(len(a) * np.max(np.abs(a)))[1]
    k = draw(st.integers(-1021 - int(smallest), 1023 - int(largest)))
    return m, k, [draw(st.sampled_from(["zero", "identity"]))]


class TestScaleCovariance:
    """``eig_sym`` of ``2^k A`` is ``eig_sym`` of ``A`` with its values times ``2^k``."""

    @settings(max_examples=25, deadline=None)
    @given(covariance_cases())
    def test_every_path(self, case):
        assert_covariant(*case)

    @pytest.mark.parametrize("exponent", [-451, -450, 450, 451])
    def test_on_both_sides_of_the_band_edges(self, exponent):
        # max|2^k A| gets this frexp exponent; past +-450 the matrix is rescaled.
        m = ladder_matrix(3)
        assert_covariant(m, exponent - math.frexp(m.max_abs())[1])


def padded_stack(sizes, seed):
    """Random symmetric members of the given sizes, zero-padded to the largest."""
    rng, size = random.Random(seed), max(sizes)
    stack = np.zeros((len(sizes), size, size))
    for member, n in enumerate(sizes):
        stack[member, :n, :n] = random_symmetric(rng, n).to_array()
    return stack


class TestZeroPivotBranches:
    """``jacobi_stack`` rotates only the members whose pivot is nonzero.

    In a padded stack every pivot in a member's padding is zero.  Sorted by
    size, largest first, the members that rotate are a leading block, which
    is rotated in place; in any other order they are gathered and scattered.
    Rotating a padded pivot (0 / 0) would turn a member into NaNs.
    """

    @pytest.mark.parametrize(
        "sizes",
        [[7, 7, 5, 3, 3, 1], [7, 3, 5, 2, 7], [2, 7, 7, 4]],
        ids=["leading", "interleaved", "small_first"],
    )
    def test_members_match_jacobi_cycle(self, sizes):
        stack = padded_stack(sizes, seed=len(sizes))
        size = stack.shape[1]
        work, vecs = stack.copy(), np.broadcast_to(np.eye(size), stack.shape).copy()
        sweeps = linalg._kernel.jacobi_stack(work, vecs, linalg.REL_TOL, linalg.MAX_SWEEPS)
        for member, n in enumerate(sizes):
            alone, alone_vecs = stack[member, :n, :n].copy(), np.eye(n)
            assert sweeps[member] == linalg._kernel.jacobi_cycle(
                alone[np.newaxis], alone_vecs[np.newaxis], linalg.REL_TOL, linalg.MAX_SWEEPS
            )
            assert work[member, :n, :n].tobytes() == alone.tobytes()
            assert vecs[member, :n, :n].tobytes() == alone_vecs.tobytes()
            # The padding comes back as +0.0 in A and the identity in V.
            padded_a, padded_v = np.zeros((size, size)), np.eye(size)
            padded_a[:n, :n], padded_v[:n, :n] = alone, alone_vecs
            assert work[member].tobytes() == padded_a.tobytes()
            assert vecs[member].tobytes() == padded_v.tobytes()


@st.composite
def mixed_sizes(draw):
    """1-6 symmetric matrices of mixed sizes n = 1..10, holding zeros of both signs."""
    matrices = []
    for n in draw(st.lists(st.integers(1, 10), min_size=1, max_size=6)):
        m = draw(arrays(np.float64, (n, n), elements=stack_entries))
        matrices.append(0.5 * (m + m.T))
    return matrices


def swap_invariant(seed, n, pairs):
    """A random symmetric n x n, invariant under the swap of rows 2k, 2k + 1 for k < pairs."""
    swap = np.arange(n)
    swap[: 2 * pairs] ^= 1  # 2k <-> 2k + 1
    b = np.random.default_rng(seed).uniform(-5.0, 5.0, (n, n))
    b = b + b.T
    return b + b[np.ix_(swap, swap)], swap


@st.composite
def swap_cases(draw):
    """A symmetric matrix, zeros included, invariant under a drawn involution."""
    n = draw(st.integers(1, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = rng.permutation(n)
    pairs = draw(st.integers(0, n // 2))
    swap = np.arange(n)
    first, partner = perm[0 : 2 * pairs : 2], perm[1 : 2 * pairs : 2]
    swap[first], swap[partner] = partner, first
    b = rng.uniform(-10.0, 10.0, (n, n))
    b[rng.random((n, n)) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    b = b + b.T
    return b + b[np.ix_(swap, swap)], swap


class TestParityHalves:
    """One ``SymMatrix`` with a ``swap`` is solved as its even and odd halves."""

    @pytest.mark.parametrize("swap, needle", [
        ([1, 0, 2], "integer row indices"),           # too short
        ([1.0, 0.0, 2.0, 3.0], "integer row indices"),
        ([1, 0, 2, 4], "integer row indices"),        # out of range
        ([1, 0, -1, 3], "integer row indices"),
        ([1, 0, 2, 2], "permutation"),                # not a permutation
        ([1, 2, 0, 3], "its own inverse"),            # a permutation, not an involution
    ])
    def test_bad_swap_rejected(self, swap, needle):
        m, _ = swap_invariant(1, 4, 1)
        with pytest.raises(ValueError, match=needle):
            SymMatrix(m, swap=swap)

    @pytest.mark.parametrize("i, j", [(0, 0), (0, 2), (1, 4)])
    def test_entries_one_ulp_off_rejected(self, i, j):
        m, swap = swap_invariant(2, 5, 2)
        SymMatrix(m, swap=swap)
        m[i, j] = m[j, i] = np.nextafter(m[i, j], np.inf)
        with pytest.raises(ValueError, match="unchanged under swap"):
            SymMatrix(m, swap=swap)

    def test_swap_is_kept_read_only(self):
        m, swap = swap_invariant(3, 6, 3)
        kept = SymMatrix(m, swap=swap).swap
        assert kept.tolist() == swap.tolist() and not kept.flags.writeable
        assert SymMatrix(m).swap is None

    @pytest.mark.parametrize("n", [1, 4, ROWS_FROM_N])
    def test_swap_without_pairs_solves_the_whole(self, n):
        m = random_symmetric(random.Random(3000 + n), n).to_array()
        whole, same = eig_sym(m), eig_sym(SymMatrix(m, swap=np.arange(n)))
        assert same.sweeps == whole.sweeps
        assert same.values.tobytes() == whole.values.tobytes()
        assert same.vectors.tobytes() == whole.vectors.tobytes()

    # Both halves share one call as a (2, m, m) stack at every size, the odd
    # half zero-padded to the even half's m rows.
    @pytest.mark.parametrize(
        "n, pairs, sizes", [(2, 1, [(2, 1, 1)]), (10, 3, [(2, 7, 7)]), (40, 20, [(2, 20, 20)])]
    )
    def test_each_half_through_jacobi_cycle(self, monkeypatch, n, pairs, sizes):
        m, swap = swap_invariant(4, n, pairs)
        solve, seen = linalg._kernel.jacobi_cycle, []

        def recorded(a, v, rel_tol, max_sweeps):
            sweeps = solve(a, v, rel_tol, max_sweeps)
            seen.append((a.shape, sweeps))
            return sweeps

        monkeypatch.setattr(linalg._kernel, "jacobi_cycle", recorded)
        system = eig_sym(SymMatrix(m, swap=swap))
        assert [shape for shape, _ in seen] == sizes
        assert system.sweeps == max(sweeps for _, sweeps in seen)
        for v in system.vectors.T:
            assert np.array_equal(v[swap], v) or np.array_equal(v[swap], -v)

    @pytest.mark.parametrize("capped", [0, 1])
    def test_half_at_the_sweep_cap_raises(self, monkeypatch, capped):
        # Only the even (0) or the odd (1) half rotates, and one sweep leaves
        # it short of the threshold inside the one call for both halves.
        m, swap = halves_with_one_diagonal(4, "odd" if capped == 0 else "even")
        pairs = recorded_pairs(monkeypatch)
        monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
        with pytest.raises(linalg.ConvergenceError, match="no convergence within 1 sweeps"):
            eig_sym(SymMatrix(m, swap=swap))
        [(given, _, _, sweeps)] = pairs
        assert given.shape == (2, 4, 4) and sweeps == -1
        each = [linalg._kernel._cycle_lists(half.copy(), np.eye(4), linalg.REL_TOL, 1) for half in given]
        assert each == ([-1, 0] if capped == 0 else [0, -1])

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("nu", range(1, 8))
    def test_list_halves_get_their_bits_unpadded(self, monkeypatch, nu, seed):
        # Below ROWS_FROM_N rows the one call sweeps each half on lists; at
        # an even nu the odd half is 2 rows smaller and zero-padded.
        block = ladder_matrix(nu, seed)
        pairs = recorded_pairs(monkeypatch)
        system = eig_sym(block)
        monkeypatch.undo()
        [(given, swept, vecs, sweeps)] = pairs
        k = int(np.count_nonzero(block.swap > np.arange(block.n)))
        size = block.n - k
        assert given.shape == (2, size, size) and size - k == (2 if nu % 2 == 0 else 0)
        alone_sweeps = []
        for half, rows in enumerate((size, k)):
            alone, alone_vecs = given[half, :rows, :rows].copy(), np.eye(rows)
            alone_sweeps.append(linalg._kernel._cycle_lists(
                alone, alone_vecs, linalg.REL_TOL, linalg.MAX_SWEEPS))
            padded, padded_vecs = np.zeros((size, size)), np.eye(size)
            padded[:rows, :rows], padded_vecs[:rows, :rows] = alone, alone_vecs
            assert swept[half].tobytes() == padded.tobytes()
            assert vecs[half].tobytes() == padded_vecs.tobytes()
            assert linalg._kernel._cycle_lists(
                given[half].copy(), np.eye(size), linalg.REL_TOL, linalg.MAX_SWEEPS
            ) == alone_sweeps[-1]
        assert sweeps == system.sweeps == max(alone_sweeps) > 0

    @pytest.mark.parametrize("entries", [[[0.0, 1.0], [1.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]],
                                         [[1.0, -1.0], [-1.0, 1.0]]])
    def test_largest_entries_split_without_overflow(self, entries):
        # No SymMatrix entry exceeds half the largest float (A + A^T must be
        # finite), so the halves' sums reach at most the largest float.
        m = np.array(entries) * (sys.float_info.max / 2)
        halves, whole = eig_sym(SymMatrix(m, swap=[1, 0])), eig_sym(m)
        assert np.isfinite(halves.values).all()
        assert halves.values.tolist() == whole.values.tolist()

    @settings(max_examples=40)
    @given(swap_cases())
    def test_values_match_eigvalsh(self, case):
        m, swap = case
        system = eig_sym(SymMatrix(m, swap=swap))  # raises unless both checks pass
        expected = np.linalg.eigvalsh(m)
        assert np.all(np.abs(system.values - expected) <= 1e-12 * np.max(np.abs(expected)))
        for v in system.vectors.T:
            assert np.array_equal(v[swap], v) or np.array_equal(v[swap], -v)

    @pytest.mark.parametrize("n, pairs", [(8, 4), (ROWS_FROM_N + 3, 5)])
    def test_stacks_ignore_swap(self, n, pairs):
        m, swap = swap_invariant(6, n, pairs)
        other = random_symmetric(random.Random(6), 5)
        for members in ([m], [m, other]):
            plain = eig_sym_many([SymMatrix(x) if x is m else x for x in members])
            swapped = eig_sym_many([SymMatrix(x, swap=swap) if x is m else x for x in members])
            for a, b in zip(plain, swapped):
                assert a.sweeps == b.sweeps
                for field in ("values", "vectors", "orthogonality", "residual"):
                    bits = [np.asarray(getattr(x, field)).tobytes() for x in (a, b)]
                    assert bits[0] == bits[1]


def halves_with_one_diagonal(k, diagonal):
    """A 2k-row matrix, invariant under the swap of rows i and k + i, whose even or odd half is diagonal.

    With I = rows 0..k-1 and J = their partners, A[I,I] = D + X and
    A[I,J] = +-X, so the halves ``A[I,I] +- A[I,J]`` are D and D + 2X.
    """
    rng = np.random.default_rng(k)
    d = np.diag(rng.uniform(-5.0, 5.0, k))
    x = rng.uniform(-5.0, 5.0, (k, k))
    x = x + x.T
    sign = 1.0 if diagonal == "odd" else -1.0
    m = np.block([[d + x, sign * x], [sign * x, d + x]])
    return m, np.concatenate((np.arange(k, 2 * k), np.arange(k)))


def recorded_pairs(monkeypatch):
    """Wrap ``jacobi_cycle``; the list receives a copy of each (2, m, m) input and its sweeps."""
    solve, pairs = linalg._kernel.jacobi_cycle, []

    def recorded(a, v, rel_tol, max_sweeps):
        given = a.copy()
        sweeps = solve(a, v, rel_tol, max_sweeps)
        pairs.append((given, a.copy(), v.copy(), sweeps))
        return sweeps

    monkeypatch.setattr(linalg._kernel, "jacobi_cycle", recorded)
    return pairs


def each_half(pair, max_sweeps):
    """The sweep count of each half of the (2, m, m) ``pair`` in shared rounds."""
    vecs = np.broadcast_to(np.eye(pair.shape[1]), pair.shape).copy()
    return linalg._kernel._solve_stack(
        pair.copy(), vecs, linalg.REL_TOL, max_sweeps, linalg._kernel._sweep_rounds
    )


class TestParityPairedRounds:
    """Halves from ``ROWS_FROM_N`` rows are swept in shared round-robin rounds."""

    @pytest.mark.parametrize("nu", [9, 11])
    def test_equal_halves_get_their_bits_alone(self, monkeypatch, nu):
        pairs = recorded_pairs(monkeypatch)
        system = eig_sym(ladder_matrix(nu))
        monkeypatch.undo()
        [(given, swept, vecs, sweeps)] = pairs
        m = 2 * nu
        assert given.shape == (2, m, m) and system.sweeps == sweeps
        each = each_half(given, linalg.MAX_SWEEPS)
        alone_sweeps = []
        for half in range(2):
            alone, alone_vecs = given[half].copy(), np.eye(m)
            alone_sweeps.append(linalg._kernel.jacobi_cycle(
                alone[np.newaxis], alone_vecs[np.newaxis], linalg.REL_TOL, linalg.MAX_SWEEPS))
            assert swept[half].tobytes() == alone.tobytes()
            assert vecs[half].tobytes() == alone_vecs.tobytes()
        assert each.tolist() == alone_sweeps and sweeps == max(alone_sweeps) > 0

    @pytest.mark.parametrize("diagonal", ["odd", "even"])
    def test_diagonal_half_leaves_at_sweep_0(self, monkeypatch, diagonal):
        m, swap = halves_with_one_diagonal(ROWS_FROM_N + 3, diagonal)
        pairs = recorded_pairs(monkeypatch)
        system = eig_sym(SymMatrix(m, swap=swap))
        monkeypatch.undo()
        [(given, swept, vecs, sweeps)] = pairs
        live = 0 if diagonal == "odd" else 1
        size = given.shape[1]
        alone, alone_vecs = given[live].copy(), np.eye(size)
        assert sweeps == linalg._kernel.jacobi_cycle(
            alone[np.newaxis], alone_vecs[np.newaxis], linalg.REL_TOL, linalg.MAX_SWEEPS
        ) == system.sweeps > 0
        assert each_half(given, linalg.MAX_SWEEPS)[1 - live] == 0
        assert swept[live].tobytes() == alone.tobytes()
        assert vecs[live].tobytes() == alone_vecs.tobytes()
        assert swept[1 - live].tobytes() == given[1 - live].tobytes()
        assert vecs[1 - live].tobytes() == np.eye(size).tobytes()

    @pytest.mark.parametrize("diagonal", ["odd", "even"])
    def test_one_capped_half_returns_minus_1_and_raises(self, monkeypatch, diagonal):
        m, swap = halves_with_one_diagonal(ROWS_FROM_N + 3, diagonal)
        pairs = recorded_pairs(monkeypatch)
        monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
        with pytest.raises(linalg.ConvergenceError, match="no convergence within 1 sweeps"):
            eig_sym(SymMatrix(m, swap=swap))
        [(given, _, _, sweeps)] = pairs
        assert sweeps == -1
        # The diagonal half converged at sweep 0; only the other one was capped.
        expected = [-1, 0] if diagonal == "odd" else [0, -1]
        assert each_half(given, 1).tolist() == expected

    @pytest.mark.parametrize("kappa_sign", [1.0, -1.0])
    @pytest.mark.parametrize("nu", range(8, 13))
    def test_ladder_blocks_even_or_odd_and_match_eigvalsh(self, nu, kappa_sign):
        rng = random.Random(f"pair:{nu}")
        g = rng.uniform(0.5, 2.0)
        p = SystemParams(omega_c=0.3, omega_a=0.3 + rng.uniform(-3.0, 3.0) * g, g=g,
                         kappa=kappa_sign * rng.uniform(0.1, 3.0) * g)
        block = build_hamiltonian(p, enumerate_sector(nu)).matrix
        system = eig_sym(block)  # raises unless both checks pass
        swap = block.swap
        for v in system.vectors.T:
            assert np.array_equal(v[swap], v) or np.array_equal(v[swap], -v)
        expected = np.linalg.eigvalsh(block.to_array())
        assert np.all(np.abs(system.values - expected) <= 1e-12 * np.max(np.abs(expected)))


class TestEigSymMany:
    @given(mixed_sizes())
    def test_each_member_equals_eig_sym(self, matrices):
        systems = eig_sym_many(matrices)
        assert len(systems) == len(matrices)
        for m, system in zip(matrices, systems):
            alone = eig_sym(m)
            assert system.values.tobytes() == alone.values.tobytes()
            assert system.vectors.tobytes() == alone.vectors.tobytes()
            assert type(system.sweeps) is int and system.sweeps == alone.sweeps
            for field in ("orthogonality", "residual"):
                mine, theirs = getattr(system, field), getattr(alone, field)
                assert type(mine) is float
                assert np.float64(mine).tobytes() == np.float64(theirs).tobytes()
            assert not system.values.flags.writeable and not system.vectors.flags.writeable

    def test_empty(self):
        assert eig_sym_many([]) == []

    def test_takes_sym_matrices_and_arrays(self):
        a = random_symmetric(random.Random(1007), 7)
        systems = eig_sym_many([a, np.eye(3), a.to_array().tolist()])
        alone = eig_sym(a).values.tobytes()
        assert systems[0].values.tobytes() == systems[2].values.tobytes() == alone
        assert systems[1].values.tolist() == [1.0, 1.0, 1.0]

    def test_one_stack_for_mixed_sizes(self, monkeypatch):
        calls = []
        stacked = linalg._kernel.jacobi_stack

        def record(a, v, tol, cap):
            calls.append(a.shape)
            return stacked(a, v, tol, cap)

        monkeypatch.setattr(linalg._kernel, "jacobi_stack", record)
        eig_sym_many([np.eye(2), np.ones((5, 5)), np.eye(3)])
        assert calls == [(3, 5, 5)]

    @pytest.mark.parametrize(
        "bad, needle",
        [
            ([[1.0, math.nan], [0.0, 1.0]], "member 1: matrix entries .* finite"),
            (np.zeros((2, 3)), "member 1: expected a square matrix"),
            (np.zeros((2, 2, 2)), "member 1: expected a square matrix"),
        ],
    )
    def test_bad_member_named(self, bad, needle):
        with pytest.raises(ValueError, match=needle):
            eig_sym_many([np.eye(2), bad, np.eye(4)])

    def test_unconverged_member_named(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
        a = random_symmetric(random.Random(1004), 4)
        with pytest.raises(linalg.ConvergenceError, match=r"\(member 2, n=4\)"):
            eig_sym_many([np.eye(6), np.eye(3), a])

    def test_failed_check_names_input_index(self, monkeypatch):
        # A kernel that rotates nothing leaves the 2x2 of ones undiagonalized;
        # the size sort puts it last in the stack, but its input index is 1.
        monkeypatch.setattr(
            linalg._kernel, "jacobi_stack", lambda a, v, tol, cap: np.zeros(len(a), dtype=np.int64)
        )
        with pytest.raises(linalg.ConvergenceError, match="member 1: orthogonality"):
            eig_sym_many([np.eye(3), np.ones((2, 2)), np.eye(4)])


class TestKernelChoice:
    @pytest.mark.parametrize(
        "n, refused",
        [(ROWS_FROM_N - 1, "jacobi_stack"), (ROWS_FROM_N, "_cycle_lists"), (21, "_cycle_lists")],
    )
    def test_single_matrix_loop_by_size(self, monkeypatch, n, refused):
        def refuse(*args):
            raise AssertionError(f"{refused} called for n = {n}")

        monkeypatch.setattr(linalg._kernel, refused, refuse)
        assert eig_sym(random_symmetric(random.Random(n), n)).sweeps > 0

    def test_stack_of_one_runs_jacobi_cycle(self, monkeypatch):
        a = random_symmetric(random.Random(1007), 7)
        alone = eig_sym(a)

        def refuse(*args):
            raise AssertionError("jacobi_stack called for a stack of one")

        monkeypatch.setattr(linalg._kernel, "jacobi_stack", refuse)
        system = eig_sym(a.to_array()[np.newaxis])
        assert system.values.shape == (1, 7) and system.vectors.shape == (1, 7, 7)
        assert system.sweeps.shape == (1,) and system.sweeps[0] == alone.sweeps
        assert system.values[0].tobytes() == alone.values.tobytes()
        assert system.vectors[0].tobytes() == alone.vectors.tobytes()

    def test_stack_of_two_runs_jacobi_stack(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("jacobi_cycle called for a stack")

        monkeypatch.setattr(linalg._kernel, "jacobi_cycle", refuse)
        system = eig_sym(np.stack([np.eye(3), np.ones((3, 3))]))
        assert system.values.shape == (2, 3)


# SHA-256 of each n's sweeps (4 bytes, little-endian), values and vectors for
# the dense matrices of ``one_route_matrix``, n = 1..48, recorded at commit
# 695f531, before a matrix without a swap went through the halves code.
ONE_ROUTE_DIGEST = "e078c17998251983d939221252a5ca19174acccd59ec2b5f89aff81fafff0459"

# Each way to solve one matrix, returning an ``EigenSystem`` of that matrix.
ENTRY_FORMS = (
    lambda m: eig_sym(SymMatrix(m)),
    eig_sym,
    lambda m: linalg._member(eig_sym(m[np.newaxis]), 0),
    lambda m: eig_sym_many([m])[0],
    lambda m: eig_sym(SymMatrix(m, swap=np.arange(len(m)))),  # moves no row
)


def one_route_matrix(n):
    b = np.random.default_rng(5000 + n).uniform(-5.0, 5.0, (n, n))
    return 0.5 * (b + b.T)


class TestOneRoute:
    """Every single matrix is one ``jacobi_cycle`` call of a ``(2, n, n)`` pair of halves.

    Without a ``swap`` (or with one that moves no row) the even half is the
    whole matrix and the odd half is all zero.
    """

    def test_each_entry_form_makes_one_paired_call(self, monkeypatch):
        solve, shapes = linalg._kernel.jacobi_cycle, []

        def recorded(a, v, rel_tol, max_sweeps):
            shapes.append(a.shape)
            return solve(a, v, rel_tol, max_sweeps)

        def refuse(*args):
            raise AssertionError("jacobi_stack called for one matrix")

        monkeypatch.setattr(linalg._kernel, "jacobi_cycle", recorded)
        monkeypatch.setattr(linalg._kernel, "jacobi_stack", refuse)
        digest = hashlib.sha256()
        for n in range(1, 49):
            m = one_route_matrix(n)
            solved = []
            for form in ENTRY_FORMS:
                shapes.clear()
                system = form(m)
                assert shapes == [(2, n, n)]
                solved.append((system.sweeps, system.values.tobytes(), system.vectors.tobytes()))
            assert all(each == solved[0] for each in solved), n
            sweeps, values, vectors = solved[0]
            digest.update(sweeps.to_bytes(4, "little") + values + vectors)
        assert digest.hexdigest() == ONE_ROUTE_DIGEST

    @pytest.mark.parametrize("nu", [3, 9])
    def test_stack_of_two_never_calls_jacobi_cycle(self, monkeypatch, nu):
        def refuse(*args):
            raise AssertionError("jacobi_cycle called for a stack of two")

        monkeypatch.setattr(linalg._kernel, "jacobi_cycle", refuse)
        block = ladder_matrix(nu)
        other = ladder_matrix(nu, seed=1)
        assert eig_sym(np.stack([block.to_array(), other.to_array()])).sweeps.min() > 0
        assert min(system.sweeps for system in eig_sym_many([block, other])) > 0


class TestSweepsReported:
    def test_single_matrix_reports_an_int(self):
        assert eig_sym(SymMatrix(np.eye(4))).sweeps == 0
        sweeps = eig_sym(random_symmetric(random.Random(1004), 4)).sweeps
        assert isinstance(sweeps, int) and sweeps == 4

    def test_stack_reports_each_member(self):
        a = random_symmetric(random.Random(1007), 7).to_array()
        system = eig_sym(np.stack([np.eye(7), a, a]))
        assert system.sweeps.dtype == np.int64
        assert system.sweeps.tolist() == [0, 5, 5]


class TestCheckReported:
    def test_identity_reports_exact_zeros(self):
        system = eig_sym(SymMatrix(np.eye(4)))
        assert type(system.orthogonality) is float and type(system.residual) is float
        assert (system.orthogonality, system.residual) == (0.0, 0.0)

    def test_stack_reports_each_member(self):
        a = random_symmetric(random.Random(1007), 7)
        system = eig_sym(np.stack([np.eye(7), a.to_array()]))
        alone = eig_sym(a)
        for reported in (system.orthogonality, system.residual):
            assert reported.shape == (2,) and not reported.flags.writeable
        assert system.orthogonality.tolist() == [0.0, alone.orthogonality]
        assert system.residual.tolist() == [0.0, alone.residual]
        assert 0.0 < alone.residual <= 1e-10 * (1.0 + a.max_abs())


class TestMultisetEqual:
    def test_permutation(self):
        assert eigenvalue_multiset_equal((1.0, 2.0), (2.0, 1.0), 0.0)

    def test_outside_tolerance(self):
        assert not eigenvalue_multiset_equal((1.0, 2.0), (1.0, 2.1), 0.05)

    def test_within_tolerance(self):
        assert eigenvalue_multiset_equal((0.0, 0.0), (1e-12, -1e-12), 1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            eigenvalue_multiset_equal((1.0,), (1.0, 2.0), 0.1)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            eigenvalue_multiset_equal((1.0,), (1.0,), -1e-3)
