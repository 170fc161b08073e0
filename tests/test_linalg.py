import hashlib
import math
import random

import numpy as np
import pytest

from jcpair import linalg
from jcpair.linalg import SymMatrix, eig_sym, eigenvalue_multiset_equal


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


class TestPinnedBits:
    """Bit-level regression gate for the Jacobi kernel.

    The sweep counts and SHA-256 digests pin the kernel's exact output; a
    rewrite of the rotation arithmetic (say, a batched kernel) must
    reproduce them bit for bit.
    """

    @pytest.mark.parametrize(
        "n,sweeps,digest",
        [
            (1, 0, "8b652168da78d520b22ceea909a4a7ae012c176388f1c78f703e50b09e41168d"),
            (2, 1, "62eaa07ee8493e864c06c3e8821ba638ea037d7594af0ae168c267a96ab16706"),
            (4, 4, "3194ca45cbdcc7fc1e0d783b320b9602ddf4cc6102abdfd81c6fbcffd44a93c2"),
            (7, 5, "b4470bbb7e5dbb3eace0395caa48e2922a9f4499991225f7418f81f1b3159bd1"),
            (12, 6, "3fe38d955059cfdc9bcd2f13efa98dfcf3fdca71a64bfdd7b98503d55a25d633"),
            (16, 7, "a232f1d86381cdcc9cfc343c5462344c91ec18daa4d134c2bcb822acf1b180a3"),
            (48, 8, "d4fa4edc3163e24638a93bf6719cbdb3d6a5e4a91b9d60f77a0654786b706d79"),
        ],
    )
    def test_sweeps_and_output_bits(self, n, sweeps, digest):
        a = random_symmetric(random.Random(1000 + n), n)
        work, vecs = a.to_array(), np.eye(n)
        assert linalg._kernel.jacobi_cycle(work, vecs, linalg.REL_TOL, linalg.MAX_SWEEPS) == sweeps
        system = eig_sym(a)
        bits = system.values.tobytes() + system.vectors.tobytes()
        assert hashlib.sha256(bits).hexdigest() == digest


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
