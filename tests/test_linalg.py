import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symmaxent import linalg
from symmaxent.linalg import (
    HermitianOperator,
    commutator,
    eigh,
    hs_inner,
    linearly_independent_subset,
    psd_sqrtm,
)

from conftest import I2, SX, SY, SZ, random_hermitian, random_psd


class TestHermitianOperator:
    def test_symmetrizes_small_asymmetry(self):
        m = SX.copy()
        m[0, 1] += 1e-14
        op = HermitianOperator(m, "x")
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) == 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HermitianOperator(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            HermitianOperator(np.array([[np.inf, 0], [0, 0]], dtype=complex))

    def test_immutable(self):
        op = HermitianOperator(SZ)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestCommutator:
    def test_pauli_xy(self):
        assert np.allclose(commutator(SX, SY), 2j * SZ)

    def test_pauli_zx(self):
        assert np.allclose(commutator(SZ, SX), 2j * SY)

    def test_self_commutator_vanishes(self, rng):
        h = random_hermitian(8, rng)
        assert np.allclose(commutator(h, h), 0.0)

    def test_i_times_commutator_hermitian(self, rng):
        a, b = random_hermitian(4, rng), random_hermitian(4, rng)
        c = 1j * commutator(a, b)
        assert np.allclose(c, c.conj().T)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            commutator(SX, np.eye(4))


class TestEigh:
    def test_diagonal(self):
        w, v = eigh(np.diag([3.0, 1.0]).astype(complex))
        assert np.allclose(w, [1.0, 3.0])
        assert np.allclose(np.abs(v), [[0, 1], [1, 0]])

    def test_sigma_x(self):
        w, v = eigh(SX)
        assert np.allclose(w, [-1.0, 1.0])
        for k in range(2):
            assert np.allclose(np.abs(v[:, k]), [1 / np.sqrt(2)] * 2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            eigh(np.array([[0, 1], [0, 0]], dtype=complex))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 16))
    def test_reconstruction_property(self, seed, dim):
        h = random_hermitian(dim, np.random.default_rng(seed))
        w, v = eigh(h)
        recon = (v * w) @ v.conj().T
        assert np.linalg.norm(recon - h) <= 1e-10 * max(np.linalg.norm(h), 1.0)
        assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-10


class TestPsdSqrtm:
    def test_identity(self):
        assert np.allclose(psd_sqrtm(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(psd_sqrtm(np.diag([4.0, 9.0]).astype(complex)), np.diag([2.0, 3.0]))

    def test_projector_is_fixed_point(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        p = np.outer(v, v.conj())
        assert np.allclose(psd_sqrtm(p), p, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    def test_square_property(self, seed, dim):
        m = random_psd(dim, np.random.default_rng(seed))
        s = psd_sqrtm(m)
        assert np.linalg.norm(s @ s - m) <= 1e-8 * max(np.linalg.norm(m), 1.0)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not PSD"):
            psd_sqrtm(np.diag([1.0, -0.5]).astype(complex))

    def test_clamps_rounding_noise(self):
        m = np.diag([1.0, -5e-11]).astype(complex)
        s = psd_sqrtm(m)
        assert s[1, 1].real == 0.0


class TestHsInner:
    def test_pauli_normalization(self):
        assert hs_inner(SX, SX) == pytest.approx(2.0)

    def test_pauli_orthogonality(self):
        assert hs_inner(SX, SY) == pytest.approx(0.0, abs=1e-15)

    def test_identity_dim(self):
        assert hs_inner(np.eye(8), np.eye(8)) == pytest.approx(8.0)

    def test_conjugate_symmetry(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))

    def test_positive_on_diagonal(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        val = hs_inner(a, a)
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert val.real >= 0.0


class TestLinearlyIndependentSubset:
    def test_rejects_scalar_multiple(self):
        assert linearly_independent_subset([SX, 2 * SX, SY]) == [0, 2]

    def test_seed_blocks_dependent_candidate(self):
        assert linearly_independent_subset([SX, SY], seed_ops=[SY]) == [0]

    def test_empty_ok(self):
        assert linearly_independent_subset([]) == []

    def test_zero_matrix_skipped(self):
        assert linearly_independent_subset([np.zeros((2, 2)), SX]) == [1]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        ops = [random_hermitian(4, rng) for _ in range(20)]
        # inject deliberate dependencies
        ops[5] = ops[0] + 0.5 * ops[1]
        ops[11] = -2.0 * ops[3]
        seeds = [random_hermitian(4, rng) for _ in range(2)]
        kept = linearly_independent_subset(ops, seed_ops=seeds)
        sub = [ops[i] for i in kept]
        again = linearly_independent_subset(sub, seed_ops=seeds)
        assert again == list(range(len(sub)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_gram_matrix_positive_definite(self, seed):
        rng = np.random.default_rng(seed)
        ops = [random_hermitian(4, rng) for _ in range(24)]
        ops[7] = ops[2] - ops[4]
        kept = linearly_independent_subset(ops)
        vecs = np.array([ops[i].ravel() for i in kept])
        gram = (vecs @ vecs.conj().T).real
        assert np.linalg.eigvalsh(gram)[0] > 0.0

    def test_agrees_with_svd_rank(self, rng):
        ops = [random_hermitian(6, rng) for _ in range(30)]
        for i in (4, 9, 17):
            ops[i] = ops[i - 1] * 1.5 - ops[i - 3]
        kept = linearly_independent_subset(ops)
        stacked = np.array([op.ravel() for op in ops])
        svals = np.linalg.svd(stacked, compute_uv=False)
        svd_rank = int(np.sum(svals > 1e-9 * svals[0]))
        assert len(kept) == svd_rank


class TestIndependentRows:
    def test_residual_measured_against_reference_norm(self):
        # a row of rounding-noise size is independent by its own norm but not
        # against a reference norm of one
        rows = np.array([[1.0, 0.0], [0.0, 1e-13]])
        assert linalg.independent_rows(rows, [1.0, 1e-13]) == [0, 1]
        assert linalg.independent_rows(rows, [1.0, 1.0]) == [0]

    def test_matches_subset_on_vectorized_operators(self, rng):
        ops = [random_hermitian(3, rng) for _ in range(12)]
        ops[6] = ops[1] - 0.25 * ops[2]
        rows = np.array([op.ravel() for op in ops])
        kept = linalg.independent_rows(rows, np.linalg.norm(rows, axis=1))
        assert kept == linearly_independent_subset(ops)
        assert len(kept) == 9

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError, match="tol"):
            linalg.independent_rows(np.eye(2), [1.0, 1.0], tol=0.0)


class TestPermutationMatrix:
    def test_two_qubit_swap(self):
        swap = linalg.permutation_matrix(2, (1, 0))
        expected = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        assert np.allclose(swap, expected)

    def test_rejects_bad_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            linalg.permutation_matrix(2, (0, 0))
