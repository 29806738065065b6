import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symmaxent import linalg, observables, symmetry
from symmaxent.linalg import (
    commutator,
    eigh,
    hermitian,
    linearly_independent_subset,
    psd_sqrtm,
)
from symmaxent.states import DensityMatrix

from conftest import I2, SX, SY, SZ, random_hermitian, random_psd


class TestHermitian:
    def test_symmetrizes_small_asymmetry(self):
        m = SX.copy()
        m[0, 1] += 1e-14
        h = hermitian(m, "x")
        assert np.max(np.abs(h - h.conj().T)) == 0.0
        assert np.array_equal(h, (m + m.conj().T) / 2.0)

    def test_returns_the_hermitian_part_of_a_stack(self, rng):
        a = np.array([random_hermitian(3, rng) for _ in range(4)])
        a[:, 0, 1] += 1e-13
        h = hermitian(a, "stack")
        assert h.shape == (4, 3, 3)
        assert np.array_equal(h, (a + a.conj().transpose(0, 2, 1)) / 2.0)
        assert np.array_equal(h, h.conj().transpose(0, 2, 1))
        # each matrix of a stack is checked and symmetrized as it is alone
        for m, row in zip(a, h):
            assert np.array_equal(hermitian(m, "one"), row)

    def test_exact_input_is_returned_unchanged(self):
        assert np.array_equal(hermitian(SY, "y"), SY)

    def test_empty_stack_of_nonempty_matrices(self):
        assert hermitian(np.zeros((0, 2, 2)), "no operators").shape == (0, 2, 2)

    @pytest.mark.parametrize("m", [SZ, np.zeros((2, 2, 2))])
    def test_read_only_copy(self, m):
        h = hermitian(m, "z")
        assert not h.flags.writeable
        assert not np.shares_memory(h, m)
        with pytest.raises(ValueError):
            h[..., 0, 0] = 5.0

    @pytest.mark.parametrize(
        "m, message",
        [
            (np.array([[0, 1], [0, 0]], dtype=complex), "not Hermitian"),
            (np.zeros((2, 3)), "must be square"),
            (np.zeros(4), "must be square"),
            (np.zeros((2, 2, 2, 2)), "must be square"),
            (np.zeros((0, 0)), "empty matrix"),
            (np.zeros((3, 0, 0)), "empty matrix"),
            (np.array([[np.inf, 0], [0, 0]], dtype=complex), "non-finite"),
            (np.full((2, 2), np.nan), "non-finite"),
            (np.array([[0, 1j * np.nan], [0, 0]]), "non-finite"),
        ],
    )
    def test_rejects_with_a_message_naming_the_input(self, m, message):
        with pytest.raises(ValueError, match=f"^the input: {message}"):
            hermitian(m, "the input")

    @pytest.mark.parametrize("scale, accepted", [(0.5, True), (2.0, False)])
    def test_tolerance(self, scale, accepted):
        m = SX + scale * linalg.HERMITICITY_TOL * np.array([[0, 1], [0, 0]])
        if accepted:
            assert np.array_equal(hermitian(m, "x"), (m + m.conj().T) / 2.0)
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                hermitian(m, "x")

    def test_the_operator_type_is_gone(self):
        assert not hasattr(linalg, "HermitianOperator")
        assert not hasattr(linalg, "as_matrix")


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

    def test_rejects_nan(self):
        # every comparison with NaN is false, so no tolerance test catches it
        with pytest.raises(ValueError, match="non-finite"):
            eigh(np.full((2, 2), np.nan))

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

    @pytest.mark.parametrize("scale, accepted", [(0.5, True), (2.0, False)])
    def test_floor_shared_with_density_matrix(self, scale, accepted):
        # one floor decides for both: inside it an eigenvalue is rounding,
        # beyond it the matrix is rejected as a root and as a state
        w = scale * linalg.PSD_EIG_FLOOR
        m = np.diag([1.0 - w, w]).astype(complex)
        if accepted:
            psd_sqrtm(m)
            DensityMatrix(m)
        else:
            with pytest.raises(ValueError, match="not PSD"):
                psd_sqrtm(m)
            with pytest.raises(ValueError, match="not PSD"):
                DensityMatrix(m)


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

    def test_rejects_norms_of_other_length(self):
        # a short norms list must not drop the trailing rows unseen
        with pytest.raises(ValueError, match="3 rows but 2 reference norms"):
            linalg.independent_rows(np.eye(3), [1.0, 1.0])
        with pytest.raises(ValueError, match="2 rows but 3 reference norms"):
            linalg.independent_rows(np.eye(3)[:2], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize(
        "rows, shapes",
        [
            ([np.ones(2), np.ones(3)], r"\[\(2,\), \(3,\)\]"),
            (np.ones(3), r"\[\(\)\]"),
            (np.ones((2, 2, 2)), r"\[\(2, 2\)\]"),
        ],
    )
    def test_rejects_rows_that_are_not_one_matrix(self, rows, shapes):
        with pytest.raises(ValueError, match="2-D array, got row shapes " + shapes):
            linalg.independent_rows(rows, [1.0] * len(rows))

    @pytest.mark.parametrize("rows", [[], np.zeros((0, 4))])
    def test_no_rows(self, rows):
        assert linalg.independent_rows(rows, []) == []

    def test_zero_reference_norm_skipped(self):
        # skipped by its reference norm, not by its own: the row is nonzero
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert linalg.independent_rows(rows, [0.0, 1.0, 1.0]) == [1, 2]
        assert _reference_independent_rows(rows, [0.0, 1.0, 1.0]) == [1, 2]

    def test_stops_once_the_kept_rows_span(self, rng):
        # after a full orthonormal basis the residual of any row is rounding
        # noise, which a tiny reference norm would otherwise count as new
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        rows = np.vstack([q, rng.standard_normal((2, 4))])
        norms = [1.0] * 4 + [1e-300] * 2
        assert linalg.independent_rows(rows, norms) == [0, 1, 2, 3]
        assert _reference_independent_rows(rows, norms) == [0, 1, 2, 3]

    def test_second_pass_rejects_a_dependent_row(self):
        # Lauchli rows e0 + eps e_j: one classical Gram-Schmidt pass leaves
        # the basis non-orthogonal by about u / eps, enough to keep their sum
        eps = 1e-8
        rows = np.eye(5)[0] + eps * np.eye(5)[1:]
        rows = np.vstack([rows, rows.sum(axis=0)])
        norms = np.linalg.norm(rows, axis=1)
        assert linalg.independent_rows(rows, norms) == [0, 1, 2, 3]
        assert _reference_independent_rows(rows, norms) == [0, 1, 2, 3]


def _reference_independent_rows(vectors, norms, tol=linalg.LI_TOL):
    """Two-pass modified Gram-Schmidt, one vdot per kept row: the
    row-by-row reference for ``independent_rows``."""
    basis, kept = [], []
    for idx, (v, n0) in enumerate(zip(vectors, norms)):
        if n0 == 0.0:
            continue
        if len(basis) == len(v):
            break
        for _ in range(2):
            for q in basis:
                v = v - np.vdot(q, v) * q
        nv = np.linalg.norm(v)
        if nv > tol * n0:
            kept.append(idx)
            basis.append(v / nv)
    return kept


class TestIndependentRowsOracle:
    """The kernel keeps exactly the rows the two-pass modified Gram-Schmidt
    loop keeps, on the inputs the package hands it."""

    @pytest.mark.parametrize("observable_kind", ["sic", "pauli"])
    @pytest.mark.parametrize("kind", ["permutation", "werner"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_sweep_filter_inputs(self, n, kind, observable_kind):
        # the rows independent_projections builds for the sweep harness:
        # commutant coordinates, reference norms of the operators themselves
        candidates = observables.canonical_set(observable_kind, n)
        flat = candidates.reshape(len(candidates), -1)
        coeffs = flat @ symmetry.commutant_basis(kind, n).conj().T
        norms = np.linalg.norm(flat, axis=1)
        rng = np.random.default_rng([n, len(candidates), len(kind)])
        for trial in range(3):
            order = np.arange(len(candidates))
            if trial:
                rng.shuffle(order)
            kept = linalg.independent_rows(coeffs[order], norms[order])
            assert kept == _reference_independent_rows(coeffs[order], norms[order])
            assert kept == symmetry.independent_projections(
                [candidates[i] for i in order], kind, n
            )

    @pytest.mark.parametrize(
        "kind, n, expected",
        [("permutation", 3, 44), ("werner", 3, 59), ("permutation", 4, 221), ("werner", 4, 242)],
    )
    def test_auxiliary_construction_inputs(self, kind, n, expected):
        # the auxiliary candidates i[Q_k, O_j] at unit norm over the Pauli
        # products O_j, built as auxiliary_observables builds them
        candidates = []
        for gen in symmetry.generators_for(kind, n):
            for op in observables.pauli_basis(n):
                comm = 1j * linalg.commutator(gen, op)
                comm = (comm + comm.conj().T) / 2.0
                nrm = np.linalg.norm(comm)
                if nrm > symmetry.ZERO_COMMUTATOR_TOL:
                    candidates.append((comm / nrm).ravel())
        norms = [np.linalg.norm(v) for v in candidates]
        kept = linalg.independent_rows(candidates, norms)
        assert kept == _reference_independent_rows(candidates, norms)
        assert len(kept) == expected
        assert len(symmetry.build_symmetry(kind, n).auxiliary) == expected


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
