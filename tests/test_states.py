import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symmaxent import linalg, states, symmetry
from symmaxent.states import (
    DensityMatrix,
    PureState,
    add_white_noise,
    dicke,
    fidelity,
    ghz,
    haar_pure,
    haar_symmetric_pure,
    haar_unitary,
    mix_with_identity,
    purity,
    random_permutation_invariant_mixed,
    random_werner,
    von_neumann_entropy,
)
from symmaxent.symmetry import project

from conftest import SX, SY, SZ, kron_chain, random_mixed_state


def maximally_mixed(n):
    return DensityMatrix(np.eye(2**n) / 2**n)


class TestTypes:
    def test_pure_state_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState(np.array([1.0, 1.0]))

    def test_pure_state_of_any_length(self):
        assert PureState(np.array([0.6, 0.0, 0.8j])).dim == 3

    @pytest.mark.parametrize("amp", [np.eye(2) / np.sqrt(2), np.array([[0.6, 0.8]]), np.array(1.0)])
    def test_pure_state_rejects_other_than_one_dimension(self, amp):
        # a unit-norm matrix would be read as a vector of its entries
        with pytest.raises(ValueError, match="state vector must be 1-D"):
            PureState(amp)

    @pytest.mark.parametrize("dim", [3, 6])
    def test_density_of_any_square_size(self, dim, rng):
        # a state on a symmetry's irrep blocks need not have size 2^n
        m = random_mixed_state(dim, rng)
        assert np.array_equal(DensityMatrix(m).matrix, linalg.hermitian(m, "m"))

    @pytest.mark.parametrize("m", [np.array([0.5, 0.5]), np.eye(2)[None] / 2])
    def test_density_rejects_other_than_two_dimensions(self, m):
        # a (1, 2, 2) stack would pass the Hermitian and PSD checks
        with pytest.raises(ValueError, match="must be 2-D"):
            DensityMatrix(m)

    def test_density_rejects_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="not PSD"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("m", [np.full((2, 2), np.nan), [[0.5, np.inf], [np.inf, 0.5]]])
    def test_density_rejects_non_finite(self, m):
        # every comparison with NaN is false: the Hermiticity, trace and PSD
        # tests would all let a NaN matrix through
        with pytest.raises(ValueError, match="density matrix: non-finite"):
            DensityMatrix(m)

    def test_density_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="density matrix: not Hermitian"):
            DensityMatrix([[0.5, 0.1], [0.0, 0.5]])

    def test_density_accepts_tiny_negative(self):
        m = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        DensityMatrix(m)

    def test_min_eigenvalue_is_the_stored_matrix_smallest(self, rng):
        rho = DensityMatrix(random_mixed_state(8, rng))
        assert rho.min_eigenvalue == np.linalg.eigvalsh(rho.matrix)[0]
        assert DensityMatrix(np.diag([1.0 + 5e-11, -5e-11])).min_eigenvalue == -5e-11


class TestHaarPure:
    def test_unit_norm(self, rng):
        for n in (1, 2, 3):
            psi = haar_pure(n, rng)
            assert psi.dim == 2**n
            assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_bloch_vector_centered(self):
        # Monte Carlo symmetry check: the mean Bloch vector of Haar samples
        # is the origin, up to sampling error.
        rng = np.random.default_rng(7)
        acc = np.zeros(3)
        n_samples = 10_000
        for _ in range(n_samples):
            a = haar_pure(1, rng).amplitudes
            acc += [
                2 * (a[0].conjugate() * a[1]).real,
                2 * (a[0].conjugate() * a[1]).imag,
                abs(a[0]) ** 2 - abs(a[1]) ** 2,
            ]
        assert np.linalg.norm(acc / n_samples) < 0.05

    def test_distinct_streams_distinct_states(self):
        a = haar_pure(3, np.random.default_rng(1)).amplitudes
        b = haar_pure(3, np.random.default_rng(2)).amplitudes
        assert not np.allclose(a, b)


class TestHaarSymmetricPure:
    def test_swap_invariance(self, rng):
        psi = haar_symmetric_pure(3, rng)
        for i, j in ((1, 2), (1, 3), (2, 3)):
            perm = list(range(3))
            perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
            p = linalg.permutation_matrix(3, perm)
            assert np.linalg.norm(p @ psi.amplitudes - psi.amplitudes) <= 1e-10

    def test_supported_on_excitation_basis(self, rng):
        # 4 basis vectors for 3 qubits
        psi = haar_symmetric_pure(3, rng)
        basis = np.array(states.dicke_basis(3))
        coeffs = basis.conj() @ psi.amplitudes
        assert coeffs.shape == (4,)
        recon = coeffs @ basis
        assert np.linalg.norm(recon - psi.amplitudes) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_excitation_basis_is_the_hamming_weight_loop(self, n):
        # haar_symmetric_pure draws its samples on this basis: normalising by
        # the norm and scaling by 1/sqrt(comb) round the same way, so the
        # vectors, and with them the draws, are bit-identical
        for k, v in enumerate(states.dicke_basis(n)):
            ref = np.array([bin(i).count("1") == k for i in range(2**n)], dtype=complex)
            assert np.array_equal(v, ref / np.linalg.norm(ref))

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_excitation_basis_cached_read_only(self, n):
        basis = states.dicke_basis(n)
        assert states.dicke_basis(n) is basis
        assert isinstance(basis, tuple) and len(basis) == n + 1
        for v in basis:
            with pytest.raises(ValueError, match="read-only"):
                v[0] = 1.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_samples_on_the_cached_basis_are_bit_identical(self, n):
        # the draw the sampler made when it rebuilt the basis for every state
        for seed in range(5):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            fresh = [dicke(n, k).amplitudes for k in range(n + 1)]
            c = ref_rng.standard_normal(n + 1) + 1j * ref_rng.standard_normal(n + 1)
            c /= np.linalg.norm(c)
            ref = sum(ci * vi for ci, vi in zip(c, fresh))
            assert np.array_equal(haar_symmetric_pure(n, rng).amplitudes, ref)

    def test_two_qubit_support(self, rng):
        psi = haar_symmetric_pure(2, rng)
        # symmetric two-qubit subspace: |00>, (|01>+|10>)/sqrt2, |11>
        anti = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        assert abs(anti.conj() @ psi.amplitudes) <= 1e-12


class TestNamedStates:
    def test_ghz_amplitudes(self):
        psi = ghz(3)
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / np.sqrt(2)
        assert np.allclose(psi.amplitudes, expected)

    def test_ghz_swap_invariant(self):
        psi = ghz(3)
        for i, j in ((1, 2), (1, 3), (2, 3)):
            perm = list(range(3))
            perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
            p = linalg.permutation_matrix(3, perm)
            assert np.allclose(p @ psi.amplitudes, psi.amplitudes)

    def test_ghz_pauli_expectations(self):
        # direct dense evaluation
        rho = ghz(3).density().matrix
        xxx = kron_chain(SX, SX, SX)
        zzz = kron_chain(SZ, SZ, SZ)
        assert np.trace(xxx @ rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(zzz @ rho).real == pytest.approx(0.0, abs=1e-12)

    def test_ghz_needs_two_qubits(self):
        with pytest.raises(ValueError):
            ghz(1)

    def test_dicke_31(self):
        psi = dicke(3, 1)
        expected = np.zeros(8)
        expected[[1, 2, 4]] = 1 / np.sqrt(3)  # |001>, |010>, |100>
        assert np.allclose(psi.amplitudes, expected)

    def test_dicke_30(self):
        assert np.allclose(dicke(3, 0).amplitudes, np.eye(8)[0])

    def test_dicke_32(self):
        psi = dicke(3, 2)
        expected = np.zeros(8)
        expected[[3, 5, 6]] = 1 / np.sqrt(3)  # |011>, |101>, |110>
        assert np.allclose(psi.amplitudes, expected)

    def test_dicke_range_check(self):
        with pytest.raises(ValueError):
            dicke(3, 4)


class TestTwirl:
    # the twirl over collective unitaries is the werner commutant projection

    def test_fixes_maximally_mixed(self):
        rho = maximally_mixed(3)
        assert np.allclose(project(rho.matrix, "werner", 3), rho.matrix, atol=1e-14)

    def test_idempotent(self, rng):
        rho = DensityMatrix(random_mixed_state(8, rng))
        once = project(rho.matrix, "werner", 3)
        twice = project(once, "werner", 3)
        assert np.allclose(once, twice, atol=1e-13)

    def test_output_in_permutation_span(self, rng):
        # the image of the twirl is exactly span{V_pi}; note its elements
        # need not commute with individual permutations for n >= 3 (the
        # algebra spanned by the V_pi is non-abelian)
        rho = DensityMatrix(random_mixed_state(8, rng))
        t = project(rho.matrix, "werner", 3)
        vecs = np.array(
            [
                linalg.permutation_matrix(3, perm).ravel()
                for perm in itertools.permutations(range(3))
            ]
        )
        q, _ = np.linalg.qr(vecs.T)
        residual = t.ravel() - q @ (q.conj().T @ t.ravel())
        assert np.linalg.norm(residual) <= 1e-10

    def test_output_commutes_with_collective_sums(self, rng):
        rho = DensityMatrix(random_mixed_state(8, rng))
        t = project(rho.matrix, "werner", 3)
        for s in (SX, SY, SZ):
            coll = (
                kron_chain(s, np.eye(2), np.eye(2))
                + kron_chain(np.eye(2), s, np.eye(2))
                + kron_chain(np.eye(2), np.eye(2), s)
            )
            assert np.linalg.norm(coll @ t - t @ coll) <= 1e-9

    def test_collective_unitary_invariance(self, rng):
        t = project(random_mixed_state(8, rng), "werner", 3)
        for _ in range(5):
            u = haar_unitary(2, rng)
            uu = kron_chain(u, u, u)
            assert np.linalg.norm(uu @ t @ uu.conj().T - t) <= 1e-9

    def test_trace_and_psd_preserved(self, rng):
        t = project(random_mixed_state(8, rng), "werner", 3)
        assert np.trace(t).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(t)[0] >= -1e-12

    def test_entropy_never_decreases(self, rng):
        for _ in range(5):
            rho = DensityMatrix(random_mixed_state(8, rng))
            twirled = DensityMatrix(project(rho.matrix, "werner", 3))
            assert von_neumann_entropy(twirled) >= von_neumann_entropy(rho) - 1e-9


    @pytest.mark.parametrize("n", [3, 4])
    def test_equals_projection_onto_permutation_span(self, n, rng):
        # reference: least-squares fit of rho by all n! permutation matrices
        rho = DensityMatrix(random_mixed_state(2**n, rng))
        vecs = np.array(
            [
                linalg.permutation_matrix(n, perm).ravel()
                for perm in itertools.permutations(range(n))
            ]
        ).T
        coeffs, *_ = np.linalg.lstsq(vecs, rho.matrix.ravel(), rcond=None)
        expected = (vecs @ coeffs).reshape(rho.matrix.shape)
        assert np.max(np.abs(project(rho.matrix, "werner", n) - expected)) <= 1e-13


class TestPermutationAverage:
    @pytest.mark.parametrize("n", [3, 4])
    def test_equals_explicit_group_average(self, n, rng):
        rho = DensityMatrix(random_mixed_state(2**n, rng))
        expected = np.zeros_like(rho.matrix)
        perms = list(itertools.permutations(range(n)))
        for perm in perms:
            v = linalg.permutation_matrix(n, perm)
            expected += v @ rho.matrix @ v.conj().T
        expected /= len(perms)
        assert np.max(np.abs(project(rho.matrix, "permutation", n) - expected)) <= 1e-14

    def test_projects_onto_swap_invariants(self, rng):
        rho = DensityMatrix(random_mixed_state(8, rng))
        avg = project(rho.matrix, "permutation", 3)
        for perm in itertools.permutations(range(3)):
            v = linalg.permutation_matrix(3, perm)
            assert np.linalg.norm(v @ avg @ v.conj().T - avg) <= 1e-12


class TestRandomWerner:
    def test_collective_invariance(self):
        rng = np.random.default_rng(3)
        rho = random_werner(3, rng).matrix
        for _ in range(20):
            u = haar_unitary(2, rng)
            uu = kron_chain(u, u, u)
            assert np.linalg.norm(uu @ rho @ uu.conj().T - rho) <= 1e-9

    def test_valid_density_matrix(self, rng):
        rho = random_werner(3, rng)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10

    def test_three_qubit_family_rank(self):
        # Vectorized samples must fill exactly the span of the permutation
        # matrices. For three qubits that span is 5-dimensional: the six
        # permutation matrices satisfy one relation (the antisymmetrizer is
        # zero because no antisymmetric 3-qubit subspace exists). Oracle:
        # SVD rank of the stacked batch.
        rng = np.random.default_rng(5)
        samples = np.array([random_werner(3, rng).matrix.ravel() for _ in range(100)])
        svals = np.linalg.svd(samples, compute_uv=False)
        rank = int(np.sum(svals > 1e-9 * svals[0]))
        assert rank == 5


class TestWhiteNoise:
    def test_eta_zero_pure(self, rng):
        psi = haar_pure(3, rng)
        rho = add_white_noise(psi, 0.0)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_eta_one_maximally_mixed(self, rng):
        psi = haar_pure(3, rng)
        rho = add_white_noise(psi, 1.0)
        assert np.allclose(rho.matrix, np.eye(8) / 8)

    def test_purity_formula(self, rng):
        psi = haar_pure(3, rng)
        for eta in (0.1, 0.35, 0.8):
            expected = (7.0 / 8.0) * (eta - 1.0) ** 2 + 1.0 / 8.0
            assert purity(add_white_noise(psi, eta)) == pytest.approx(expected, abs=1e-12)

    def test_purity_097_eta(self, rng):
        # invert the purity formula for the 0.97 operating point
        eta = 1.0 - np.sqrt((0.97 - 1.0 / 8.0) / (7.0 / 8.0))
        assert eta == pytest.approx(0.0172, abs=5e-4)
        psi = haar_pure(3, rng)
        assert purity(add_white_noise(psi, eta)) == pytest.approx(0.97, abs=1e-6)

    def test_eta_out_of_range(self, rng):
        with pytest.raises(ValueError):
            add_white_noise(haar_pure(2, rng), 1.5)

    def test_mix_with_identity_matches_pure_path(self, rng):
        psi = haar_pure(2, rng)
        a = add_white_noise(psi, 0.25).matrix
        b = mix_with_identity(psi.density(), 0.25).matrix
        assert np.allclose(a, b)


# each family's sampler and mixer, called the way the sweep called them
# before the families moved into ``states.FAMILIES``
EXPLICIT = {
    "haar_pure": lambda n, rng, eta, k: add_white_noise(haar_pure(n, rng), eta),
    "permutation_invariant": lambda n, rng, eta, k: add_white_noise(
        haar_symmetric_pure(n, rng), eta
    ),
    "permutation_invariant_mixed": lambda n, rng, eta, k: mix_with_identity(
        random_permutation_invariant_mixed(n, rng), eta
    ),
    "werner": lambda n, rng, eta, k: mix_with_identity(random_werner(n, rng), eta),
    "ghz": lambda n, rng, eta, k: add_white_noise(ghz(n), eta),
    "dicke": lambda n, rng, eta, k: add_white_noise(dicke(n, k), eta),
}


class TestSample:
    def test_every_family_is_in_the_table(self):
        assert set(states.FAMILIES) == set(EXPLICIT)

    @pytest.mark.parametrize("family", sorted(EXPLICIT))
    def test_equals_the_explicit_sampler_and_mixer(self, family):
        least = states.FAMILIES[family][0]
        for n in range(max(2, least), 5):
            for seed in range(5):
                for eta in (0.0, 0.3):
                    k = seed % (n + 1)
                    got = states.sample(family, n, np.random.default_rng(seed), eta, k)
                    want = EXPLICIT[family](n, np.random.default_rng(seed), eta, k)
                    assert np.array_equal(got.matrix, want.matrix)

    def test_calls_the_module_attributes(self, monkeypatch):
        # a tracer wraps the samplers and mixers on the module; the table
        # must find the wrappers, not the functions it was built with
        calls = []

        def spy(name):
            real = getattr(states, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(states, name, wrapper)

        for name in ("haar_pure", "random_werner", "add_white_noise"):
            spy(name)
        states.sample("haar_pure", 3, np.random.default_rng(0), 0.1, 1)
        states.sample("werner", 3, np.random.default_rng(0), 0.1, 1)
        assert calls == ["haar_pure", "add_white_noise", "random_werner", "add_white_noise"]


class TestFidelity:
    @pytest.mark.parametrize(
        "kind, sampler",
        [("permutation", random_permutation_invariant_mixed), ("werner", random_werner)],
    )
    @pytest.mark.parametrize("n", [3, 4])
    def test_block_fidelity_equals_the_full_space_value(self, kind, sampler, n):
        # a symmetric state is sum_b rho_b (x) I_{m_b}; its weighted blocks
        # M rho_c, with M = diag(m), are a c x c state with the same fidelity
        rng = np.random.default_rng([n, len(kind)])
        weights = symmetry.block_weights(kind, n)

        def blocks(rho):
            return DensityMatrix(weights[:, None] * symmetry.compress(rho.matrix[None], kind, n)[0])

        for _ in range(4):
            rho, sigma = sampler(n, rng), sampler(n, rng)
            assert blocks(rho).dim < rho.dim
            assert abs(fidelity(blocks(rho), blocks(sigma)) - fidelity(rho, sigma)) <= 1e-12

    def test_no_nan_state_reaches_it(self):
        # a NaN entry would make the fidelity NaN; the state is refused
        with pytest.raises(ValueError, match="non-finite"):
            fidelity(maximally_mixed(1), DensityMatrix([[0.5, np.nan], [np.nan, 0.5]]))

    def test_self_fidelity(self, rng):
        rho = DensityMatrix(random_mixed_state(8, rng))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        zero = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        one = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-10)

    def test_pure_vs_maximally_mixed(self):
        # closed form sqrt(<psi| I/2 |psi>) = 1/sqrt(2)
        zero = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        mixed = maximally_mixed(1)
        assert fidelity(zero, mixed) == pytest.approx(1 / np.sqrt(2), abs=1e-10)

    def test_symmetric(self, rng):
        a = DensityMatrix(random_mixed_state(8, rng))
        b = DensityMatrix(random_mixed_state(8, rng))
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-8)

    def test_dimension_mismatch(self, rng):
        a = DensityMatrix(random_mixed_state(4, rng))
        b = DensityMatrix(random_mixed_state(8, rng))
        with pytest.raises(ValueError):
            fidelity(a, b)

    def test_cached_root_gives_the_inline_formula_exactly(self, rng):
        rho = DensityMatrix(random_mixed_state(16, rng))
        s = linalg.psd_sqrtm(rho.matrix)
        for _ in range(3):  # the first call fills the cache, the others read it
            sigma = DensityMatrix(random_mixed_state(16, rng))
            inner = s @ sigma.matrix @ s
            inner = (inner + inner.conj().T) / 2.0
            w = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
            assert fidelity(rho, sigma) == float(min(np.sum(np.sqrt(w)), 1.0))
        assert np.array_equal(rho.sqrt, s)
        with pytest.raises(ValueError, match="read-only"):
            rho.sqrt[0, 0] = 0.0

    def test_from_a_cached_root_is_the_fidelity(self, rng):
        # the sweep scores a trusted estimate against a root it keeps
        rho = DensityMatrix(random_mixed_state(8, rng))
        sigma = DensityMatrix(random_mixed_state(8, rng))
        assert states._fidelity_from_sqrt(rho.sqrt, sigma.matrix) == fidelity(rho, sigma)

    def test_monotone_in_noise(self, rng):
        psi = haar_pure(3, rng)
        pure = psi.density()
        values = [fidelity(add_white_noise(psi, eta), pure) for eta in np.linspace(0, 1, 11)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestPurityEntropy:
    def test_maximally_mixed(self):
        rho = maximally_mixed(3)
        assert purity(rho) == pytest.approx(1 / 8)
        assert von_neumann_entropy(rho) == pytest.approx(np.log(8))

    def test_pure_state(self, rng):
        rho = haar_pure(3, rng).density()
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-7)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_ranges(self, seed):
        rho = DensityMatrix(random_mixed_state(8, np.random.default_rng(seed)))
        assert 1 / 8 - 1e-12 <= purity(rho) <= 1.0 + 1e-12
        assert -1e-12 <= von_neumann_entropy(rho) <= np.log(8) + 1e-12
