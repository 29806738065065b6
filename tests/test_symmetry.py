import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from symmaxent import linalg, states, symmetry
from symmaxent.observables import canonical_set, pauli_basis, sic_povm
from symmaxent.symmetry import (
    SymmetryGroupSpec,
    auxiliary_observables,
    block_weights,
    build_symmetry,
    commutant_basis,
    compress,
    expand,
    filter_measured_observables,
    generators_for,
    independent_projections,
    permutation_generators,
    permutation_operator,
    project,
    werner_generators,
)

from conftest import SX, SY, SZ, kron_chain, random_mixed_state


class TestPermutationOperator:
    def test_two_qubit_swap(self):
        swap = permutation_operator(2, 1, 2).matrix
        expected = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        assert np.allclose(swap, expected)

    def test_fixes_ghz(self):
        psi = states.ghz(3).amplitudes
        p12 = permutation_operator(3, 1, 2).matrix
        assert np.allclose(p12 @ psi, psi)

    def test_p13_on_basis_state(self):
        # |001> -> |100>
        p13 = permutation_operator(3, 1, 3).matrix
        e001 = np.eye(8)[1]
        e100 = np.eye(8)[4]
        assert np.allclose(p13 @ e001, e100)

    def test_involutory_hermitian_unitary(self):
        for i, j in ((1, 2), (1, 3), (2, 3)):
            p = permutation_operator(3, i, j).matrix
            assert np.allclose(p @ p, np.eye(8))
            assert np.allclose(p, p.conj().T)
            assert np.allclose(p @ p.conj().T, np.eye(8))

    def test_index_validation(self):
        with pytest.raises(ValueError):
            permutation_operator(3, 2, 2)
        with pytest.raises(ValueError):
            permutation_operator(3, 0, 2)
        with pytest.raises(ValueError):
            permutation_operator(3, 2, 4)


class TestPermutationGenerators:
    def test_three_qubits(self):
        gens = permutation_generators(3)
        assert [g.label for g in gens] == ["P12", "P13"]

    def test_two_qubits_single_swap(self):
        gens = permutation_generators(2)
        assert len(gens) == 1
        assert np.allclose(gens[0].matrix, permutation_operator(2, 1, 2).matrix)

    def test_squares_to_identity(self):
        for g in permutation_generators(4):
            assert np.allclose(g.matrix @ g.matrix, np.eye(16))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_generate_full_symmetric_group(self, n):
        # closure of the generator set under multiplication reaches all n!
        # permutation matrices
        gens = [g.matrix for g in permutation_generators(n)]
        seen = {}
        frontier = [np.eye(2**n)]
        while frontier:
            new = []
            for m in frontier:
                key = tuple(np.argmax(m.real, axis=0))
                if key in seen:
                    continue
                seen[key] = m
                new.extend(m @ g for g in gens)
            frontier = new
        import math

        assert len(seen) == math.factorial(n)

    def test_requires_two_qubits(self):
        with pytest.raises(ValueError):
            permutation_generators(1)


class TestWernerGenerators:
    def test_collective_z_two_qubits(self):
        gens = werner_generators(2)
        z = [g for g in gens if g.label == "Sz"][0]
        assert np.allclose(z.matrix, np.diag([2.0, 0.0, 0.0, -2.0]))

    def test_exactly_three(self):
        # the k = 0 collective operator is n*I; i[nI, O] = 0 identically so
        # it would only contribute empty constraints
        assert len(werner_generators(3)) == 3
        n_eye = 3.0 * np.eye(8)
        for op in list(pauli_basis(3))[:10]:
            assert np.allclose(1j * linalg.commutator(n_eye, op), 0.0)

    def test_commute_with_permutations(self):
        for g in werner_generators(3):
            for perm in itertools.permutations(range(3)):
                v = linalg.permutation_matrix(3, perm)
                assert np.linalg.norm(g.matrix @ v - v @ g.matrix) <= 1e-12


class TestAuxiliaryObservables:
    def test_permutation_three_qubits_count(self):
        aux = auxiliary_observables("permutation", 3)
        assert len(aux) == 44

    def test_all_traceless(self):
        for aux in auxiliary_observables("permutation", 3):
            assert abs(np.trace(aux.matrix)) <= 1e-12

    def test_unit_norm(self):
        for aux in auxiliary_observables("werner", 3):
            assert np.linalg.norm(aux.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_werner_count_matches_commutant_oracle(self):
        # oracle: the joint kernel of the commutator maps X -> [Q_k, X] is
        # the commutant of the collective algebra; the auxiliary span is its
        # orthogonal complement. Kernel dimension via SVD of the stacked
        # superoperators.
        gens = werner_generators(3)
        rows = [
            np.kron(g.matrix, np.eye(8)) - np.kron(np.eye(8), g.matrix.T)
            for g in gens
        ]
        svals = np.linalg.svd(np.vstack(rows), compute_uv=False)
        kernel_dim = 64 - int(np.sum(svals > 1e-9 * svals[0]))
        assert kernel_dim == 5
        assert len(auxiliary_observables("werner", 3)) == 64 - kernel_dim

    def test_permutation_count_matches_commutant_oracle(self):
        gens = permutation_generators(3)
        rows = [
            np.kron(g.matrix, np.eye(8)) - np.kron(np.eye(8), g.matrix.T)
            for g in gens
        ]
        svals = np.linalg.svd(np.vstack(rows), compute_uv=False)
        kernel_dim = 64 - int(np.sum(svals > 1e-9 * svals[0]))
        assert kernel_dim == 20
        assert len(auxiliary_observables("permutation", 3)) == 64 - kernel_dim

    def test_gram_positive_definite(self):
        aux = auxiliary_observables("permutation", 3)
        vecs = np.array([a.matrix.ravel() for a in aux])
        gram = (vecs @ vecs.conj().T).real
        assert np.linalg.eigvalsh(gram)[0] > 1e-6

    def test_annihilate_symmetric_states(self, rng):
        aux = auxiliary_observables("permutation", 3)
        sym_states = [
            states.haar_symmetric_pure(3, rng).density(),
            states.DensityMatrix(project(random_mixed_state(8, rng), "permutation", 3), 3),
        ]
        for rho in sym_states:
            for a in aux:
                assert abs(np.vdot(a.matrix, rho.matrix).real) <= 1e-9

    def test_none_kind_empty(self):
        assert auxiliary_observables("none", 3) == []

    @pytest.mark.parametrize(
        "kind, n, count, first, last",
        [
            ("permutation", 3, 44, ["aux-P12-O04", "aux-P12-O05", "aux-P12-O06"], "aux-P13-O39"),
            ("werner", 3, 59, ["aux-Sx-O02"], "aux-Sy-O53"),
            ("permutation", 4, 221, [], "aux-P14-O151"),
        ],
    )
    def test_counts_and_labels(self, kind, n, count, first, last):
        # O_j is the j-th Pauli product of pauli_basis, counted from 1 as if
        # the identity (whose commutators vanish) were O_00
        labels = [a.label for a in auxiliary_observables(kind, n)]
        assert len(labels) == count
        assert labels[: len(first)] == first
        assert labels[-1] == last

    def test_zero_expectations_imply_generator_commutation(self, rng):
        # build a state whose auxiliary expectations all vanish by averaging
        # over the permutation group, then check it commutes with each
        # generator
        rho = states.DensityMatrix(project(random_mixed_state(8, rng), "permutation", 3), 3)
        aux = auxiliary_observables("permutation", 3)
        assert all(abs(np.vdot(a.matrix, rho.matrix).real) <= 1e-10 for a in aux)
        for g in permutation_generators(3):
            assert np.linalg.norm(linalg.commutator(g, rho.matrix)) <= 1e-8


class TestBuildSymmetry:
    def test_none(self):
        spec = build_symmetry("none", 3)
        assert spec.generators == ()
        assert spec.auxiliary == ()

    def test_permutation(self):
        spec = build_symmetry("permutation", 3)
        assert len(spec.generators) == 2
        assert len(spec.auxiliary) == 44

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SymmetryGroupSpec("rotation", 3, (), ())


class TestFilterMeasuredObservables:
    def test_no_aux_keeps_all(self):
        basis = pauli_basis(3)
        kept = filter_measured_observables(basis, ())
        assert len(kept) == 63
        assert [op.label for op in kept] == [op.label for op in basis]

    def test_rejects_aux_span_member(self):
        # X I I - I X I flips sign under conjugation by the 1<->2 swap, so it
        # is orthogonal to the swap-invariant commutant and lies inside the
        # auxiliary span; membership oracle: least-squares residual
        aux = build_symmetry("permutation", 3).auxiliary
        xii = kron_chain(SX, np.eye(2), np.eye(2))
        ixi = kron_chain(np.eye(2), SX, np.eye(2))
        candidate = (xii - ixi) / np.linalg.norm(xii - ixi)
        basis_mat = np.array([a.matrix.ravel() for a in aux]).T
        coeffs, *_ = np.linalg.lstsq(basis_mat, candidate.ravel(), rcond=None)
        residual = np.linalg.norm(basis_mat @ coeffs - candidate.ravel())
        assert residual < 1e-9
        obs = [linalg.HermitianOperator(candidate, "XII-IXI")]
        assert filter_measured_observables(obs, aux) == ()

    def test_rank_bookkeeping(self):
        # kept + |aux| must equal the rank of the union of candidates and aux
        aux = build_symmetry("permutation", 3).auxiliary
        candidates = pauli_basis(3)
        kept = filter_measured_observables(candidates, aux)
        stacked = np.array(
            [a.matrix.ravel() for a in aux] + [c.matrix.ravel() for c in candidates]
        )
        svals = np.linalg.svd(stacked, compute_uv=False)
        union_rank = int(np.sum(svals > 1e-9 * svals[0]))
        assert len(kept) + len(aux) == union_rank
        assert len(kept) == 19

    def test_sic_filtered_lengths(self):
        expected = {
            "permutation": [0, 1, 2, 3, 5, 6, 7, 10, 11, 15, 21, 22, 23, 26, 27, 31, 42, 43, 47],
            "werner": [0, 1, 4, 5, 6],
        }
        for kind, numbers in expected.items():
            aux = build_symmetry(kind, 3).auxiliary
            # a plain list in, a tuple of the kept operators out, in input order
            kept = filter_measured_observables(list(sic_povm(3)), aux)
            assert type(kept) is tuple
            assert all(type(op) is linalg.HermitianOperator for op in kept)
            assert [op.label for op in kept] == [f"SIC-{k:02d}" for k in numbers]
        # the call the benchmark's n = 3 permutation kernel makes
        aux = build_symmetry("permutation", 3).auxiliary
        first = list(filter_measured_observables(canonical_set("sic", 3), aux))[:19]
        assert [op.label for op in first] == [f"SIC-{k:02d}" for k in expected["permutation"]]

    def test_preserves_order(self):
        aux = build_symmetry("werner", 3).auxiliary
        kept = filter_measured_observables(sic_povm(3), aux)
        all_labels = [op.label for op in sic_povm(3)]
        positions = [all_labels.index(op.label) for op in kept]
        assert positions == sorted(positions)


# prints a digest of the n = 4 permutation basis, its block weights and the
# compressed n = 4 SIC set, and the first diagonal entry of a seeded draw
THREAD_PROBE = """
import hashlib
import numpy as np
from symmaxent import states, symmetry
from symmaxent.observables import sic_povm
digest = hashlib.sha256(symmetry.commutant_basis("permutation", 4).tobytes())
digest.update(symmetry.block_weights("permutation", 4).tobytes())
sic = np.array([op.matrix for op in sic_povm(4)])
digest.update(symmetry.compress(sic, "permutation", 4).tobytes())
rho = states.random_permutation_invariant_mixed(4, np.random.default_rng(5))
print(digest.hexdigest(), repr(float(rho.matrix[0, 0].real)))
"""


class TestCommutantBasis:
    @pytest.mark.parametrize(
        "kind, n, dim",
        [("permutation", 3, 20), ("permutation", 4, 35), ("werner", 3, 5), ("werner", 4, 14)],
    )
    def test_dimension_matches_auxiliary_complement(self, kind, n, dim):
        # the auxiliaries span the orthogonal complement of the commutant
        basis = commutant_basis(kind, n)
        assert basis.shape == (dim, 4**n)
        assert dim + len(build_symmetry(kind, n).auxiliary) == 4**n

    @pytest.mark.parametrize("kind", ["permutation", "werner"])
    def test_orthonormal_read_only_and_cached(self, kind):
        basis = commutant_basis(kind, 3)
        assert np.allclose(basis @ basis.conj().T, np.eye(len(basis)), atol=1e-12)
        assert not basis.flags.writeable
        assert commutant_basis(kind, 3) is basis

    @pytest.mark.parametrize("kind", ["permutation", "werner"])
    def test_elements_commute_with_generators(self, kind):
        for row in commutant_basis(kind, 3):
            m = row.reshape(8, 8)
            for g in build_symmetry(kind, 3).generators:
                assert np.linalg.norm(linalg.commutator(g, m)) <= 1e-12

    @pytest.mark.parametrize("kind, dim", [("permutation", 56), ("werner", 42)])
    def test_five_qubit_dimension(self, kind, dim):
        # sum_j (2j + 1)^2 = 36 + 16 + 4 and sum_j copies_j^2 = 1 + 16 + 25;
        # the auxiliary complement is not counted, as building it takes seconds
        assert commutant_basis(kind, 5).shape == (dim, 4**5)

    @pytest.mark.parametrize("kind", ["permutation", "werner"])
    def test_five_qubit_rows_orthonormal_and_commuting(self, kind):
        basis = commutant_basis(kind, 5)
        assert np.max(np.abs(basis @ basis.conj().T - np.eye(len(basis)))) <= 1e-13
        gens = generators_for(kind, 5)
        for row in basis:
            m = row.reshape(32, 32)
            for g in gens:
                assert np.linalg.norm(linalg.commutator(g, m)) <= 1e-12

    def test_basis_and_draws_do_not_depend_on_blas_threads(self):
        # each child sets its own thread count, so a pin in the parent's
        # environment does not hide a difference
        src = os.path.dirname(os.path.dirname(os.path.abspath(symmetry.__file__)))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run(
                [sys.executable, "-c", THREAD_PROBE],
                env=env, capture_output=True, text=True, check=True, timeout=300,
            )
            outputs.append(run.stdout.split())
        assert outputs[0] == outputs[1]

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="commutant"):
            commutant_basis("none", 3)


class TestProject:
    @pytest.mark.parametrize("kind", ["permutation", "werner"])
    def test_idempotent_and_annihilates_auxiliaries(self, kind, rng):
        a = random_mixed_state(8, rng)
        p = project(a, kind, 3)
        assert np.allclose(project(p, kind, 3), p, atol=1e-13)
        for aux in build_symmetry(kind, 3).auxiliary:
            assert abs(np.vdot(aux.matrix, p)) <= 1e-12

    @pytest.mark.parametrize("kind", ["permutation", "werner"])
    def test_expectations_kept_on_symmetric_states(self, kind, rng):
        sample = {"permutation": states.random_permutation_invariant_mixed,
                  "werner": states.random_werner}[kind]
        rho = sample(3, rng)
        for op in list(sic_povm(3))[:20]:
            sym = project(op, kind, 3)
            assert np.vdot(sym, rho.matrix).real == pytest.approx(
                np.vdot(op.matrix, rho.matrix).real, abs=1e-13
            )


class TestIndependentProjections:
    # reference: Gram-Schmidt of the raw operators against the auxiliaries,
    # which span the orthogonal complement of the commutant
    @pytest.mark.parametrize("observable_kind", ["sic", "pauli"])
    @pytest.mark.parametrize("kind", ["permutation", "werner"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_keeps_what_the_auxiliary_filter_keeps(self, n, kind, observable_kind):
        aux = build_symmetry(kind, n).auxiliary
        candidates = list(pauli_basis(n) if observable_kind == "pauli" else sic_povm(n))
        rng = np.random.default_rng([n, len(aux)])
        for trial in range(8 if n == 3 else 2):
            order = list(range(len(candidates)))
            if trial:
                rng.shuffle(order)
            ordered = [candidates[i] for i in order]
            expected = linalg.linearly_independent_subset(ordered, seed_ops=aux)
            assert independent_projections(ordered, kind, n) == expected

    @pytest.mark.parametrize("kind", ["permutation", "werner"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_no_operators_keeps_none(self, n, kind):
        assert independent_projections([], kind, n) == []

    def test_noise_sized_projection_dropped(self):
        # X I I - I X I projects to zero under permutation symmetry; its
        # rounding-noise projection must not count as a new direction
        xii = kron_chain(SX, np.eye(2), np.eye(2))
        ixi = kron_chain(np.eye(2), SX, np.eye(2))
        ops = [linalg.HermitianOperator(xii - ixi, "XII-IXI"), sic_povm(3)[0]]
        assert independent_projections(ops, "permutation", 3) == [1]


# (block sizes, block weights) in order of decreasing total spin j
IRREP_BLOCKS = {
    ("permutation", 2): ((3, 1), (1, 1)),
    ("permutation", 3): ((4, 2), (1, 2)),
    ("permutation", 4): ((5, 3, 1), (1, 3, 2)),
    ("werner", 2): ((1, 1), (3, 1)),
    ("werner", 3): ((1, 2), (4, 2)),
    ("werner", 4): ((1, 3, 2), (5, 3, 1)),
    ("permutation", 5): ((6, 4, 2), (1, 4, 5)),
    ("werner", 5): ((1, 4, 5), (6, 4, 2)),
}


def _spin_blocks(kind, n):
    """Total spin j of each column of the blocks, read from the compressed
    collective S^2 = sum_k (sum_l sigma_k^(l) / 2)^2, which lies in both
    commutants, and the column ranges of equal j."""
    s2 = sum(g.matrix @ g.matrix for g in werner_generators(n)) / 4.0
    s2_c = compress(s2[None], kind, n)[0]
    assert np.max(np.abs(s2_c - np.diag(np.diag(s2_c)))) <= 1e-12
    j = (np.sqrt(1.0 + 4.0 * np.diag(s2_c).real) - 1.0) / 2.0
    assert np.allclose(j, np.round(2 * j) / 2, atol=1e-12)
    starts = [0] + [c for c in range(1, len(j)) if abs(j[c] - j[c - 1]) > 0.25]
    return j, [slice(a, b) for a, b in zip(starts, starts[1:] + [len(j)])]


def _random_commutant_element(kind, n, rng):
    basis = commutant_basis(kind, n)
    x = ((rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))) @ basis)
    x = x.reshape(2**n, 2**n)
    return (x + x.conj().T) / 2


def _block_mask(kind, n):
    """c x c mask of the block diagonal, from the block sizes in IRREP_BLOCKS."""
    block_of = np.repeat(np.arange(len(IRREP_BLOCKS[kind, n][0])), IRREP_BLOCKS[kind, n][0])
    return block_of[:, None] == block_of


class TestIrrepBlocks:
    @pytest.mark.parametrize("kind, n", sorted(IRREP_BLOCKS))
    def test_isometric_read_only_and_cached(self, kind, n):
        # on the commutant, compress is an isometry for the inner product
        # weighted by m: Tr XY = sum_ab m_a (X_c)_ab (Y_c)_ba
        rng = np.random.default_rng([n, len(kind), 3])
        m = block_weights(kind, n)
        for _ in range(3):
            x = _random_commutant_element(kind, n, rng)
            y = _random_commutant_element(kind, n, rng)
            xc, yc = compress(np.array([x, y]), kind, n)
            assert abs(np.trace(x @ y) - np.sum(m[:, None] * xc * yc.T)) <= 1e-13
        assert not m.flags.writeable
        assert block_weights(kind, n) is m

    @pytest.mark.parametrize("kind, n", sorted(IRREP_BLOCKS))
    def test_block_sizes_and_weights(self, kind, n):
        m = block_weights(kind, n)
        j, blocks = _spin_blocks(kind, n)
        sizes, weights = IRREP_BLOCKS[kind, n]
        assert tuple(b.stop - b.start for b in blocks) == sizes
        assert tuple(m[b.start] for b in blocks) == weights
        for b in blocks:
            assert np.all(m[b] == m[b.start])
        # a permutation block is a full spin-j multiplet (2j + 1 columns); a
        # werner block is one state of it per copy, with weight 2j + 1
        spin = j[[b.start for b in blocks]]
        if kind == "permutation":
            assert np.allclose(sizes, 2 * spin + 1)
        else:
            assert np.allclose(weights, 2 * spin + 1)
        # Tr I = sum_c m_c
        assert m.sum() == 2**n

    @pytest.mark.parametrize("kind, n", sorted(IRREP_BLOCKS))
    def test_commutant_identities(self, kind, n):
        # commutant elements and any other operators compress to exact zeros
        # off the blocks; the trace and expand identities are checked in
        # TestCompressExpand
        rng = np.random.default_rng([n, len(kind)])
        ops = [_random_commutant_element(kind, n, rng) for _ in range(3)]
        ops += [random_mixed_state(2**n, rng), sic_povm(n)[0].matrix]
        out = compress(np.array(ops), kind, n)
        assert np.all(out[:, ~_block_mask(kind, n)] == 0)

    def test_none_is_rejected(self):
        # as commutant_basis rejects it: "none" has no blocks to solve on
        with pytest.raises(ValueError, match="symmetry kind 'none'"):
            block_weights("none", 3)

    def test_rejects_unknown_kind_and_one_qubit_permutation(self):
        with pytest.raises(ValueError, match="unknown symmetry kind"):
            block_weights("cyclic", 3)
        with pytest.raises(ValueError, match="at least 2 qubits"):
            block_weights("permutation", 1)


def _two_branch_commutant_basis(kind, n):
    """The commutant basis as built with one einsum per kind on the
    unoriented total-spin basis: the oracle for the oriented construction."""
    rows = []
    for u in symmetry._total_spin_basis(n):
        if kind == "permutation":
            units = np.einsum("cai,cbk->abik", u, u) / np.sqrt(u.shape[0])
        else:
            units = np.einsum("cai,dak->cdik", u, u) / np.sqrt(u.shape[1])
        rows.append(units.reshape(-1, u.shape[2] ** 2))
    return np.concatenate(rows).astype(complex)


class TestOrientedBlocks:
    @pytest.mark.parametrize("kind", ["permutation", "werner"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_commutant_basis_matches_two_branch_oracle(self, kind, n):
        assert np.array_equal(commutant_basis(kind, n), _two_branch_commutant_basis(kind, n))


COMPRESS_CASES = [(kind, n) for kind in ("permutation", "werner") for n in (2, 3, 4)]


def _oracle_isometry(kind, n):
    """W (2^n x c): the first copy of each oriented total-spin block, side by
    side, and the weight m of each column, its block's number of copies."""
    blocks = symmetry._oriented_blocks(kind, n)
    w = np.concatenate([u[0] for u in blocks]).T
    m = np.concatenate([np.full(u.shape[1], float(u.shape[0])) for u in blocks])
    return w, m


def _oracle_compress(stack, kind, n):
    """W^H P(A) W, formed as the commutant coordinates of A times the
    compressed basis elements W^H B W: the oracle for placing coordinates."""
    w, _ = _oracle_isometry(kind, n)
    basis = commutant_basis(kind, n)
    compressed = (w.T @ basis.reshape(-1, 2**n, 2**n) @ w).reshape(len(basis), -1)
    out = stack.reshape(len(stack), -1) @ basis.conj().T @ compressed
    out = out.reshape(len(stack), w.shape[1], w.shape[1])
    return (out + out.conj().transpose(0, 2, 1)) / 2.0


def _oracle_expand(rho_c, kind, n):
    """project(W diag(m) rho_c W^T): the oracle for reading coordinates."""
    w, m = _oracle_isometry(kind, n)
    return project(w @ (m[:, None] * rho_c) @ w.T, kind, n)


class TestCompressExpand:
    @pytest.mark.parametrize("kind, n", COMPRESS_CASES)
    def test_empty_stack(self, kind, n):
        c = len(block_weights(kind, n))
        out = compress(np.zeros((0, 2**n, 2**n), dtype=complex), kind, n)
        assert out.shape == (0, c, c)

    @pytest.mark.parametrize("kind, n", COMPRESS_CASES)
    def test_exactly_hermitian(self, kind, n):
        ops = [op.matrix for op in list(sic_povm(n))[:7]]
        out = compress(np.array(ops), kind, n)
        assert np.array_equal(out, out.conj().transpose(0, 2, 1))

    @pytest.mark.parametrize("kind, n", sorted(IRREP_BLOCKS))
    def test_matches_isometry_oracle(self, kind, n):
        rng = np.random.default_rng([n, len(kind), 21])
        ops = [op.matrix for op in list(sic_povm(n))[:10]]
        ops += [random_mixed_state(2**n, rng) for _ in range(3)]
        stack = np.array(ops)
        out = compress(stack, kind, n)
        assert np.max(np.abs(out - _oracle_compress(stack, kind, n))) <= 1e-13
        # any c x c matrix, off-block entries included, which both ignore
        c = out.shape[1]
        rho_c = rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c))
        for x_c in list(out) + [rho_c + rho_c.conj().T]:
            assert np.max(np.abs(expand(x_c, kind, n) - _oracle_expand(x_c, kind, n))) <= 1e-13

    @pytest.mark.parametrize("kind, n", COMPRESS_CASES)
    def test_expand_inverts_compress_and_keeps_the_trace(self, kind, n):
        rng = np.random.default_rng([n, len(kind), 13])
        m = block_weights(kind, n)
        xs = np.array([_random_commutant_element(kind, n, rng) for _ in range(3)])
        for x, x_c in zip(xs, compress(xs, kind, n)):
            assert np.max(np.abs(expand(x_c, kind, n) - x)) <= 1e-13
            assert abs(np.trace(x) - m @ np.diag(x_c)) <= 1e-13

    @pytest.mark.parametrize("kind, n", COMPRESS_CASES)
    def test_compresses_the_projection(self, kind, n):
        # an operator and its commutant projection compress alike
        a = random_mixed_state(2**n, np.random.default_rng([n, len(kind)]))
        both = compress(np.array([a, project(a, kind, n)]), kind, n)
        assert np.max(np.abs(both[0] - both[1])) <= 1e-13


class TestCompressedProblem:
    def test_none_is_the_plain_problem(self):
        ops = list(pauli_basis(2))[:4]
        measured = tuple((op, 0.1 * i) for i, op in enumerate(ops))
        prob = symmetry.compressed_problem(measured, "none", 2, [0.0, 1e-3, 0.0, 0.0])
        assert prob.dim == 4 and prob.log_weights is None
        assert prob.measured == measured
        assert np.array_equal(prob.variances, [0.0, 1e-3, 0.0, 0.0])
        rho = np.eye(4) / 4
        assert symmetry.full_estimate(rho, "none", 2) is rho

    @pytest.mark.parametrize("kind, n", [("permutation", 3), ("werner", 3), ("werner", 4)])
    def test_blocks_and_weights(self, kind, n):
        sic = list(sic_povm(n))[:5]
        prob = symmetry.compressed_problem(tuple((op, 0.0) for op in sic), kind, n)
        weights = block_weights(kind, n)
        assert prob.dim == len(weights)
        assert np.array_equal(prob.log_weights, np.log(weights))
        stack = compress(np.array([op.matrix for op in sic]), kind, n)
        assert np.array_equal(prob._rows[0], stack.reshape(len(sic), -1))

    def test_full_estimate_divides_by_the_weights(self, rng):
        rho_c = compress(random_mixed_state(8, rng)[None], "permutation", 3)[0]
        weighted = rho_c * block_weights("permutation", 3)[:, None]
        assert np.allclose(
            symmetry.full_estimate(weighted, "permutation", 3),
            expand(rho_c, "permutation", 3),
            atol=1e-15,
        )

    def test_rejects_operators_of_another_dim(self):
        with pytest.raises(ValueError, match="do not match dim 8"):
            symmetry.compressed_problem(((pauli_basis(2)[0], 0.1),), "permutation", 3)
