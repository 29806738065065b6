import numpy as np
import pytest

from symmaxent import linalg
from symmaxent.observables import (
    _labels,
    canonical_operator,
    canonical_set,
    expectation,
    factor_indices,
    matrix_from_jsonable,
    matrix_to_jsonable,
    pauli_basis,
    sic_povm,
    sic_single_qubit_elements,
)
from symmaxent.states import DensityMatrix, ghz, haar_pure

from conftest import SX, SZ, kron_chain, random_mixed_state


def maximally_mixed(n):
    return DensityMatrix(np.eye(2**n) / 2**n)


def labels(kind, n):
    """The labels of ``canonical_set(kind, n)``, in set order."""
    return _labels(kind, factor_indices(kind, n))


class TestPauliBasis:
    def test_single_qubit(self):
        basis = pauli_basis(1)
        assert labels("pauli", 1) == ["X", "Y", "Z"]
        assert np.allclose(basis[0], SX)

    def test_three_qubit_count(self):
        assert len(pauli_basis(3)) == 63

    def test_order_deterministic(self):
        names = labels("pauli", 2)
        assert names[:6] == ["IX", "IY", "IZ", "XI", "XX", "XY"]
        assert names == labels("pauli", 2)
        assert np.array_equal(pauli_basis(2), pauli_basis(2))

    def test_traceless_and_involutory(self):
        for op in pauli_basis(2):
            assert abs(np.trace(op)) <= 1e-14
            assert np.allclose(op @ op, np.eye(4))

    def test_orthogonality(self, rng):
        basis = pauli_basis(2)
        idx = rng.choice(len(basis), size=6, replace=False)
        for i in idx:
            for j in idx:
                val = np.vdot(basis[int(i)], basis[int(j)]).real
                assert val == pytest.approx(4.0 if i == j else 0.0, abs=1e-12)

    def test_spans_full_operator_space(self):
        ops = [np.eye(8)] + list(pauli_basis(3))
        kept = linalg.linearly_independent_subset(ops)
        assert len(kept) == 64

    @pytest.mark.parametrize("kind", ["pauli", "sic"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_products_equal_kron_chain(self, n, kind):
        # each element is the Kronecker product of the single-qubit elements
        # its factor-index row names, bit for bit (signed zeros included)
        # once both pass the same Hermitian symmetrization
        singles = (
            [linalg.PAULI_1Q[c] for c in "IXYZ"] if kind == "pauli"
            else sic_single_qubit_elements()
        )
        rows = factor_indices(kind, n)
        ops = canonical_set(kind, n)
        # one read-only array, the same one each public name returns
        assert type(ops) is np.ndarray and ops.dtype == complex
        assert ops.shape == (4**n - 1, 2**n, 2**n)
        assert not ops.flags.writeable
        named = pauli_basis(n) if kind == "pauli" else sic_povm(n)
        assert named.tobytes() == ops.tobytes()
        assert len(rows) == len(ops) == 4**n - 1
        for op, row in zip(ops, rows):
            ref = linalg.hermitian(linalg.kron_all(singles[i] for i in row), "ref")
            assert op.tobytes() == ref.tobytes()
        names = labels(kind, n)
        assert len(names) == len(ops)
        assert len(set(names)) == len(names)
        if kind == "pauli":
            assert names == ["".join("IXYZ"[i] for i in row) for row in rows]

    @pytest.mark.parametrize("kind, n", [("pauli", 0), ("sic", 0), ("custom", 2)])
    def test_canonical_set_rejects_bad_arguments(self, kind, n):
        match = "n_qubits must be >= 1" if n < 1 else "no canonical observable set"
        for build in (factor_indices, canonical_set, lambda k, m: canonical_operator(k, m, "X")):
            with pytest.raises(ValueError, match=match):
                build(kind, n)

    @pytest.mark.parametrize("kind", ["pauli", "sic"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_operator_by_label_is_the_set_element(self, n, kind):
        # built alone, bit for bit the element of the whole set
        for op, label in zip(canonical_set(kind, n), labels(kind, n), strict=True):
            alone = canonical_operator(kind, n, label)
            assert not alone.flags.writeable
            assert alone.tobytes() == op.tobytes()

    @pytest.mark.parametrize("kind, label", [
        ("pauli", "II"), ("pauli", "X"), ("pauli", "XYZ"), ("pauli", "XQ"), ("pauli", ""),
        ("pauli", "SIC-01"), ("sic", "SIC-15"), ("sic", "SIC-1"), ("sic", "SIC-001"),
        ("sic", "SIC--1"), ("sic", "SIC-\u0661\u0661"), ("sic", "XX"),
    ])
    def test_operator_rejects_unknown_labels(self, kind, label):
        with pytest.raises(ValueError, match=f"unknown observable label '.*' for kind '{kind}'"):
            canonical_operator(kind, 2, label)


class TestSicPovm:
    def test_single_qubit_overlaps(self):
        # tetrahedron overlap |<psi_j|psi_k>|^2 = 1/3 for j != k, hence
        # Tr(E_j E_k) = (1/4) * 1/3 = 1/12 off-diagonal, 1/4 on-diagonal
        elements = sic_single_qubit_elements()
        for j in range(4):
            for k in range(4):
                val = np.trace(elements[j] @ elements[k]).real
                expected = 0.25 if j == k else 1.0 / 12.0
                assert val == pytest.approx(expected, abs=1e-12)

    def test_single_qubit_completeness(self):
        assert np.allclose(sum(sic_single_qubit_elements()), np.eye(2), atol=1e-12)

    def test_three_qubit_count(self):
        assert len(sic_povm(3)) == 63

    def test_elements_psd(self):
        for op in sic_povm(2):
            assert np.linalg.eigvalsh(op)[0] >= -1e-12

    def test_completeness_with_dropped_element_restored(self):
        povm = sic_povm(3)
        singles = sic_single_qubit_elements()
        dropped = kron_chain(singles[3], singles[3], singles[3])
        total = povm.sum(axis=0) + dropped
        assert np.max(np.abs(total - np.eye(8))) <= 1e-12

    def test_linearly_independent(self):
        ops = sic_povm(2)
        assert len(linalg.linearly_independent_subset(ops)) == len(ops)

    def test_labels(self):
        names = labels("sic", 3)
        assert names[0] == "SIC-00"
        assert names[17] == "SIC-17"


class TestExpectation:
    def test_maximally_mixed_pauli_vanishes(self):
        rho = maximally_mixed(3)
        for op in pauli_basis(3)[:8]:
            assert expectation(rho, op) == pytest.approx(0.0, abs=1e-14)

    def test_ghz_xxx(self):
        rho = ghz(3).density()
        xxx = pauli_basis(3)[labels("pauli", 3).index("XXX")]
        assert expectation(rho, xxx) == pytest.approx(1.0, abs=1e-12)

    def test_identity_gives_trace(self, rng):
        rho = DensityMatrix(random_mixed_state(8, rng))
        assert expectation(rho, np.eye(8)) == pytest.approx(1.0, abs=1e-12)

    def test_linear_in_observable(self, rng):
        rho = DensityMatrix(random_mixed_state(4, rng))
        a, b = pauli_basis(2)[3], pauli_basis(2)[7]
        combo = 0.3 * a + 0.7 * b
        assert expectation(rho, combo) == pytest.approx(
            0.3 * expectation(rho, a) + 0.7 * expectation(rho, b), abs=1e-12
        )

    def test_linear_in_state(self, rng):
        a = random_mixed_state(4, rng)
        b = random_mixed_state(4, rng)
        op = pauli_basis(2)[5]
        mix = DensityMatrix(0.4 * a + 0.6 * b)
        assert expectation(mix, op) == pytest.approx(
            0.4 * expectation(DensityMatrix(a), op)
            + 0.6 * expectation(DensityMatrix(b), op),
            abs=1e-12,
        )

    def test_pauli_range(self, rng):
        rho = haar_pure(3, rng).density()
        for op in pauli_basis(3)[::7]:
            assert -1.0 - 1e-12 <= expectation(rho, op) <= 1.0 + 1e-12

    def test_dim_mismatch(self, rng):
        rho = DensityMatrix(random_mixed_state(4, rng))
        with pytest.raises(ValueError, match="mismatch"):
            expectation(rho, np.eye(8))

    def test_json_matrix_helpers(self, rng):
        m = random_mixed_state(4, rng)
        assert np.allclose(matrix_from_jsonable(matrix_to_jsonable(m)), m)
