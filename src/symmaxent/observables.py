"""Canonical observable sets: the Pauli tensor-product basis and the
tensor-product SIC-POVM, plus ideal expectation values."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import linalg
from .linalg import HermitianOperator

if TYPE_CHECKING:  # states imports symmetry, which imports this module
    from .states import DensityMatrix

# Bloch vectors of the single-qubit tetrahedral SIC fiducials: first vertex at
# the north pole, first azimuth at zero.
SIC_BLOCH_VECTORS = (
    (0.0, 0.0, 1.0),
    (2.0 * np.sqrt(2.0) / 3.0, 0.0, -1.0 / 3.0),
    (-np.sqrt(2.0) / 3.0, np.sqrt(2.0 / 3.0), -1.0 / 3.0),
    (-np.sqrt(2.0) / 3.0, -np.sqrt(2.0 / 3.0), -1.0 / 3.0),
)

KINDS = ("pauli", "sic", "custom")


@dataclass(frozen=True, eq=False)
class ObservableSet:
    """Ordered, uniquely labelled observables sharing one dimension."""

    observables: tuple[HermitianOperator, ...]
    kind: str
    n_qubits: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown observable kind {self.kind!r}")
        object.__setattr__(self, "observables", tuple(self.observables))
        dim = 2**self.n_qubits
        for op in self.observables:
            if op.dim != dim:
                raise ValueError(
                    f"observable {op.label!r} has dim {op.dim}, expected {dim}"
                )
        labels = [op.label for op in self.observables]
        if len(set(labels)) != len(labels):
            raise ValueError("observable labels must be unique")

    def __len__(self) -> int:
        return len(self.observables)

    def __iter__(self):
        return iter(self.observables)

    def __getitem__(self, i: int) -> HermitianOperator:
        return self.observables[i]

    def labels(self) -> list[str]:
        return [op.label for op in self.observables]


def matrix_to_jsonable(m: np.ndarray) -> list:
    """Nested row-major lists of [re, im] pairs."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]


def matrix_from_jsonable(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def pauli_labels(n_qubits: int) -> list[str]:
    return ["".join(t) for t in itertools.product("IXYZ", repeat=n_qubits)][1:]


def pauli_basis(n_qubits: int) -> ObservableSet:
    """All 4^n - 1 non-identity Pauli tensor products, lexicographic with
    I < X < Y < Z. Each element is Hermitian, traceless and squares to the
    identity."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    # one broadcast Kronecker product per qubit, leftmost factor first, in
    # the order of pauli_labels; entries 0, +-1, +-i multiply exactly
    singles = np.stack([linalg.PAULI_1Q[c] for c in "IXYZ"])
    mats = np.ones((1, 1, 1), dtype=complex)
    for q in range(1, n_qubits + 1):
        mats = mats[:, None, :, None, :, None] * singles[None, :, None, :, None, :]
        mats = mats.reshape(4**q, 2**q, 2**q)
    ops = [HermitianOperator(m, label) for m, label in zip(mats[1:], pauli_labels(n_qubits))]
    return ObservableSet(tuple(ops), "pauli", n_qubits)


def sic_single_qubit_elements() -> list[np.ndarray]:
    """The four single-qubit SIC-POVM elements E_k = Pi_k / 2; they sum to
    the identity and have pairwise overlaps Tr(E_j E_k) = 1/12 for j != k."""
    out = []
    for bx, by, bz in SIC_BLOCH_VECTORS:
        proj = (
            linalg.PAULI_1Q["I"]
            + bx * linalg.PAULI_1Q["X"]
            + by * linalg.PAULI_1Q["Y"]
            + bz * linalg.PAULI_1Q["Z"]
        ) / 2.0
        out.append(proj / 2.0)
    return out


def sic_povm(n_qubits: int) -> ObservableSet:
    """Tensor products of the single-qubit SIC elements, flat index order
    over per-qubit indices (0..3), with the final all-threes product dropped
    to leave 4^n - 1 linearly independent elements."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    singles = sic_single_qubit_elements()
    total = 4**n_qubits
    width = len(str(total - 1))
    ops = []
    for flat, ks in enumerate(itertools.product(range(4), repeat=n_qubits)):
        if flat == total - 1:
            break
        mat = linalg.kron_all(singles[k] for k in ks)
        ops.append(HermitianOperator(mat, f"SIC-{flat:0{width}d}"))
    return ObservableSet(tuple(ops), "sic", n_qubits)


def canonical_set(kind: str, n_qubits: int) -> ObservableSet:
    if kind == "pauli":
        return pauli_basis(n_qubits)
    if kind == "sic":
        return sic_povm(n_qubits)
    raise ValueError(f"no canonical observable set of kind {kind!r}")


def expectation(rho: DensityMatrix, a) -> float:
    """Tr(A rho); raises if the value has a non-negligible imaginary part."""
    mat = linalg.as_matrix(a)
    if mat.shape[0] != rho.dim:
        raise ValueError(f"dimension mismatch: {mat.shape[0]} vs {rho.dim}")
    # vdot conjugates its first argument, so this is Tr(A^dagger rho) = Tr(A rho).
    val = complex(np.vdot(mat, rho.matrix))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary residual {val.imag:.3e}")
    return float(val.real)
