"""Canonical observable sets: the Pauli tensor-product basis and the
tensor-product SIC-POVM, plus ideal expectation values."""

from __future__ import annotations

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


def pauli_basis(n_qubits: int) -> ObservableSet:
    """All 4^n - 1 non-identity Pauli tensor products, lexicographic with
    I < X < Y < Z. Each element is Hermitian, traceless and squares to the
    identity."""
    return canonical_set("pauli", n_qubits)


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
    return canonical_set("sic", n_qubits)


def factor_indices(kind: str, n_qubits: int) -> np.ndarray:
    """Per-qubit factor indices (0..3, leftmost qubit first) of each element
    of ``canonical_set(kind, n_qubits)``, one row per element: I, X, Y, Z
    for Pauli, the SIC element index for SIC. The rows run lexicographically
    and leave out the all-zeros row (the identity) for Pauli and the
    all-threes row for SIC."""
    if kind not in ("pauli", "sic"):
        raise ValueError(f"no canonical observable set of kind {kind!r}")
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    rows = np.indices((4,) * n_qubits).reshape(n_qubits, -1).T
    return rows[1:] if kind == "pauli" else rows[:-1]


def canonical_set(kind: str, n_qubits: int) -> ObservableSet:
    """The Pauli products (``pauli_basis``) or the SIC products
    (``sic_povm``), one element per ``factor_indices`` row: the Kronecker
    product of the single-qubit elements the row names, labelled by the
    Pauli letters or ``SIC-<row number>``."""
    rows = factor_indices(kind, n_qubits)
    if kind == "pauli":
        singles = np.stack([linalg.PAULI_1Q[c] for c in "IXYZ"])
        labels = ["".join("IXYZ"[i] for i in row) for row in rows]
    else:
        singles = np.stack(sic_single_qubit_elements())
        width = len(str(len(rows)))
        labels = [f"SIC-{flat:0{width}d}" for flat in range(len(rows))]
    # one broadcast Kronecker product per qubit, leftmost factor first;
    # each entry is the product of its factors' entries in that order
    mats = np.ones((len(rows), 1, 1), dtype=complex)
    for q in range(n_qubits):
        factors = singles[rows[:, q]]
        mats = mats[:, :, None, :, None] * factors[:, None, :, None, :]
        mats = mats.reshape(len(rows), 2 ** (q + 1), 2 ** (q + 1))
    ops = tuple(HermitianOperator(m, label) for m, label in zip(mats, labels))
    return ObservableSet(ops, kind, n_qubits)


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
