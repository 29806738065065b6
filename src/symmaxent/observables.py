"""Canonical observable sets: the Pauli tensor-product basis and the
tensor-product SIC-POVM, plus ideal expectation values."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import linalg

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

# the canonical observable kinds; every other module checks against this list
KINDS = ("pauli", "sic")


def matrix_to_jsonable(m: np.ndarray) -> list:
    """Nested row-major lists of [re, im] pairs."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]


def matrix_from_jsonable(data) -> np.ndarray:
    """The inverse of ``matrix_to_jsonable``; a ValueError on other input."""
    try:
        return np.array([[complex(re, im) for re, im in row] for row in data])
    except TypeError as exc:
        raise ValueError(f"not a matrix of [re, im] number pairs: {exc}") from None


def pauli_basis(n_qubits: int) -> np.ndarray:
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


def sic_povm(n_qubits: int) -> np.ndarray:
    """Tensor products of the single-qubit SIC elements, flat index order
    over per-qubit indices (0..3), with the final all-threes product dropped
    to leave 4^n - 1 linearly independent elements."""
    return canonical_set("sic", n_qubits)


def _check_kind(kind: str, n_qubits: int) -> None:
    if kind not in KINDS:
        raise ValueError(f"no canonical observable set of kind {kind!r}")
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")


def factor_indices(kind: str, n_qubits: int) -> np.ndarray:
    """Per-qubit factor indices (0..3, leftmost qubit first) of each element
    of ``canonical_set(kind, n_qubits)``, one row per element: I, X, Y, Z
    for Pauli, the SIC element index for SIC. The rows run lexicographically
    and leave out the all-zeros row (the identity) for Pauli and the
    all-threes row for SIC."""
    _check_kind(kind, n_qubits)
    rows = np.indices((4,) * n_qubits).reshape(n_qubits, -1).T
    return rows[1:] if kind == "pauli" else rows[:-1]


def _labels(kind: str, rows: np.ndarray) -> list[str]:
    """The Pauli letters of each factor-index row, or ``SIC-<row number>``
    in ``factor_indices``, which is the row read as a base-4 number."""
    if kind == "pauli":
        return ["".join("IXYZ"[i] for i in row) for row in rows]
    n = rows.shape[1]
    width = len(str(4**n - 1))
    return [f"SIC-{flat:0{width}d}" for flat in rows @ 4 ** np.arange(n - 1, -1, -1)]


def _products(kind: str, rows: np.ndarray) -> np.ndarray:
    """(len(rows), 2^n, 2^n): one broadcast Kronecker product per qubit,
    leftmost factor first; each entry is the product of its factors'
    entries in that order, so no row's product depends on the other rows."""
    if kind == "pauli":
        singles = np.stack([linalg.PAULI_1Q[c] for c in "IXYZ"])
    else:
        singles = np.stack(sic_single_qubit_elements())
    mats = np.ones((len(rows), 1, 1), dtype=complex)
    for q in range(rows.shape[1]):
        factors = singles[rows[:, q]]
        mats = mats[:, :, None, :, None] * factors[:, None, :, None, :]
        mats = mats.reshape(len(rows), 2 ** (q + 1), 2 ** (q + 1))
    return mats


def canonical_set(kind: str, n_qubits: int) -> np.ndarray:
    """The Pauli products (``pauli_basis``) or the SIC products
    (``sic_povm``) as one read-only (4^n - 1, 2^n, 2^n) array, one element
    per ``factor_indices`` row, in row order: the Kronecker product of the
    single-qubit elements the row names, as ``linalg.hermitian`` returns it.
    ``_labels`` names the elements in the same order, by the Pauli letters
    or ``SIC-<row number>``; labels are unique within a set.

    Each element is checked and replaced by its Hermitian part on its own,
    in place, so the set holds no second copy of the stack."""
    mats = _products(kind, factor_indices(kind, n_qubits))
    for i, m in enumerate(mats):
        m[...] = linalg.hermitian(m, f"{kind} element {i}")
    mats.setflags(write=False)
    return mats


def canonical_operator(kind: str, n_qubits: int, label: str) -> np.ndarray:
    """The element of ``canonical_set(kind, n_qubits)`` labelled ``label``,
    bit for bit, built alone: the label is read as its factor-index row, so
    no other element or label is built."""
    _check_kind(kind, n_qubits)
    if kind == "pauli":
        row = ["IXYZ".find(c) for c in label]
    else:
        digits = label[len("SIC-"):] if label.startswith("SIC-") else ""
        flat = int(digits) if digits.isascii() and digits.isdigit() else -1
        row = np.unravel_index(flat, (4,) * n_qubits) if 0 <= flat < 4**n_qubits - 1 else []
    rows = np.array([row], dtype=int)
    # the identity is no Pauli element; a SIC label must be zero-padded
    if (len(row) != n_qubits or min(row) < 0 or (kind == "pauli" and not any(row))
            or _labels(kind, rows) != [label]):
        raise ValueError(f"unknown observable label {label!r} for kind {kind!r}")
    return linalg.hermitian(_products(kind, rows)[0], label)


def expectation(rho: DensityMatrix, a) -> float:
    """Tr(A rho); raises if the value has a non-negligible imaginary part."""
    mat = np.asarray(a)
    if mat.shape[0] != rho.dim:
        raise ValueError(f"dimension mismatch: {mat.shape[0]} vs {rho.dim}")
    # vdot conjugates its first argument, so this is Tr(A^dagger rho) = Tr(A rho).
    val = complex(np.vdot(mat, rho.matrix))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary residual {val.imag:.3e}")
    return float(val.real)
