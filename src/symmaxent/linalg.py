"""Dense complex-matrix kernel shared by every other module.

All operators are plain square numpy arrays of complex128. Operators with a
physical identity (observables, symmetry generators, auxiliary constraint
operators) are wrapped in :class:`HermitianOperator`, which validates
hermiticity on construction and symmetrizes away accumulated rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Max-abs entrywise deviation from M == M^dagger tolerated on construction.
HERMITICITY_TOL = 1e-12

# Relative tolerance for linear-independence decisions.
LI_TOL = 1e-9

# Eigenvalues above this are accepted as numerically nonnegative; anything
# more negative is a genuinely indefinite matrix, not rounding noise.
PSD_EIG_FLOOR = -1e-10

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def kron_all(factors) -> np.ndarray:
    """Kronecker product of a sequence of matrices, leftmost factor first."""
    out = np.array([[1.0]], dtype=complex)
    for f in factors:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def permutation_matrix(n_qubits: int, perm) -> np.ndarray:
    """Unitary that permutes tensor factors of (C^2)^{otimes n}.

    ``perm`` is a length-``n_qubits`` sequence: the factor at position ``q``
    of the output was at position ``perm[q]`` of the input (0-based, qubit 0
    is the leftmost / most significant factor).
    """
    perm = list(perm)
    if sorted(perm) != list(range(n_qubits)):
        raise ValueError(f"not a permutation of range({n_qubits}): {perm}")
    dim = 2**n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for src in range(dim):
        bits = [(src >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
        dst = 0
        for q in range(n_qubits):
            dst = (dst << 1) | bits[perm[q]]
        mat[dst, src] = 1.0
    return mat


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A labelled Hermitian matrix.

    The matrix is validated (square, finite, Hermitian within
    ``HERMITICITY_TOL`` max-abs entrywise) and replaced by its Hermitian part
    (M + M^dagger)/2 so that later eigendecompositions see an exactly
    Hermitian input.
    """

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator {self.label!r}: matrix must be square, got {m.shape}")
        if m.shape[0] < 1:
            raise ValueError(f"operator {self.label!r}: empty matrix")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise ValueError(f"operator {self.label!r}: non-finite entries")
        dev = np.max(np.abs(m - m.conj().T))
        if dev > HERMITICITY_TOL:
            raise ValueError(
                f"operator {self.label!r}: not Hermitian "
                f"(max |M - M^dag| = {dev:.3e} > {HERMITICITY_TOL})"
            )
        m = (m + m.conj().T) / 2.0
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def as_matrix(op) -> np.ndarray:
    """Accept a HermitianOperator or a raw array; return the ndarray."""
    if isinstance(op, HermitianOperator):
        return op.matrix
    return np.asarray(op, dtype=complex)


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def commutator(a, b) -> np.ndarray:
    """AB - BA. For Hermitian A, B the result is anti-Hermitian; i*(AB - BA)
    is the Hermitian operator used as a symmetry constraint."""
    ma, mb = as_matrix(a), as_matrix(b)
    _check_same_dim(ma, mb)
    return ma @ mb - mb @ ma


def eigh(h):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, V)`` with eigenvalues ``w`` ascending and unitary ``V``
    such that h = V diag(w) V^dagger.
    """
    m = as_matrix(h)
    dev = np.max(np.abs(m - m.conj().T))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"eigh: input not Hermitian (max |M - M^dag| = {dev:.3e})")
    w, v = np.linalg.eigh(m)
    return w, v


def psd_sqrtm(m) -> np.ndarray:
    """Principal square root of a positive-semidefinite Hermitian matrix.

    Eigenvalues in [PSD_EIG_FLOOR, 0) are treated as rounding noise and
    clamped to zero; anything more negative raises.
    """
    w, v = eigh(m)
    if w[0] < PSD_EIG_FLOOR:
        raise ValueError(f"psd_sqrtm: matrix not PSD (min eigenvalue {w[0]:.3e})")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr(A^dagger B)."""
    ma, mb = as_matrix(a), as_matrix(b)
    _check_same_dim(ma, mb)
    return complex(np.vdot(ma, mb))


def independent_rows(vectors, norms) -> list[int]:
    """Greedy extraction of linearly independent rows, in input order.

    Row i is kept when its residual after projecting onto the span of the
    rows kept before it exceeds ``LI_TOL * norms[i]``; rows with zero
    reference norm are skipped. Classical Gram-Schmidt with a reorthogonalization pass
    (CGS2), each pass two matrix-vector products against the kept basis, is
    orthogonal to working precision like two-pass modified Gram-Schmidt, so
    both keep the same rows unless a residual lies within rounding of the
    threshold. Returns the kept row indices.
    """
    try:
        rows = np.asarray(vectors, dtype=complex)
    except ValueError:  # ragged rows
        rows = None
    if rows is None or (rows.ndim != 2 and rows.size):
        shapes = sorted({np.shape(v) for v in vectors})
        raise ValueError(f"rows must form one 2-D array, got row shapes {shapes}")
    if len(rows) != len(norms):
        raise ValueError(f"{len(rows)} rows but {len(norms)} reference norms")
    basis = np.empty((rows.shape[-1],) * 2, dtype=complex)
    conj = np.empty_like(basis)  # basis.conj(), kept so no pass conjugates
    kept: list[int] = []
    for idx, (v, n0) in enumerate(zip(rows, norms)):
        if n0 == 0.0:
            continue
        k = len(kept)
        if k == len(v):
            break  # the kept rows span the space; every later residual is noise
        for _ in range(2):
            v = v - (conj[:k] @ v) @ basis[:k]
        nv = np.linalg.norm(v)
        if nv > LI_TOL * n0:
            basis[k] = v / nv
            conj[k] = basis[k].conj()
            kept.append(idx)
    return kept


def linearly_independent_subset(ops, seed_ops=()) -> list[int]:
    """Greedy extraction of a linearly independent subset of ``ops``.

    Operators are vectorized and processed in input order after the seeds;
    an element is kept when its residual after projecting onto span(seed_ops
    + kept so far) exceeds ``LI_TOL`` times its own norm (see
    :func:`independent_rows`).

    Returns the kept indices into ``ops``; elements dependent on the seeds
    alone are never kept.
    """
    vecs = [as_matrix(op).ravel() for op in seed_ops]
    n_seeds = len(vecs)
    vecs += [as_matrix(op).ravel() for op in ops]
    kept = independent_rows(vecs, [np.linalg.norm(v) for v in vecs])
    return [i - n_seeds for i in kept if i >= n_seeds]
