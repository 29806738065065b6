"""Dense complex-matrix kernel shared by every other module.

All operators are plain square numpy arrays of complex128. Every constructor
that takes an operator (observables, symmetry generators and auxiliaries,
density matrices, maximum-entropy problems) checks it with :func:`hermitian`,
which validates it and symmetrizes away accumulated rounding error.
"""

from __future__ import annotations

import numpy as np

# Max-abs entrywise deviation from M == M^dagger that ``hermitian`` tolerates.
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


def hermitian(m, what: str) -> np.ndarray:
    """The read-only Hermitian part (M + M^dagger)/2 of one matrix or of a
    stack of them, after checking that each is square, non-empty, finite and
    Hermitian within ``HERMITICITY_TOL`` max-abs entrywise. The result is
    exactly Hermitian, so later eigendecompositions see an exactly Hermitian
    input; ``what`` names the input in the error messages."""
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{what}: must be square, got shape {m.shape}")
    if m.shape[-1] < 1:
        raise ValueError(f"{what}: empty matrix")
    if not np.isfinite(m).all():
        raise ValueError(f"{what}: non-finite entries")
    adjoint = m.conj().swapaxes(-1, -2)
    dev = np.max(np.abs(m - adjoint), initial=0.0)
    if dev > HERMITICITY_TOL:
        raise ValueError(
            f"{what}: not Hermitian (max |M - M^dag| = {dev:.3e} > {HERMITICITY_TOL})"
        )
    out = (m + adjoint) / 2.0
    out.setflags(write=False)
    return out


def stack(ops, dim: int) -> np.ndarray:
    """(K, dim, dim) complex stack of K operators, each of them dim x dim."""
    ops = list(ops)
    a = np.array(ops, dtype=complex) if ops else np.zeros((0, dim, dim), dtype=complex)
    if a.shape[1:] != (dim, dim):
        raise ValueError(f"operators of shape {a.shape[1:]} do not match dim {dim}")
    return a


def commutator(a, b) -> np.ndarray:
    """AB - BA. For Hermitian A, B the result is anti-Hermitian; i*(AB - BA)
    is the Hermitian operator used as a symmetry constraint."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def eigh(h):
    """Eigendecomposition of a Hermitian matrix, checked and symmetrized by
    :func:`hermitian` first.

    Returns ``(w, V)`` with eigenvalues ``w`` ascending and unitary ``V``
    such that h = V diag(w) V^dagger.
    """
    return np.linalg.eigh(hermitian(h, "eigh input"))


def psd_sqrtm(m) -> np.ndarray:
    """Principal square root of a positive-semidefinite Hermitian matrix.

    Eigenvalues in [PSD_EIG_FLOOR, 0) are treated as rounding noise and
    clamped to zero; anything more negative raises.
    """
    return _psd_root(*eigh(m))


def _psd_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`psd_sqrtm` from the eigensystem ``(w, v)`` of a matrix that is
    already exactly Hermitian, such as :func:`hermitian`'s output."""
    if w[0] < PSD_EIG_FLOOR:
        raise ValueError(f"psd_sqrtm: matrix not PSD (min eigenvalue {w[0]:.3e})")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


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
    vecs = [np.ravel(op) for op in seed_ops]
    n_seeds = len(vecs)
    vecs += [np.ravel(op) for op in ops]
    kept = independent_rows(vecs, [np.linalg.norm(v) for v in vecs])
    return [i - n_seeds for i in kept if i >= n_seeds]
