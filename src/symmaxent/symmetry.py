"""Symmetry groups as estimation constraints.

A declared symmetry is represented by its commutant: the operators that
commute with every group element (qubit permutations, or collective
unitaries U x ... x U). For a symmetric state rho, Tr(A rho) equals
Tr(P(A) rho) with P the orthogonal projection onto the commutant, so the
estimator measures A but constrains P(A) (``compressed_problem`` does so
itself); the maximum-entropy state over projected
constraints commutes with the group on its own.

The commutant is block diagonal in the total-spin (Schur) basis, built once
per qubit count: one block per total spin j, repeated over the copies of its
irrep. The two kinds differ only in which index of that basis the commutant
acts on, the S_z state (permutation) or the copy (werner), so each object
below is built one way from the basis oriented to put that index in the
middle. Its orthonormal basis (``commutant_basis``) is the matrix units of
those blocks, and every commutant operator, the maximum-entropy state
included, is fixed by one copy of each block, where a basis coordinate is
one entry times sqrt(copies). This module is the only one that knows that
representation: the solver receives its operators' coordinates placed on
the blocks (``compress``) and hands back its estimate there, which
``expand`` reads back onto the basis.

A maximum-entropy problem under a declared symmetry constrains the
commutant projection P(A_i) of each measured operator in place of A_i
itself: for a symmetric state Tr(A rho) = Tr(P(A) rho), and the exponent
and rho then lie in the commutant. Its solve runs on one copy of each block: at four qubits a 9 x 9
eigensystem under permutation symmetry and 6 x 6 under werner symmetry
instead of 16 x 16. The blocks' multiplicities M = diag(m) enter only as a
constant reference weight. M is constant on each block and commutes with
the block-diagonal exponent H, so Z = Tr(M e^H) = Tr e^(H + log M): the
compressed solve is the plain solve with log m added to the exponent's
diagonal, the Gibbs form of minimum relative entropy with prior M (Csiszar,
Ann. Probab. 3, 146 (1975)). ``compressed_problem`` builds that problem and
``full_estimate`` returns its estimate to the full space; the solver knows
neither qubits nor symmetry kinds.

The generators Q_k (swap operators, collective Pauli sums) and the
auxiliary observables i[Q_k, O_j] built from them and the Pauli products
O_j span the orthogonal complement of the commutant. They are kept as the
explicit, countable form of the same constraint, built independently of the
total-spin basis: a state commutes with every Q_k exactly when all
auxiliary expectation values vanish.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import HermitianOperator
from .maxent import MaxEntProblem
from .observables import pauli_basis

KINDS = ("none", "permutation", "werner")

# Auxiliary candidates with Hilbert-Schmidt norm below this are the exactly
# vanishing commutators (O_j commuting with Q_k) and are dropped.
ZERO_COMMUTATOR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SymmetryGroupSpec:
    """A symmetry kind plus its generators and auxiliary observables."""

    kind: str
    n_qubits: int
    generators: tuple[HermitianOperator, ...]
    auxiliary: tuple[HermitianOperator, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown symmetry kind {self.kind!r}")
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "auxiliary", tuple(self.auxiliary))


def permutation_operator(n_qubits: int, i: int, j: int) -> HermitianOperator:
    """Swap of tensor factors i and j (1-based, i < j). Hermitian, unitary,
    and involutory."""
    if not 1 <= i < j <= n_qubits:
        raise ValueError(f"need 1 <= i < j <= {n_qubits}, got i={i}, j={j}")
    perm = list(range(n_qubits))
    perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
    return HermitianOperator(linalg.permutation_matrix(n_qubits, perm), f"P{i}{j}")


def permutation_generators(n_qubits: int) -> list[HermitianOperator]:
    """Transpositions [P_12, P_13, ..., P_1n]; together they generate the
    full qubit-permutation group."""
    if n_qubits < 2:
        raise ValueError("permutation symmetry needs at least 2 qubits")
    return [permutation_operator(n_qubits, 1, j) for j in range(2, n_qubits + 1)]


def werner_generators(n_qubits: int) -> list[HermitianOperator]:
    """Collective Pauli sums sum_l sigma_k^(l) for k in {x, y, z}.

    The k = 0 collective operator is n times the identity; its commutators
    vanish identically, so it contributes no constraints and is omitted.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    dim = 2**n_qubits
    out = []
    for name in "XYZ":
        acc = np.zeros((dim, dim), dtype=complex)
        for pos in range(n_qubits):
            acc += linalg.kron_all(
                linalg.PAULI_1Q[name] if q == pos else linalg.PAULI_1Q["I"]
                for q in range(n_qubits)
            )
        out.append(HermitianOperator(acc, f"S{name.lower()}"))
    return out


def generators_for(kind: str, n_qubits: int) -> list[HermitianOperator]:
    if kind == "none":
        return []
    if kind == "permutation":
        return permutation_generators(n_qubits)
    if kind == "werner":
        return werner_generators(n_qubits)
    raise ValueError(f"unknown symmetry kind {kind!r}")


def auxiliary_observables(kind: str, n_qubits: int) -> list[HermitianOperator]:
    """Linearly independent auxiliary observables i[Q_k, O_j], with O_j the
    j-th Pauli product of ``pauli_basis`` (1-based, as labelled).

    Candidates are symmetrized, rescaled to unit Hilbert-Schmidt norm (the
    target value zero is scale-free and unit scaling conditions the solver),
    and reduced to a linearly independent subset in construction order. The
    identity is left out of the O_j: its commutators vanish. For three
    qubits the permutation group yields 44 of them.
    """
    gens = generators_for(kind, n_qubits)
    paulis = pauli_basis(n_qubits) if gens else ()
    candidates, labels = [], []
    for gen in gens:
        for j, op in enumerate(paulis, start=1):
            comm = 1j * linalg.commutator(gen, op)
            comm = (comm + comm.conj().T) / 2.0
            nrm = np.linalg.norm(comm)
            if nrm <= ZERO_COMMUTATOR_TOL:
                continue
            candidates.append(comm / nrm)
            labels.append(f"aux-{gen.label}-O{j:02d}")
    return [
        HermitianOperator(candidates[i], labels[i])
        for i in linalg.linearly_independent_subset(candidates)
    ]


@functools.lru_cache(maxsize=16)
def build_symmetry(kind: str, n_qubits: int) -> SymmetryGroupSpec:
    """Generators plus auxiliary observables for a symmetry kind; both are
    empty for ``"none"``."""
    return SymmetryGroupSpec(
        kind,
        n_qubits,
        tuple(generators_for(kind, n_qubits)),
        tuple(auxiliary_observables(kind, n_qubits)),
    )


def filter_measured_observables(
    candidates: Sequence[HermitianOperator], aux: Sequence[HermitianOperator]
) -> tuple[HermitianOperator, ...]:
    """The order-preserving subset of ``candidates``, as a tuple, in which
    every element is linearly independent of the auxiliaries and of the
    candidates kept before it. Measuring a rejected candidate would add no
    information beyond what the symmetry constraints already pin down."""
    if aux and candidates and aux[0].dim != candidates[0].dim:
        raise ValueError("auxiliary dimension does not match candidates")
    kept = linalg.linearly_independent_subset(candidates, seed_ops=aux)
    return tuple(candidates[i] for i in kept)


@functools.lru_cache(maxsize=8)
def _total_spin_basis(n_qubits: int) -> tuple[np.ndarray, ...]:
    """The total-spin (Schur) basis of (C^2)^{otimes n}: one read-only real
    array per total spin j = n/2 - k, k = 0..n/2, from the largest j down,
    of shape (copies, 2j + 1, 2^n), where u[c, a] is the S_z = j - a state
    of copy c of the spin-j multiplet.

    By Schur-Weyl duality (C^2)^{otimes n} = sum_j V_j x K_j: V_j is the
    spin-j irrep of the collective unitaries (dimension 2j + 1) and K_j the
    irrep of the qubit permutations (copies = C(n, k) - C(n, k - 1)). The
    highest weights of the copies are an orthonormal basis of ker S_+ at
    S_z = j, by Gram-Schmidt over the qubit permutations of singlet^{otimes
    k} x |0...0>; each is lowered by S_- and normalised down to S_z = -j.
    No step is a matrix factorization, so unlike an SVD null space the basis
    does not change with the BLAS thread count.
    """
    # S_- = sum over qubits of |1><0|, with |0> spin up
    sigma_minus = np.array([[0.0, 0.0], [1.0, 0.0]])
    lower = sum(
        np.kron(np.kron(np.eye(2**q), sigma_minus), np.eye(2 ** (n_qubits - q - 1)))
        for q in range(n_qubits)
    )
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    out = []
    for k in range(n_qubits // 2 + 1):
        top = np.ones(1)
        for factor in [singlet] * k + [np.array([1.0, 0.0])] * (n_qubits - 2 * k):
            top = np.kron(top, factor)
        copies = math.comb(n_qubits, k) - (math.comb(n_qubits, k - 1) if k else 0)
        tops = [top]
        tensor = top.reshape((2,) * n_qubits)
        for perm in itertools.permutations(range(n_qubits)):
            if len(tops) == copies:
                break
            v = tensor.transpose(perm).ravel()
            for _ in range(2):
                for q in tops:
                    v = v - (q @ v) * q
            if np.linalg.norm(v) > 1e-9:
                tops.append(v / np.linalg.norm(v))
        u = np.empty((copies, n_qubits - 2 * k + 1, 2**n_qubits))
        for c, v in enumerate(tops):
            u[c, 0] = v
            for a in range(1, u.shape[1]):
                v = lower @ v
                u[c, a] = v = v / np.linalg.norm(v)
        u.setflags(write=False)
        out.append(u)
    return tuple(out)


def _check_kind(kind: str, n_qubits: int, what: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown symmetry kind {kind!r}")
    if kind == "none":
        raise ValueError(f"no {what} for symmetry kind 'none'")
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    if kind == "permutation" and n_qubits < 2:
        raise ValueError("permutation symmetry needs at least 2 qubits")


def _oriented_blocks(kind: str, n_qubits: int) -> tuple[np.ndarray, ...]:
    """The total-spin basis (``_total_spin_basis``) oriented so that the
    commutant of ``kind`` acts on the middle index: arrays of shape (copies,
    block size, 2^n), as built for ``permutation`` (the commutant mixes the
    S_z states of one multiplet) and with the first two axes swapped for
    ``werner`` (it mixes the copies of one S_z state)."""
    basis = _total_spin_basis(n_qubits)
    if kind == "werner":
        return tuple(u.transpose(1, 0, 2) for u in basis)
    return basis


@functools.lru_cache(maxsize=8)
def commutant_basis(kind: str, n_qubits: int) -> np.ndarray:
    """Orthonormal basis of the commutant of a symmetry group, one read-only
    row per element: a dim x dim matrix vectorized in row-major order.

    The rows are the matrix units of the oriented total-spin blocks u
    (``_oriented_blocks``), sum_c |u[c, a]><u[c, b]| / sqrt(copies) over
    a, b, block by block from the largest j down:

    - ``permutation``: sum_j M_{2j+1} x I. 20-dimensional for three qubits,
      35 for four, 56 for five.
    - ``werner``: sum_j I x M_{copies_j}. This is span{V_pi} of the qubit
      permutation matrices, the commutant of the collective unitaries
      U^{otimes n} (Schur-Weyl duality): 5-dimensional for three qubits, 14
      for four, 42 for five.
    """
    _check_kind(kind, n_qubits, "commutant")
    rows = []
    for u in _oriented_blocks(kind, n_qubits):
        units = np.einsum("cai,cbk->abik", u, u) / np.sqrt(u.shape[0])
        rows.append(units.reshape(-1, u.shape[2] ** 2))
    out = np.concatenate(rows).astype(complex)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=8)
def _block_layout(kind: str, n_qubits: int) -> tuple[np.ndarray, ...]:
    """Read-only (rows, cols, root, weights): the position of each
    ``commutant_basis`` element on one copy of each block, sqrt(copies) of
    its block, and the trace weight m of each of the c columns. Element
    (a, b) of an oriented block u is sum_c |u[c, a]><u[c, b]| / sqrt(copies),
    which is 1 / sqrt(copies) at one block-diagonal position of copy u[0];
    row-major, those positions run in the order of the basis elements."""
    _check_kind(kind, n_qubits, "irrep blocks")
    blocks = _oriented_blocks(kind, n_qubits)
    weights = np.concatenate([np.full(u.shape[1], float(u.shape[0])) for u in blocks])
    block_of = np.repeat(np.arange(len(blocks)), [u.shape[1] for u in blocks])
    rows, cols = np.nonzero(block_of[:, None] == block_of)
    out = rows, cols, np.sqrt(weights[rows]), weights
    for x in out:
        x.setflags(write=False)
    return out


def block_weights(kind: str, n_qubits: int) -> np.ndarray:
    """The trace weight m (read-only) of each of the c columns of the blocks
    that ``compress`` maps onto, from the largest total spin j down: its
    block's number of copies, C(n, k) - C(n, k - 1) for ``permutation`` (a
    spin-j multiplet) and 2j + 1 for ``werner`` (one S_z state of every
    copy). Tr X = sum_c m_c compress(X)_cc for X in the commutant."""
    return _block_layout(kind, n_qubits)[3]


def _coordinates(flat: np.ndarray, kind: str, n_qubits: int) -> np.ndarray:
    """Coefficients on ``commutant_basis`` of the commutant projections of
    row-major vectorized operators, one row per operator."""
    return flat @ commutant_basis(kind, n_qubits).conj().T


def compress(stack, kind: str, n_qubits: int) -> np.ndarray:
    """The commutant projection of each operator of a (K, 2^n, 2^n) stack,
    K = 0 included, on one copy of each block: its ``commutant_basis``
    coordinates placed on the blocks and divided by sqrt(copies). The
    (K, c, c) result is exactly Hermitian and exactly zero off the blocks."""
    stack = np.asarray(stack)
    k, dim = len(stack), 2**n_qubits
    rows, cols, root, weights = _block_layout(kind, n_qubits)
    out = np.zeros((k, len(weights), len(weights)), dtype=complex)
    out[:, rows, cols] = _coordinates(stack.reshape(k, dim * dim), kind, n_qubits) / root
    return (out + out.conj().transpose(0, 2, 1)) / 2.0


def expand(rho_c, kind: str, n_qubits: int) -> np.ndarray:
    """The full-space commutant operator whose blocks are ``rho_c`` (c x c):
    its block entries times sqrt(copies) are its ``commutant_basis``
    coordinates. Inverts ``compress`` on the commutant."""
    rows, cols, root, _ = _block_layout(kind, n_qubits)
    dim = 2**n_qubits
    return ((rho_c[rows, cols] * root) @ commutant_basis(kind, n_qubits)).reshape(dim, dim)


def compressed_problem(measured, kind: str, n_qubits: int, variances=None) -> MaxEntProblem:
    """The problem of (operator, target) pairs on n qubits under symmetry
    ``kind`` (see the module docstring): the plain problem for ``"none"``,
    else the ``compress``ed operators with log m as log weights, whose Gibbs
    state rho' = M rho_c gives each Tr(A rho) = Tr(M A_c rho_c) as Tr(A_c
    rho'). Rejects a kind the blocks cannot serve."""
    dim = 2**n_qubits
    if kind == "none":
        return MaxEntProblem(measured, (), dim, variances)
    weights = block_weights(kind, n_qubits)
    measured = tuple(measured)
    blocks = compress(linalg.stack([op for op, _ in measured], dim), kind, n_qubits)
    targets = (t for _, t in measured)
    return MaxEntProblem(tuple(zip(blocks, targets)), (), len(weights), variances, np.log(weights))


def full_estimate(rho, kind: str, n_qubits: int) -> np.ndarray:
    """The full-space estimate from a ``compressed_problem``'s estimate rho'
    = M rho_c: ``expand`` of rho' / m, or ``rho`` itself for ``"none"``."""
    if kind == "none":
        return rho
    return expand(rho / block_weights(kind, n_qubits)[:, None], kind, n_qubits)


def project(a, kind: str, n_qubits: int) -> np.ndarray:
    """Orthogonal (Hilbert-Schmidt) projection of an operator onto the
    commutant of ``kind``: the group average of the operator. Idempotent,
    trace-preserving, and Tr(A rho) = Tr(project(A) rho) for every
    symmetric rho."""
    mat = linalg.as_matrix(a)
    basis = commutant_basis(kind, n_qubits)
    return ((basis.conj() @ mat.ravel()) @ basis).reshape(mat.shape)


def independent_projections(ops, kind: str, n_qubits: int) -> list[int]:
    """Indices, in order, of the operators whose commutant projections are
    linearly independent of the projections kept before them.

    A residual counts relative to the norm of the operator itself, not of
    its projection, so an operator whose projection is rounding noise is
    dropped. The auxiliaries span the orthogonal complement of the
    commutant, so this keeps what ``linearly_independent_subset(ops,
    seed_ops=auxiliary)`` keeps, working in the commutant's coordinates.
    """
    ops = list(ops)
    if not ops:
        return []
    flat = np.array([linalg.as_matrix(op).ravel() for op in ops])
    coeffs = _coordinates(flat, kind, n_qubits)
    return linalg.independent_rows(coeffs, np.linalg.norm(flat, axis=1))
