"""Target states: construction, the sweep's state families, and metrics.

A state is its matrix, and any square size is one. Samplers take an explicit
``numpy.random.Generator`` owned by the caller, so batch runs can hand each
state its own independent stream. ``FAMILIES`` maps each family a sweep
draws from to its least qubit count and its sampler.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, symmetry

TRACE_TOL = 1e-10
NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit state vector, of any length."""

    amplitudes: np.ndarray

    def __post_init__(self):
        if np.ndim(self.amplitudes) != 1:
            raise ValueError(f"state vector must be 1-D, got shape {np.shape(self.amplitudes)}")
        amp = np.array(self.amplitudes, dtype=complex)
        nrm = np.linalg.norm(amp)
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector not normalized: |psi| = {nrm!r}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Trace-one PSD Hermitian matrix, of any square size.

    ``min_eigenvalue`` is the smallest eigenvalue of ``matrix``, which the
    PSD check computes on construction."""

    matrix: np.ndarray
    min_eigenvalue: float = field(init=False, repr=False)

    def __post_init__(self):
        # a (K, d, d) stack would pass the Hermitian check
        if np.ndim(self.matrix) != 2:
            raise ValueError(f"density matrix must be 2-D, got shape {np.shape(self.matrix)}")
        m = linalg.hermitian(self.matrix, "density matrix")
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        wmin = float(np.linalg.eigvalsh(m)[0])
        if wmin < linalg.PSD_EIG_FLOOR:
            raise ValueError(f"density matrix not PSD (min eigenvalue {wmin:.3e})")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "min_eigenvalue", wmin)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def sqrt(self) -> np.ndarray:
        """``linalg.psd_sqrtm`` of the matrix, computed once: a sweep scores
        every estimate of a state against the same target."""
        s = linalg.psd_sqrtm(self.matrix)
        s.setflags(write=False)
        return s


def haar_pure(n_qubits: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state: complex Gaussian vector, normalized."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    dim = 2**n_qubits
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(v / np.linalg.norm(v))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix with the
    phase-of-R fix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@functools.lru_cache(maxsize=None)
def dicke_basis(n_qubits: int) -> tuple[np.ndarray, ...]:
    """Orthonormal basis of the symmetric subspace: one uniform-superposition
    vector per excitation number 0..n, as read-only arrays, built once per
    qubit count."""
    return tuple(dicke(n_qubits, k).amplitudes for k in range(n_qubits + 1))


def haar_symmetric_pure(n_qubits: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state within the (n+1)-dimensional symmetric
    subspace: complex Gaussian coefficients over the excitation-number basis,
    normalized. Outputs are fixed points of every two-qubit swap."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    basis = dicke_basis(n_qubits)
    c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    c /= np.linalg.norm(c)
    amp = sum(ci * vi for ci, vi in zip(c, basis))
    return PureState(amp)


def ghz(n_qubits: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    if n_qubits < 2:
        raise ValueError("n_qubits must be >= 2")
    dim = 2**n_qubits
    amp = np.zeros(dim, dtype=complex)
    amp[0] = amp[-1] = 1.0 / np.sqrt(2.0)
    return PureState(amp)


def dicke(n_qubits: int, n_excitations: int) -> PureState:
    """Uniform superposition of all basis states with fixed Hamming weight."""
    if not 0 <= n_excitations <= n_qubits:
        raise ValueError(f"n_excitations must be in [0, {n_qubits}], got {n_excitations}")
    dim = 2**n_qubits
    amp = np.zeros(dim, dtype=complex)
    coeff = 1.0 / math.sqrt(math.comb(n_qubits, n_excitations))
    for idx in range(dim):
        if bin(idx).count("1") == n_excitations:
            amp[idx] = coeff
    return PureState(amp)


def _random_algebra_state(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """rho = T T^dagger / Tr(T T^dagger) for a Gaussian element T of the
    algebra spanned by ``basis``: the Ginibre construction carried out inside
    the invariant algebra. The algebra is closed under products and adjoints,
    so rho is exactly invariant; unlike twirling a full-space Ginibre state
    (which concentrates tightly around the maximally mixed state) the samples
    spread over the whole invariant family.
    """
    dim = math.isqrt(basis.shape[1])
    coeff = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    t = (coeff @ basis).reshape(dim, dim)
    m = t @ t.conj().T
    return m / np.trace(m).real


def random_werner(n_qubits: int, rng: np.random.Generator) -> DensityMatrix:
    """Random state invariant under all collective unitaries.

    Sampled as a Ginibre state inside span{V_pi}, the collective-unitary
    commutant (see :func:`_random_algebra_state`); the twirl of a full-space
    Ginibre state would be exactly invariant too but concentrates at purity
    ~ 1/2^n, which collapses the fidelity-vs-r curves of the family into a
    flat line.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    basis = symmetry.commutant_basis("werner", n_qubits)
    return DensityMatrix(_random_algebra_state(basis, rng))


def random_permutation_invariant_mixed(n_qubits: int, rng: np.random.Generator) -> DensityMatrix:
    """Random mixed state commuting with every qubit permutation: a Ginibre
    state inside the permutation commutant (20 parameters for three qubits,
    versus the (n+1)-dimensional pure symmetric subspace)."""
    if n_qubits < 2:
        raise ValueError("n_qubits must be >= 2")
    basis = symmetry.commutant_basis("permutation", n_qubits)
    return DensityMatrix(_random_algebra_state(basis, rng))


def add_white_noise(state: PureState | DensityMatrix, eta: float) -> DensityMatrix:
    """(1 - eta) rho + eta I / dim, with rho = |psi><psi| for a pure state."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    pure = isinstance(state, PureState)
    rho = np.outer(state.amplitudes, state.amplitudes.conj()) if pure else state.matrix
    return DensityMatrix((1.0 - eta) * rho + (eta / state.dim) * np.eye(state.dim))


# the same map under its mixed-state name, which callers and tracers use
mix_with_identity = add_white_noise

# family name -> (least qubit count, sampler(n_qubits, rng, excitations)); a
# sampler looks its function up on this module when called, so it finds a
# wrapper set there
FAMILIES = {
    "haar_pure": (1, lambda n, rng, k: haar_pure(n, rng)),
    "permutation_invariant": (1, lambda n, rng, k: haar_symmetric_pure(n, rng)),
    "permutation_invariant_mixed": (
        2, lambda n, rng, k: random_permutation_invariant_mixed(n, rng)),
    "werner": (1, lambda n, rng, k: random_werner(n, rng)),
    "ghz": (2, lambda n, rng, k: ghz(n)),
    "dicke": (1, lambda n, rng, k: dicke(n, k)),
}


def sample(
    family: str, n_qubits: int, rng: np.random.Generator, eta: float, excitations: int
) -> DensityMatrix:
    """A target from ``FAMILIES[family]`` on ``n_qubits`` with white noise at
    rate ``eta``; ``excitations`` is read by ``"dicke"`` only."""
    return add_white_noise(FAMILIES[family][1](n_qubits, rng, excitations), eta)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr sqrt(sqrt(rho) sigma sqrt(rho)); 1 iff the states coincide."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return _fidelity_from_sqrt(rho.sqrt, sigma.matrix)


def _fidelity_from_sqrt(s: np.ndarray, sigma: np.ndarray) -> float:
    """``fidelity`` from sqrt(rho) and sigma's matrix of the same size, both
    used unchecked."""
    inner = s @ sigma @ s
    inner = (inner + inner.conj().T) / 2.0
    w = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(min(np.sum(np.sqrt(w)), 1.0))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), in [1/dim, 1]."""
    return float(np.vdot(rho.matrix, rho.matrix).real)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr(rho ln rho) in nats, with 0 ln 0 = 0."""
    w = np.clip(np.linalg.eigvalsh(rho.matrix), 0.0, None)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)))
