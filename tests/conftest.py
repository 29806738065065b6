import numpy as np
import pytest

from symmaxent import states, symmetry

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_chain(*mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_psd(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T


def random_mixed_state(dim, rng):
    m = random_psd(dim, rng)
    return m / np.trace(m).real


def full_state(rho, n_qubits, kind="none"):
    """A problem's estimate ``rho`` as a DensityMatrix on n qubits, expanded
    from the irrep blocks of symmetry ``kind`` (``symmetry.full_estimate``)."""
    return states.DensityMatrix(symmetry.full_estimate(rho, kind, n_qubits), n_qubits)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
