"""Host speed probe: a fixed numpy kernel timed between sweeps.

On a shared host the same sweep runs up to twice as slow in spells that last
seconds to minutes, and a whole run can fall inside one. The probe times a
fixed kernel of the kinds of numpy call the sweeps make (Hermitian ``eigh``
at dimensions 8 and 16, a matrix product, expectation contractions and a
dense solve at K = 63) on arrays drawn once from a fixed seed. It uses
nothing from ``symmaxent``, so no change to the program changes what it
measures. Every call in it runs on one thread: OpenBLAS threads the solve
only from about K = 127 up, so the probe's time does not depend on the BLAS
threads the program runs (right after threaded K = 255 solves it took 0.96
of its time after an idle spell).

A sweep's time divided by ``HostClock.speed()``, the mean of the probes just
before and just after it over ``NOMINAL_S``, is its time at the nominal host
speed. On a 2-vCPU x86_64 VM, one fixed one-state sweep repeated for 40 s
spread by 31% / 16% / 17% (interquartile range over median) on
``unbiased_sic`` / ``noisy_photon`` / ``symmetric_n4``; the probe times
correlated with the sweep times at 0.84 / 0.76 / 0.57, and the scaled times
spread by 8.5% / 11.6% / 15.1%. Eight 40-state runs of the same
``noisy_photon`` states spread by 10.3% in wall-clock states per second and
by 4.9% scaled.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# median probe time on a 2-vCPU x86_64 VM (Intel Xeon, numpy 2.4.6,
# OpenBLAS 0.3.31); it only sets the scale of the scaled times
NOMINAL_S = 0.010
REPEATS = 32


def _arrays():
    rng = np.random.default_rng(20261018)
    out = {}
    for dim, k in ((8, 63), (16, 63)):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = rng.normal(size=(k, k))
        out[dim] = (
            a + a.conj().T,
            rng.normal(size=(k, dim, dim)) + 1j * rng.normal(size=(k, dim, dim)),
            m @ m.T + k * np.eye(k),
            rng.normal(size=k),
        )
    return out


_ARRAYS = _arrays()


def probe() -> float:
    """Seconds the fixed kernel takes now."""
    t0 = perf_counter()
    for _ in range(REPEATS):
        for h, ops, m, b in _ARRAYS.values():
            w, v = np.linalg.eigh(h)
            rho = (v * np.exp(-w / w.max())) @ v.conj().T
            np.einsum("kij,ji->k", ops, rho)
            np.linalg.solve(m, b)
    return perf_counter() - t0


class HostClock:
    """Probes the host between timed sections; ``speed()`` is the current
    section's slowdown factor relative to nominal (1 = nominal, 2 = twice as
    slow), from the probes on either side of it."""

    def __init__(self):
        probe()
        self.last = probe()

    def speed(self) -> float:
        before, self.last = self.last, probe()
        return (before + self.last) / (2.0 * NOMINAL_S)
