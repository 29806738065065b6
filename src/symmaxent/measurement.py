"""Simulated data acquisition.

An observable is measured in its eigenbasis: :func:`projector_modes` gives
its modes as ``(vectors, weights)``, :func:`simulate_counts` one integer
count per mode, and :func:`estimate_expectations` inverts the counts back to
an expectation-value estimate and its variance. Acquisition modes:

- ``ideal``: no counts are drawn; the harness takes exact expectations.
- ``finite_sample``: per mode, counts ~ Binomial(trials, p) with
  p = <v|rho|v>.
- ``photon_model``: a pulsed attenuated-laser source with Poissonian photon
  statistics and Poissonian dark counts. A pulse produces at least one click
  in mode k with probability

      P_click = 1 - exp(-mu p_k - lambda_dc),

  so counts ~ Binomial(trials, P_click). Estimation inverts this model
  (raw frequencies understate p_k by roughly a factor mu at small mu).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import DensityMatrix

MODES = ("ideal", "finite_sample", "photon_model")

# Spectral weights below this are rounding noise, not measurement modes.
MODE_EIGENVALUE_TOL = 1e-12


@dataclass(frozen=True)
class NoiseConfig:
    """Source and detector model parameters."""

    eta: float = 0.0
    mu: float = 0.18
    lambda_dc: float = 0.0
    trials: int = 10000
    mode: str = "ideal"

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if not 0.0 <= self.mu < np.inf:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        if not 0.0 <= self.lambda_dc < np.inf:
            raise ValueError(f"lambda_dc must be finite and >= 0, got {self.lambda_dc}")
        # numpy would draw int(trials) pulses, the estimate divide by trials
        if isinstance(self.trials, bool) or not isinstance(self.trials, numbers.Integral):
            raise ValueError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.mode not in MODES:
            raise ValueError(f"unknown acquisition mode {self.mode!r}")
        if self.mode == "photon_model" and self.mu == 0.0:
            raise ValueError("photon_model needs mu > 0: its inversion divides by mu")


def projector_modes(a) -> tuple[np.ndarray, np.ndarray]:
    """Rank-one modes of an observable as ``(vectors, weights)``.

    The columns of ``vectors`` are orthonormal eigenvectors and ``weights``
    their eigenvalues. Zero-eigenvalue directions are dropped, so a
    subnormalized rank-one POVM element yields a single mode carrying its
    scale as the weight. ``(vectors * weights) @ vectors^dagger`` is the
    observable.
    """
    w, v = linalg.eigh(a)
    keep = np.abs(w) > MODE_EIGENVALUE_TOL
    return v[:, keep], w[keep]


def click_probability(p, mu: float, lambda_dc: float):
    """Probability that a pulse yields at least one click in a mode with
    ideal projection probability p (a scalar or an array of them)."""
    p = np.asarray(p, dtype=float)
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError(f"p must be in [0, 1], got {p}")
    if mu < 0.0 or lambda_dc < 0.0:
        raise ValueError("mu and lambda_dc must be nonnegative")
    return 1.0 - np.exp(-mu * p - lambda_dc)


def photon_number_statistics(mu: float, n_pulses: int, rng: np.random.Generator):
    """Empirical (empty_fraction, multi_photon_fraction) over Poissonian
    pulses with mean photon number mu; calibration helper for choosing mu."""
    counts = rng.poisson(mu, size=n_pulses)
    empty = float(np.mean(counts == 0))
    multi = float(np.mean(counts >= 2))
    return empty, multi


def simulate_counts(rho: DensityMatrix, modes, config: NoiseConfig, rng) -> np.ndarray:
    """One integer count per mode of :func:`projector_modes`, drawn from
    ``rng`` in mode order: Binomial(trials, p) for finite_sample,
    Binomial(trials, click_probability(p)) for photon_model."""
    if config.mode == "ideal":
        raise ValueError("ideal acquisition takes exact expectations and draws no counts")
    vectors, _ = modes
    p = (vectors.conj() * (rho.matrix @ vectors)).sum(axis=0).real.clip(0.0, 1.0)
    if config.mode == "photon_model":
        p = click_probability(p, config.mu, config.lambda_dc)
    if p.size == 1:
        # same draw from the stream; numpy's array path costs ~12x a scalar's
        return np.array([rng.binomial(config.trials, p[0])])
    return rng.binomial(config.trials, p)


def estimate_expectations(counts, modes, config: NoiseConfig) -> tuple[float, float]:
    """Aggregate one observable's mode counts into an expectation-value
    estimate and its variance; ``modes`` are the observable's
    :func:`projector_modes`, the ones the counts were simulated for.

    Mode probabilities are inverted from the click model (photon_model) or
    taken as raw frequencies, then, when the modes form a complete projective
    decomposition (no eigenvector was dropped), renormalized to sum to one;
    the estimate is the eigenvalue-weighted sum, so it stays inside the
    observable's spectral range. A saturated photon_model mode (every pulse
    clicked) is clamped to (trials - 1)/trials before the log.

    The variance is the delta-method value from the counts. Each mode's
    count frequency P, clipped to [1/N, (N - 1)/N] for N trials, gives
    var p_k = P (1 - P) / N for finite_sample and P / (N mu^2 (1 - P)) for
    photon_model, the binomial variance through the derivative of the log
    inversion. The estimate's variance sums these times the squared
    derivative of the estimate in p_k: the mode weight, or, after the
    renormalization, (weight - estimate) / (sum of the p_k).
    """
    vectors, weights = modes
    counts = np.asarray(counts)
    if counts.shape != weights.shape:
        raise ValueError(f"expected {weights.size} counts, got shape {counts.shape}")
    if not ((counts >= 0) & (counts <= config.trials)).all():
        raise ValueError(f"counts {counts} outside [0, {config.trials}]")
    n = config.trials
    p_hats = counts / n
    freq = p_hats.clip(1.0 / n, (n - 1) / n)
    if config.mode == "photon_model":
        p_vars = freq / (n * config.mu**2 * (1.0 - freq))
        p_hats = np.minimum(p_hats, (n - 1) / n)
        p_hats = (-np.log1p(-p_hats) - config.lambda_dc) / config.mu
    else:
        p_vars = freq * (1.0 - freq) / n
    p_hats = p_hats.clip(0.0, 1.0)
    slopes = weights
    if vectors.shape[1] == vectors.shape[0]:
        total = p_hats.sum()
        if total > 0.0:
            p_hats = p_hats / total
            slopes = (weights - weights @ p_hats) / total
        else:
            p_hats = np.full(weights.size, 1.0 / weights.size)
    return float(weights @ p_hats), float(slopes**2 @ p_vars)
