"""Simulated data acquisition.

An observable is measured in its eigenbasis, and observables are acquired
in batches of N observables with m modes each (every canonical observable
of a kind has the same m: 2^n for a Pauli product, 1 for a SIC element);
one observable is a batch of one. :func:`projector_modes` gives an
observable's modes, :func:`stack_modes` places the modes of a batch side by
side as one (d x N m) array, :func:`simulate_counts` draws one integer count
per mode, and :func:`estimate_expectations` inverts the counts back to one
expectation-value estimate and one variance per observable.

A batch is one pass: one GEMM gives every mode's probability, one binomial
draw from one generator every count, in mode order, and the click model and
the count inversion are array operations over the (N, m) modes. numpy
draws an array binomial element by element, so a batch's first k
observables get the counts of a batch of just those k, and each
observable's sums are its own dot products. A mode's probability, a GEMM
column, can differ in the last bit (about 4e-16 relative) from its batch
of one, far below what moves a binomial draw of any practical number of
trials.

Acquisition modes:

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
from typing import NamedTuple

import numpy as np

from . import linalg
from .states import DensityMatrix

MODES = ("ideal", "finite_sample", "photon_model")

# Spectral weights below this are rounding noise, not measurement modes.
MODE_EIGENVALUE_TOL = 1e-12

# the most trials numpy's binomial draws; it overflows at 2**63
MAX_TRIALS = 2**63 - 1


@dataclass(frozen=True)
class NoiseConfig:
    """Source and detector model parameters."""

    eta: float = 0.0
    mu: float = 0.18
    lambda_dc: float = 0.0
    trials: int = 10000
    mode: str = "ideal"

    def __post_init__(self):
        # a bool would pass as 0 or 1, a string fail the range tests with a TypeError
        for name in ("eta", "mu", "lambda_dc"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if not 0.0 <= self.mu < np.inf:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        if not 0.0 <= self.lambda_dc < np.inf:
            raise ValueError(f"lambda_dc must be finite and >= 0, got {self.lambda_dc}")
        # numpy would draw int(trials) pulses, the estimate divide by trials
        if isinstance(self.trials, bool) or not isinstance(self.trials, numbers.Integral):
            raise ValueError(f"trials must be an integer, got {self.trials!r}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must be in [1, 2**63 - 1], got {self.trials}")
        if self.mode not in MODES:
            raise ValueError(f"unknown acquisition mode {self.mode!r}")
        if self.mode != "ideal" and self.trials < 2:
            # at N = 1 the clip [1/N, (N - 1)/N] is empty and every variance 0
            raise ValueError(f"{self.mode} needs trials >= 2: a count's variance needs two trials")
        if self.mode == "photon_model" and self.mu == 0.0:
            raise ValueError("photon_model needs mu > 0: its inversion divides by mu")


class Modes(NamedTuple):
    """Measurement modes of a batch of N observables with m modes each, in
    observable order: the N m columns of ``vectors`` are the modes, m per
    observable, and ``weights``, of shape (N, m), their eigenvalues. One
    observable is a batch of one (:func:`projector_modes`);
    :func:`stack_modes` joins batches with the same m."""

    vectors: np.ndarray
    weights: np.ndarray


def projector_modes(a) -> Modes:
    """Rank-one modes of one observable, as a batch of one.

    The columns of ``vectors`` are orthonormal eigenvectors and ``weights``,
    of shape (1, m), their eigenvalues. Zero-eigenvalue directions are
    dropped, so a subnormalized rank-one POVM element yields a single mode
    carrying its scale as the weight. ``(vectors * weights) @
    vectors^dagger`` is the observable.
    """
    w, v = linalg.eigh(a)
    keep = np.abs(w) > MODE_EIGENVALUE_TOL
    return Modes(v[:, keep], w[keep][None, :])


def stack_modes(batches) -> Modes:
    """One batch of the modes of ``batches``, in their order; every batch
    must have the same number of modes per observable."""
    batches = list(batches)
    if not batches:
        raise ValueError("stack_modes needs at least one batch")
    counts = sorted({b.weights.shape[1] for b in batches})
    if len(counts) > 1:
        raise ValueError(f"stack_modes joins batches of one mode count, got mode counts {counts}")
    return Modes(
        np.concatenate([b.vectors for b in batches], axis=1),
        np.concatenate([b.weights for b in batches]),
    )


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


def simulate_counts(rho: DensityMatrix, modes: Modes, config: NoiseConfig, rng) -> np.ndarray:
    """One integer count per mode of a batch, in mode order:
    Binomial(trials, p) for finite_sample, Binomial(trials,
    click_probability(p)) for photon_model.

    Every count comes from the one generator ``rng``, mode by mode in batch
    order: each observable's counts are the draws it would make alone from
    ``rng`` as the observables before it left it. One GEMM gives every
    mode's probability p = <v|rho|v>."""
    if config.mode == "ideal":
        raise ValueError("ideal acquisition takes exact expectations and draws no counts")
    vectors = modes.vectors
    p = (vectors.conj() * (rho.matrix @ vectors)).sum(axis=0).real.clip(0.0, 1.0)
    if config.mode == "photon_model":
        p = click_probability(p, config.mu, config.lambda_dc)
    return rng.binomial(config.trials, p)


def estimate_expectations(counts, modes: Modes, config: NoiseConfig) -> tuple[np.ndarray, np.ndarray]:
    """Invert a batch's mode counts into one expectation-value estimate and
    one variance per observable, as two arrays in observable order;
    ``modes`` are the batch the counts were simulated for, and ``counts``
    holds one whole number in [0, trials] per mode, in mode order.

    Mode probabilities are inverted from the click model (photon_model) or
    taken as raw frequencies, then, for an observable whose modes form a
    complete projective decomposition (no eigenvector was dropped),
    renormalized to sum to one; the estimate is the eigenvalue-weighted sum,
    so it stays inside the observable's spectral range. A saturated
    photon_model mode (every pulse clicked) is clamped to (trials - 1)/trials
    before the log.

    The variance is the delta-method value from the counts. Each mode's
    count frequency P, clipped to [1/N, (N - 1)/N] for N trials, gives
    var p_k = P (1 - P) / N for finite_sample and P / (N mu^2 (1 - P)) for
    photon_model, the binomial variance through the derivative of the log
    inversion. The estimate's variance sums these times the squared
    derivative of the estimate in p_k: the mode weight, or, after the
    renormalization, (weight - estimate) / (sum of the p_k).

    Every step is one array operation over the batch, its counts read as
    one row of m per observable; each observable's sums are its own dot
    products, so its estimate does not depend on the batch.
    """
    vectors, w = modes
    counts = np.asarray(counts)
    if counts.shape != (w.size,):
        raise ValueError(f"expected {w.size} counts, got shape {counts.shape}")
    if not ((counts >= 0) & (counts <= config.trials)).all():
        raise ValueError(f"counts {counts} outside [0, {config.trials}]")
    fractional = counts != np.trunc(counts)
    if fractional.any():
        raise ValueError(f"counts must be whole numbers, got {counts[fractional]}")
    n = config.trials
    p_hats = counts / n
    freq = p_hats.clip(1.0 / n, (n - 1) / n)
    if config.mode == "photon_model":
        p_vars = freq / (n * config.mu**2 * (1.0 - freq))
        p_hats = np.minimum(p_hats, (n - 1) / n)
        p_hats = (-np.log1p(-p_hats) - config.lambda_dc) / config.mu
    else:
        p_vars = freq * (1.0 - freq) / n
    p, p_vars = p_hats.clip(0.0, 1.0).reshape(w.shape), p_vars.reshape(w.shape)
    complete = w.shape[1] == vectors.shape[0]
    if complete:
        total = p.sum(axis=1, keepdims=True)
        p = np.divide(p, total, out=np.full_like(p, 1.0 / p.shape[1]), where=total > 0.0)
    # one dot product per observable, (1, m) @ (m, 1)
    estimates = (w[:, None, :] @ p[:, :, None])[:, 0, 0]
    slopes = w
    if complete:
        slopes = np.divide(w - estimates[:, None], total, out=w.copy(), where=total > 0.0)
    variances = ((slopes**2)[:, None, :] @ p_vars[:, :, None])[:, 0, 0]
    return estimates, variances
