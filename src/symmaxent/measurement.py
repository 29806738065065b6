"""Simulated data acquisition.

Three acquisition modes:

- ``ideal``: counts are the rounded expected counts (no randomness).
- ``finite_sample``: per projector mode, counts ~ Binomial(trials, p) with
  p = Tr(rho Pi).
- ``photon_model``: a pulsed attenuated-laser source with Poissonian photon
  statistics and Poissonian dark counts. A pulse produces at least one click
  in mode k with probability

      P_click = 1 - exp(-mu p_k - lambda_dc),

  so counts ~ Binomial(trials, P_click). Estimation inverts this model
  (raw frequencies understate p_k by roughly a factor mu at small mu).
"""

from __future__ import annotations

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
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.mode not in MODES:
            raise ValueError(f"unknown acquisition mode {self.mode!r}")


@dataclass(frozen=True)
class MeasurementRecord:
    """Counts for one projector mode of one observable."""

    observable_label: str
    mode_index: int
    counts: int
    trials: int

    def __post_init__(self):
        if not 0 <= self.counts <= self.trials:
            raise ValueError(f"counts {self.counts} outside [0, {self.trials}]")


def projector_modes(a) -> list[tuple[np.ndarray, float]]:
    """Rank-one modes (|v><v|, eigenvalue) of an observable.

    Zero-eigenvalue directions are dropped, so a subnormalized rank-one POVM
    element yields a single mode carrying its scale as the weight. The
    weighted modes sum back to the observable.
    """
    w, v = linalg.eigh(a)
    modes = []
    for k in range(w.shape[0]):
        if abs(w[k]) <= MODE_EIGENVALUE_TOL:
            continue
        vec = v[:, k]
        modes.append((np.outer(vec, vec.conj()), float(w[k])))
    return modes


def modes_are_complete(modes, dim: int, tol: float = 1e-8) -> bool:
    """Whether the mode projectors resolve the identity (a full projective
    decomposition, as for any non-singular observable)."""
    acc = np.zeros((dim, dim), dtype=complex)
    for proj, _ in modes:
        acc += proj
    return bool(np.max(np.abs(acc - np.eye(dim))) <= tol)


def click_probability(p_k: float, mu: float, lambda_dc: float) -> float:
    """Probability that a pulse yields at least one click in a mode with
    ideal projection probability p_k."""
    if not 0.0 <= p_k <= 1.0:
        raise ValueError(f"p_k must be in [0, 1], got {p_k}")
    if mu < 0.0 or lambda_dc < 0.0:
        raise ValueError("mu and lambda_dc must be nonnegative")
    return float(1.0 - np.exp(-mu * p_k - lambda_dc))


def photon_number_statistics(mu: float, n_pulses: int, rng: np.random.Generator):
    """Empirical (empty_fraction, multi_photon_fraction) over Poissonian
    pulses with mean photon number mu; calibration helper for choosing mu."""
    counts = rng.poisson(mu, size=n_pulses)
    empty = float(np.mean(counts == 0))
    multi = float(np.mean(counts >= 2))
    return empty, multi


def simulate_counts(
    rho: DensityMatrix,
    modes,
    config: NoiseConfig,
    rng: np.random.Generator | None = None,
    observable_label: str = "",
) -> list[MeasurementRecord]:
    """Counts per mode for one observable.

    ideal: counts = round(trials * p); finite_sample: Binomial(trials, p);
    photon_model: Binomial(trials, click_probability(p)).
    """
    if config.mode != "ideal" and rng is None:
        raise ValueError(f"mode {config.mode!r} needs a random generator")
    records = []
    for k, (proj, _) in enumerate(modes):
        p = float(np.clip(np.vdot(proj, rho.matrix).real, 0.0, 1.0))
        if config.mode == "ideal":
            counts = int(round(config.trials * p))
        elif config.mode == "finite_sample":
            counts = int(rng.binomial(config.trials, p))
        else:
            counts = int(rng.binomial(config.trials, click_probability(p, config.mu, config.lambda_dc)))
        records.append(
            MeasurementRecord(
                observable_label=observable_label,
                mode_index=k,
                counts=counts,
                trials=config.trials,
            )
        )
    return records


def _invert_click_frequency(freq: float, config: NoiseConfig) -> float:
    """Solve the click model for the mode probability. A saturated mode
    (every pulse clicked) is clamped to (trials - 1)/trials before the log."""
    if config.mode == "photon_model":
        if config.mu <= 0.0:
            raise ValueError("photon_model inversion needs mu > 0")
        freq = min(freq, (config.trials - 1) / config.trials)
        p_hat = (-np.log1p(-freq) - config.lambda_dc) / config.mu
    else:
        p_hat = freq
    return float(np.clip(p_hat, 0.0, 1.0))


def estimate_expectations(records, modes, config: NoiseConfig) -> float:
    """Aggregate one observable's mode counts into an expectation-value
    estimate; ``modes`` are the observable's :func:`projector_modes`, the
    ones the counts were simulated for.

    Mode probabilities are inverted from the click model (photon_model) or
    taken as raw frequencies, then, when the modes form a complete projective
    decomposition, renormalized to sum to one; the estimate is the
    eigenvalue-weighted sum. The result is a convex combination of
    eigenvalues, so it stays inside the observable's spectral range.
    """
    if len(records) != len(modes):
        raise ValueError(f"expected {len(modes)} records, got {len(records)}")
    p_hats = np.zeros(len(modes))
    for rec in records:
        p_hats[rec.mode_index] = _invert_click_frequency(rec.counts / rec.trials, config)
    if modes and modes_are_complete(modes, modes[0][0].shape[0]):
        total = p_hats.sum()
        p_hats = p_hats / total if total > 0.0 else np.full(len(modes), 1.0 / len(modes))
    weights = np.array([w for _, w in modes])
    return float(weights @ p_hats)
