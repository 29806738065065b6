"""Output checks for benchmark runs, and the reference they compare against.

A run passes when

- every (state, r) solve returned a finite fidelity in [0, 1];
- every re-sweep of a state reproduces its first sweep bit for bit (the
  harness's rerun guarantee);
- for every r, the median fidelity over the run's n states lies inside the
  band where the reference distribution puts the median of n states, except
  with probability ``ALPHA`` per side, widened on each side by a slack.

The band comes from the binomial law of an order statistic: the median of n
draws falls below the reference's p-quantile with probability
P(Binomial(n, p) >= ceil(n / 2)). The check uses the median, not the mean,
because the per-r fidelity is heavy-tailed: a rare state converges to a poor
estimate (fidelity 0.9993 at r = 26 on ``unbiased_sic``, where the median
state reaches 0.999995), which moves a small run's mean far beyond a
standard-error bound. With 150 states the band is the reference's
quartiles, with 10 states its 2nd and 98th percentiles, with one state
[0, 1].

The slack scales with the band: ``SLACK_FRAC`` of its width, and at least
``DRIFT_FLOOR``. It covers the error of the reference's own quantile
estimates and the drift between BLAS kernels. Sweeping the reference's first
40 states (12 on ``symmetric_n4``) with OpenBLAS forced to its Haswell,
Sandybridge and Prescott kernels moved single fidelities by up to 0.15 at
r = 2 on ``symmetric_n4``, and by up to 5e-8 at the top r of
``unbiased_sic`` and ``symmetric_n4``. The
per-r medians moved by at most 0.24 of the band width, and by at most 9.4e-9
at the top r; every kernel's sweep passed the check. So at high r, where the
band is a few 1e-8 wide (r = 63 on ``unbiased_sic``, r = 34 on
``symmetric_n4``), a loss of 1e-6 in fidelity fails the check.

Record the reference with ``python3 perfbench/checks.py``. It sweeps
``REFERENCE_STATES[name]`` states of every workload from ``REFERENCE_SEED``
and rewrites ``reference.json`` as a whole.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

ALPHA = 1e-6
# percent levels of the stored reference quantiles; levels 0 and 100 are the
# fidelity range itself, since a reference sample cannot bound its extremes
LEVELS = (1, 2, 5, 10, 25, 50, 75, 90, 95, 98, 99)
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 777
REFERENCE_STATES = {"unbiased_sic": 320, "symmetric_n4": 160, "noisy_photon": 320}
SLACK_FRAC = 0.5
DRIFT_FLOOR = 2e-8


def bad_fidelity(fidelity: float) -> bool:
    return not (math.isfinite(fidelity) and 0.0 <= fidelity <= 1.0)


def record_key(rec) -> tuple:
    """Everything a record holds, with floats in exact hex form."""
    return (rec.state_id, rec.r, float(rec.fidelity).hex(), rec.converged, rec.iterations)


def fidelities_by_r(records) -> dict[int, list[float]]:
    by_r: dict[int, list[float]] = {}
    for rec in records:
        by_r.setdefault(rec.r, []).append(rec.fidelity)
    return dict(sorted(by_r.items()))


def _binomial_upper_tail(n: int, k: int, p: float) -> float:
    """P(Binomial(n, p) >= k) for 0 < p < 1, summed in log space so that
    large n does not overflow."""
    log_p, log_q = math.log(p), math.log1p(-p)
    return math.fsum(
        math.exp(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                 + j * log_p + (n - j) * log_q)
        for j in range(k, n + 1)
    )


@functools.lru_cache(maxsize=None)
def median_band(n: int) -> tuple[float, float]:
    """Percent levels (lo, hi) with P(median of n draws < q_lo) <= ALPHA,
    and symmetrically for q_hi."""
    k = (n + 1) // 2
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = (lo + hi) / 2
        if _binomial_upper_tail(n, k, mid) <= ALPHA:
            lo = mid
        else:
            hi = mid
    return 100.0 * lo, 100.0 * (1.0 - lo)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def reference_problems(workload, records, reference: dict) -> list[str]:
    """Per-r medians outside the reference band."""
    ref = reference[workload.name]["by_r"]
    problems = []
    for r, fids in fidelities_by_r(records).items():
        if str(r) not in ref:
            problems.append(f"r = {r} has no reference")
            continue
        quantiles = dict(zip(LEVELS, ref[str(r)]["quantiles"]))
        p_lo, p_hi = median_band(len(fids))
        low = max((quantiles[level] for level in LEVELS if level <= p_lo), default=0.0)
        high = min((quantiles[level] for level in LEVELS if level >= p_hi), default=1.0)
        slack = max(DRIFT_FLOOR, SLACK_FRAC * (high - low))
        median = float(np.median(fids))
        if not low - slack <= median <= high + slack:
            problems.append(
                f"r = {r}: median fidelity {median:.10f} of {len(fids)} states outside "
                f"the reference band [{low:.10f}, {high:.10f}] +- {slack:.3g}"
            )
    return problems


def record() -> None:
    from symmaxent import harness
    from workloads import WORKLOADS

    os.environ[harness.THREADS_ENV_VAR] = "1"
    reference = {}
    for name, wl in WORKLOADS.items():
        records = []
        for chunk in range(REFERENCE_STATES[name]):
            config = wl.config(wl.chunk_seed(REFERENCE_SEED, chunk))
            records.extend(harness.run_sweep(config).records)
        by_r = {
            r: {
                "quantiles": [float(q) for q in np.percentile(f, LEVELS)],
                "mean": float(np.mean(f)),
                "std": float(np.std(f)),
                "count": len(f),
            }
            for r, f in fidelities_by_r(records).items()
        }
        reference[name] = {"seed": REFERENCE_SEED, "by_r": by_r}
        median = LEVELS.index(50)
        print(f"{name}: {REFERENCE_STATES[name]} states, median fidelity by r "
              + ", ".join(f"{r}:{v['quantiles'][median]:.6f}" for r, v in by_r.items()))
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    record()
