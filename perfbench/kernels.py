"""Micro-timings of the public ``maxent`` kernels on fixed, seeded problems.

Each shape fixes the qubit count, the symmetry and the number r of measured
SIC observables, so the constraint count K = r + (auxiliaries) matches the
per-iteration cost behind one sweep workload:

- ``n3_r63``: no symmetry, K = 63 (``unbiased_sic``);
- ``n3_r19_aux44``: permutation symmetry, K = 19 + 44 = 63 (``noisy_photon``);
- ``n4_r34_aux221``: permutation symmetry, K = 34 + 221 = 255 (``symmetric_n4``).

The public functions rebuild their workspace on every call, so the timings
include stacking the K operators. The susceptibility operation count is
computed from K and the dimension, not measured.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from symmaxent import maxent, observables, states, symmetry
from symmaxent.maxent import MaxEntProblem

SEED = 20260809
SHAPES = {
    "n3_r63": (3, "none", 63),
    "n3_r19_aux44": (3, "permutation", 19),
    "n4_r34_aux221": (4, "permutation", 34),
}
KERNELS = ("rho_of_lambda", "objective", "gradient", "susceptibility")
# each kernel is timed as the median of BATCHES batches of at least MIN_BATCH_S
MIN_BATCH_S = 0.05
BATCHES = 5


def build_problem(n_qubits: int, symmetry_kind: str, r: int) -> MaxEntProblem:
    rng = np.random.default_rng([SEED, n_qubits, r])
    spec = symmetry.build_symmetry(symmetry_kind, n_qubits)
    candidates = observables.canonical_set("sic", n_qubits)
    if symmetry_kind == "none":
        rho = states.add_white_noise(states.haar_pure(n_qubits, rng), 0.0)
    else:
        candidates = symmetry.filter_measured_observables(candidates, spec.auxiliary)
        rho = states.random_permutation_invariant_mixed(n_qubits, rng)
    measured = tuple((op, observables.expectation(rho, op)) for op in list(candidates)[:r])
    return MaxEntProblem(measured, spec.auxiliary, 2**n_qubits)


def susceptibility_flops(k: int, dim: int) -> int:
    """Real floating-point operations in one susceptibility evaluation.

    Rotating K operators into the eigenbasis takes 2K complex d x d products
    (8 d^3 flops each); weighting by the divided-difference kernel takes
    2 K d^2; the K x K contraction over d^2 entries takes 8 K^2 d^2; the
    rank-one correction and symmetrisation take 3 K^2.
    """
    return 16 * k * dim**3 + 2 * k * dim**2 + 8 * k * k * dim**2 + 3 * k * k


def _time_call(fn, *args, min_batch_s: float, batches: int) -> float:
    """Median seconds per call over ``batches`` batches, each at least
    ``min_batch_s`` long."""
    calls = 1
    while True:
        t0 = perf_counter()
        for _ in range(calls):
            out = fn(*args)
        elapsed = perf_counter() - t0
        if elapsed >= min_batch_s:
            break
        calls *= 2
    if not np.all(np.isfinite(np.asarray(getattr(out, "matrix", out)))):
        raise ValueError(f"{fn.__name__} returned non-finite values")
    per_call = [elapsed / calls]
    for _ in range(batches - 1):
        t0 = perf_counter()
        for _ in range(calls):
            fn(*args)
        per_call.append((perf_counter() - t0) / calls)
    return statistics.median(per_call)


def kernel_metrics() -> dict:
    """``{name: (value, unit)}`` for every shape and kernel."""
    metrics = {}
    for shape, (n_qubits, symmetry_kind, r) in SHAPES.items():
        problem = build_problem(n_qubits, symmetry_kind, r)
        rng = np.random.default_rng([SEED, problem.n_constraints])
        lambdas = rng.normal(scale=0.3, size=problem.n_constraints)
        for kernel in KERNELS:
            seconds = _time_call(
                getattr(maxent, kernel), problem, lambdas,
                min_batch_s=MIN_BATCH_S, batches=BATCHES,
            )
            metrics[f"maxent.{kernel}_us.{shape}"] = (1e6 * seconds, "us")
        metrics[f"maxent.susceptibility_flop.{shape}"] = (
            susceptibility_flops(problem.n_constraints, problem.dim),
            "flop",
        )
    return metrics
