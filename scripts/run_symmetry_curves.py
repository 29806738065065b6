#!/usr/bin/env python3
"""Symmetry-constrained versus standard estimation on symmetric sources.

Runs the permutation-invariant (mixed, 20-parameter) and Werner families,
each with and without the matching symmetry constraints, over the same
states (shared seed), and reports where each curve first reaches mean
fidelity 0.95."""

import argparse
from pathlib import Path

from symmaxent.harness import ExperimentConfig, run_sweep, write_outputs
from symmaxent.maxent import SolverOptions

SOLVER = SolverOptions(tolerance=1e-14, max_iterations=400)

RUNS = (
    ("pi_plain", "permutation_invariant_mixed", "none"),
    ("pi_symmetric", "permutation_invariant_mixed", "permutation"),
    ("werner_plain", "werner", "none"),
    ("werner_symmetric", "werner", "werner"),
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--batch-size", type=int, default=100)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--observable-kind", choices=("pauli", "sic"), default="sic")
    ap.add_argument("--out", type=Path, default=Path("results/symmetry"))
    args = ap.parse_args()

    for name, family, sym in RUNS:
        cfg = ExperimentConfig(
            state_family=family,
            observable_kind=args.observable_kind,
            symmetry=sym,
            batch_size=args.batch_size,
            r_values=tuple(range(1, 64)),
            solver=SOLVER,
            seed=args.seed,
            shuffle_observables=True,
        )
        result = run_sweep(cfg)
        outdir = args.out / name
        write_outputs(result, outdir)
        crossing = min((row.r for row in result.summary if row.mean_f >= 0.95), default=None)
        top = max(row.mean_f for row in result.summary)
        print(f"{name}: first r with mean F >= 0.95: {crossing}; best mean F {top:.5f}")


if __name__ == "__main__":
    main()
