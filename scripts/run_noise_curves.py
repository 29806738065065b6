#!/usr/bin/env python3
"""Symmetry-constrained estimation of pure permutation-invariant states
under the pulsed attenuated-laser acquisition model (mean photon number mu,
Poissonian dark counts), for several pulse counts and source purities."""

import argparse
from pathlib import Path

from symmaxent.harness import ExperimentConfig, run_sweep, write_outputs
from symmaxent.maxent import SolverOptions
from symmaxent.measurement import NoiseConfig

SOLVER = SolverOptions(tolerance=1e-10, max_iterations=400)

# purity 0.97 of a 3-qubit white-noise mixture corresponds to eta ~ 0.0173
ETA_PURITY_097 = 0.0173


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--batch-size", type=int, default=50)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--mu", type=float, default=0.18)
    ap.add_argument("--out", type=Path, default=Path("results/noise"))
    args = ap.parse_args()

    panels = (
        ("pure_dc2e-4", 0.0, 2e-4, (10_000, 30_000, 50_000)),
        ("purity097_dc5e-4", ETA_PURITY_097, 5e-4, (10_000, 30_000, 50_000)),
    )
    grid = (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 63)
    for name, eta, lambda_dc, trial_counts in panels:
        for trials in trial_counts:
            cfg = ExperimentConfig(
                state_family="permutation_invariant",
                observable_kind="sic",
                symmetry="permutation",
                batch_size=args.batch_size,
                r_values=grid,
                noise=NoiseConfig(
                    mode="photon_model",
                    eta=eta,
                    mu=args.mu,
                    lambda_dc=lambda_dc,
                    trials=trials,
                ),
                solver=SOLVER,
                seed=args.seed,
            )
            result = run_sweep(cfg)
            outdir = args.out / name / f"trials_{trials}"
            write_outputs(result, outdir)
            full = result.summary[-1]
            print(f"{name} trials={trials}: mean F at full r = {full.mean_f:.5f}")


if __name__ == "__main__":
    main()
