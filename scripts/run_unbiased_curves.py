#!/usr/bin/env python3
"""Fidelity-vs-r curves for an unbiased source: Haar-random pure states
estimated from Pauli and from SIC product observables, no symmetry
constraints. Writes one result/summary/meta triple per observable kind."""

import argparse
from pathlib import Path

from symmaxent.harness import ExperimentConfig, run_sweep, write_outputs
from symmaxent.maxent import SolverOptions

SOLVER = SolverOptions(tolerance=1e-12, max_iterations=400)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--batch-size", type=int, default=100)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=Path("results/unbiased"))
    ap.add_argument(
        "--shuffle", action="store_true",
        help="per-state random observable order instead of the canonical one",
    )
    args = ap.parse_args()

    grid = tuple(range(1, 64))
    for kind in ("pauli", "sic"):
        cfg = ExperimentConfig(
            state_family="haar_pure",
            observable_kind=kind,
            batch_size=args.batch_size,
            r_values=grid,
            solver=SOLVER,
            seed=args.seed,
            shuffle_observables=args.shuffle,
        )
        result = run_sweep(cfg)
        outdir = args.out / kind
        write_outputs(result, outdir)
        crossing = min((row.r for row in result.summary if row.mean_f >= 0.95), default=None)
        print(f"{kind}: first r with mean F >= 0.95: {crossing}; files in {outdir}")


if __name__ == "__main__":
    main()
