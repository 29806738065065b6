#!/usr/bin/env python3
"""Three-qubit fidelity-vs-r curves for one of the paper's experiments.

unbiased: Haar-random pure states from Pauli and from SIC product
observables, each state in its own random observable order.
symmetry: the permutation-invariant (mixed) and Werner families, each with
and without its symmetry declared, over the same states.
noise: permutation-invariant states, pure and of purity 0.97, under the
pulsed attenuated-laser acquisition model (mean photon number 0.18,
Poissonian dark counts) at three pulse counts each.

Writes one result/summary/meta triple per run under --out/<run> and prints
the first r with mean fidelity >= 0.95 and the mean fidelity at the top r."""

import argparse
from pathlib import Path

from symmaxent.harness import ExperimentConfig, run_sweep, write_outputs
from symmaxent.maxent import SolverOptions
from symmaxent.measurement import NoiseConfig

ALL_R = tuple(range(1, 64))

# experiment: (default batch size, {output subdirectory: ExperimentConfig fields})
EXPERIMENTS = {
    "unbiased": (100, {
        kind: dict(state_family="haar_pure", observable_kind=kind, r_values=ALL_R,
                   solver=SolverOptions(tolerance=1e-12, max_iterations=400),
                   shuffle_observables=True)
        for kind in ("pauli", "sic")
    }),
    "symmetry": (100, {
        name: dict(state_family=family, observable_kind="sic", symmetry=sym, r_values=ALL_R,
                   solver=SolverOptions(tolerance=1e-14, max_iterations=400),
                   shuffle_observables=True)
        for name, family, sym in (
            ("pi_plain", "permutation_invariant_mixed", "none"),
            ("pi_symmetric", "permutation_invariant_mixed", "permutation"),
            ("werner_plain", "werner", "none"),
            ("werner_symmetric", "werner", "werner"),
        )
    }),
    "noise": (50, {
        f"{panel}/trials_{trials}": dict(
            state_family="permutation_invariant", observable_kind="sic", symmetry="permutation",
            r_values=(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 63),
            noise=NoiseConfig(mode="photon_model", eta=eta, mu=0.18, lambda_dc=lambda_dc,
                              trials=trials),
            solver=SolverOptions(tolerance=1e-10, max_iterations=400))
        # eta = 0.0173 mixes in white noise down to purity 0.97 at three qubits
        for panel, eta, lambda_dc in (("pure_dc2e-4", 0.0, 2e-4),
                                      ("purity097_dc5e-4", 0.0173, 5e-4))
        for trials in (10_000, 30_000, 50_000)
    }),
}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("experiment", choices=EXPERIMENTS)
    ap.add_argument("--batch-size", type=int, help="states per run (default: per experiment)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, help="default: results/<experiment>")
    args = ap.parse_args(argv)
    default_batch, runs = EXPERIMENTS[args.experiment]
    batch_size = default_batch if args.batch_size is None else args.batch_size
    out = args.out or Path("results", args.experiment)
    for subdir, fields in runs.items():
        result = run_sweep(ExperimentConfig(**fields, batch_size=batch_size, seed=args.seed))
        write_outputs(result, out / subdir)
        crossing = min((row.r for row in result.summary if row.mean_f >= 0.95), default=None)
        top = result.summary[-1]
        print(f"{subdir}: first r with mean F >= 0.95: {crossing}; "
              f"mean F at r = {top.r}: {top.mean_f:.5f}")


if __name__ == "__main__":
    main()
