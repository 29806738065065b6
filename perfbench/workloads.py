"""Named sweep workloads and the inputs each one derives from a seed.

Why each workload was chosen is recorded in ``BENCHMARK.json`` and, with the
layer shares from a traced run, in ``perfbench/README.md``.

A workload run is a sequence of chunks. Chunk ``c`` is one call to
``harness.run_sweep`` on a one-state batch whose sweep seed is derived from
``(seed, c)``, so every chunk sweeps a fresh state and the same seed always
yields the same chunk sequence. The per-state sweep time is heavy-tailed
(coefficient of variation about 0.4 on ``unbiased_sic``), so a run sweeps
as many fresh one-state chunks as its time allows, each once; the
benchmark's throughput is their count over their summed time, so that the
slow states count in full.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from symmaxent.harness import ExperimentConfig
from symmaxent.maxent import SolverOptions
from symmaxent.measurement import NoiseConfig


@dataclass(frozen=True)
class Workload:
    name: str
    n_qubits: int
    observable_kind: str
    symmetry: str
    fields: dict

    def config(self, sweep_seed: int, batch_size: int = 1) -> ExperimentConfig:
        return ExperimentConfig(
            n_qubits=self.n_qubits,
            observable_kind=self.observable_kind,
            symmetry=self.symmetry,
            batch_size=batch_size,
            seed=sweep_seed,
            **self.fields,
        )

    def chunk_seed(self, seed: int, chunk: int) -> int:
        """Sweep seed of chunk ``chunk`` of a run with workload seed ``seed``."""
        ss = np.random.SeedSequence([seed, chunk])
        return int(ss.generate_state(1, dtype=np.uint32)[0])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="unbiased_sic",
            n_qubits=3,
            observable_kind="sic",
            symmetry="none",
            fields=dict(
                state_family="haar_pure",
                r_values=tuple(range(2, 51, 2)) + (55, 60, 63),
                solver=SolverOptions(step_rule="newton", tolerance=1e-12, max_iterations=400),
                shuffle_observables=True,
            ),
        ),
        Workload(
            name="symmetric_n4",
            n_qubits=4,
            observable_kind="sic",
            symmetry="permutation",
            fields=dict(
                state_family="permutation_invariant_mixed",
                r_values=tuple(range(2, 35, 4)),
                solver=SolverOptions(step_rule="newton", tolerance=1e-14, max_iterations=400),
                shuffle_observables=True,
            ),
        ),
        Workload(
            name="noisy_photon",
            n_qubits=3,
            observable_kind="sic",
            symmetry="permutation",
            fields=dict(
                state_family="permutation_invariant",
                r_values=(63,),
                noise=NoiseConfig(mode="photon_model", mu=0.18, lambda_dc=2e-4, trials=10_000),
                solver=SolverOptions(step_rule="newton", tolerance=1e-10, max_iterations=400),
            ),
        ),
    )
}
