"""Golden sweep records: every record of three benchmark-shaped sweeps and
one werner sweep, compared exactly with the values committed in
``golden_records.json``.

Three sweeps have the shapes of the benchmark workloads (SIC observables on
Haar-random pure states without symmetry; on mixed permutation-invariant
four-qubit states; and photon-model counts on permutation-invariant pure
states). The fourth measures finite-sample SIC data on four-qubit Werner
states under werner symmetry, in a shuffled order per state, so each state
filters its own order numerically and gathers its own rows. Each runs ten
states at one fixed seed. Each record is kept as
``[state_id, r, fidelity.hex(), converged, iterations]``, so any change in
the sweep's numbers, at any digit, fails here with a report of what moved.

A change that moves records on purpose re-records the file with
``python scripts/record_golden_records.py`` and says which records moved
and why.
"""

import json
from pathlib import Path

import pytest

from symmaxent.harness import ExperimentConfig, run_single_state
from symmaxent.maxent import SolverOptions
from symmaxent.measurement import NoiseConfig

GOLDEN = Path(__file__).with_name("golden_records.json")
N_STATES = 10
SEED = 7

CONFIGS = {
    "unbiased_sic": ExperimentConfig(
        n_qubits=3,
        observable_kind="sic",
        state_family="haar_pure",
        r_values=tuple(range(2, 51, 2)) + (55, 60, 63),
        solver=SolverOptions(tolerance=1e-12, max_iterations=400),
        shuffle_observables=True,
        batch_size=N_STATES,
        seed=SEED,
    ),
    "symmetric_n4": ExperimentConfig(
        n_qubits=4,
        observable_kind="sic",
        symmetry="permutation",
        state_family="permutation_invariant_mixed",
        r_values=tuple(range(2, 35, 4)),
        solver=SolverOptions(tolerance=1e-14, max_iterations=400),
        shuffle_observables=True,
        batch_size=N_STATES,
        seed=SEED,
    ),
    "noisy_photon": ExperimentConfig(
        n_qubits=3,
        observable_kind="sic",
        symmetry="permutation",
        state_family="permutation_invariant",
        r_values=(63,),
        noise=NoiseConfig(mode="photon_model", mu=0.18, lambda_dc=2e-4, trials=10_000),
        solver=SolverOptions(tolerance=1e-10, max_iterations=400),
        batch_size=N_STATES,
        seed=SEED,
    ),
    "shuffled_werner": ExperimentConfig(
        n_qubits=4,
        observable_kind="sic",
        symmetry="werner",
        state_family="werner",
        # the werner filter keeps 14 SIC projections at four qubits; r = 20
        # measures all of them
        r_values=(2, 4, 7, 10, 13, 20),
        noise=NoiseConfig(mode="finite_sample", trials=10_000),
        solver=SolverOptions(tolerance=1e-12, max_iterations=400),
        shuffle_observables=True,
        batch_size=N_STATES,
        seed=SEED,
    ),
}


def sweep_records(name: str) -> list[list]:
    """Every record of sweep ``name``, in state and sweep order, as
    ``[state_id, r, fidelity.hex(), converged, iterations]``."""
    cfg = CONFIGS[name]
    return [
        [rec.state_id, rec.r, rec.fidelity.hex(), rec.converged, rec.iterations]
        for state_id in range(cfg.batch_size)
        for rec in run_single_state(cfg, state_id)
    ]


def diff_report(golden: list[list], now: list[list]) -> str:
    """What moved between two record lists keyed by (state_id, r): the
    count of moved records, the max and mean |dF| over them, and the counts
    of changed iteration counts and converged flags."""
    old = {(s, r): rest for s, r, *rest in golden}
    new = {(s, r): rest for s, r, *rest in now}
    lines = []
    if old.keys() != new.keys():
        lines.append(f"{len(old.keys() - new.keys())} records missing, "
                     f"{len(new.keys() - old.keys())} unexpected")
    common = [key for key in old if key in new]
    moved = [key for key in common if old[key] != new[key]]
    df = [abs(float.fromhex(new[k][0]) - float.fromhex(old[k][0])) for k in moved]
    lines.append(f"{len(moved)} of {len(common)} records moved")
    if moved:
        lines.append(f"|dF| max {max(df):.3e}, mean {sum(df) / len(df):.3e}")
        lines.append(f"converged changed in {sum(old[k][1] != new[k][1] for k in moved)}, "
                     f"iterations in {sum(old[k][2] != new[k][2] for k in moved)}")
        lines.append(f"first moved (state_id, r): {moved[:5]}")
    return "\n".join(lines)


@pytest.mark.parametrize("name", CONFIGS)
def test_sweep_records_match_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    now = sweep_records(name)
    assert now == golden, f"{name} records differ from {GOLDEN.name}:\n" + diff_report(golden, now)


def test_diff_report_counts_what_moved():
    golden = [[0, 2, (0.5).hex(), True, 3], [0, 4, (0.75).hex(), True, 5]]
    now = [[0, 2, (0.5).hex(), True, 3], [0, 4, (0.5).hex(), False, 9]]
    report = diff_report(golden, now)
    assert "1 of 2 records moved" in report
    assert "|dF| max 2.500e-01, mean 2.500e-01" in report
    assert "converged changed in 1, iterations in 1" in report
    assert "records missing" not in diff_report(golden, golden)
    assert "1 records missing, 0 unexpected" in diff_report(golden, now[:1])
