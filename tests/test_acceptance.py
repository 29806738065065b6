"""Acceptance gate: every exit criterion, run end to end at its stated
tolerance, one printed pass line per criterion.

Batch sizes are desk-scaled (100 states per curve, 50 for the noisy runs).
All sweeps share one seed so paired comparisons (with/without symmetry
constraints) see identical state batches. Expected runtime: a few minutes.
"""

import functools

import numpy as np
import pytest

from symmaxent import linalg, states
from symmaxent.harness import ExperimentConfig, mean_fidelity_by_r, run_sweep
from symmaxent.maxent import MaxEntProblem, SolverOptions, gradient, objective, solve
from symmaxent.measurement import NoiseConfig, photon_number_statistics
from symmaxent.observables import expectation, pauli_basis, sic_povm
from symmaxent.symmetry import build_symmetry, filter_measured_observables

SEED = 20260809

SOLVER = SolverOptions(tolerance=1e-12, max_iterations=400)
SOLVER_TIGHT = SolverOptions(tolerance=1e-14, max_iterations=400)
SOLVER_NOISE = SolverOptions(tolerance=1e-10, max_iterations=400)

# shared sweep grid for the unbiased/biased comparisons (criteria 2 and 3)
GRID_SIC = tuple(range(2, 51, 2)) + (55, 60, 63)
GRID_PAULI = tuple(range(2, 41, 2)) + (45, 50, 55, 60, 63)
GRID_SYM_PI = tuple(range(2, 21, 2)) + (15, 19)
GRID_SYM_WERNER = (1, 2, 3, 4, 5)


def smallest_r_reaching(table: dict[int, float], level: float) -> int | None:
    return min((r for r, f in sorted(table.items()) if f >= level), default=None)


@functools.cache
def run_c1():
    return run_sweep(
        ExperimentConfig(
            state_family="haar_pure",
            observable_kind="pauli",
            batch_size=100,
            r_values=GRID_PAULI,
            solver=SOLVER,
            seed=SEED,
        )
    )


@functools.cache
def run_c2():
    return run_sweep(
        ExperimentConfig(
            state_family="haar_pure",
            observable_kind="sic",
            batch_size=100,
            r_values=GRID_SIC,
            solver=SOLVER,
            seed=SEED,
            shuffle_observables=True,
        )
    )


@functools.cache
def run_c3_pi():
    return run_sweep(
        ExperimentConfig(
            state_family="permutation_invariant_mixed",
            observable_kind="sic",
            batch_size=100,
            r_values=GRID_SIC,
            solver=SOLVER,
            seed=SEED,
            shuffle_observables=True,
        )
    )


@functools.cache
def run_c3_werner():
    return run_sweep(
        ExperimentConfig(
            state_family="werner",
            observable_kind="sic",
            batch_size=100,
            r_values=GRID_SIC,
            solver=SOLVER,
            seed=SEED,
            shuffle_observables=True,
        )
    )


@functools.cache
def run_c4():
    return run_sweep(
        ExperimentConfig(
            state_family="permutation_invariant_mixed",
            observable_kind="sic",
            symmetry="permutation",
            batch_size=100,
            r_values=GRID_SYM_PI,
            solver=SOLVER_TIGHT,
            seed=SEED,
            shuffle_observables=True,
        )
    )


@functools.cache
def run_c5():
    return run_sweep(
        ExperimentConfig(
            state_family="werner",
            observable_kind="sic",
            symmetry="werner",
            batch_size=100,
            r_values=GRID_SYM_WERNER,
            solver=SOLVER_TIGHT,
            seed=SEED,
            shuffle_observables=True,
        )
    )


@functools.cache
def run_c8(trials: int):
    return run_sweep(
        ExperimentConfig(
            state_family="permutation_invariant",
            observable_kind="sic",
            symmetry="permutation",
            batch_size=50,
            r_values=(63,),
            noise=NoiseConfig(
                mode="photon_model", eta=0.0, mu=0.18, lambda_dc=2e-4, trials=trials
            ),
            solver=SOLVER_NOISE,
            seed=SEED,
        )
    )


class TestCriterion1UnbiasedPauli:
    def test_mean_fidelity_curve(self):
        table = mean_fidelity_by_r(run_c1())
        crossing = smallest_r_reaching(table, 0.95)
        assert crossing is not None and crossing <= 40
        assert table[63] >= 0.99
        print(
            f"\nACCEPTANCE C1 PASS: Pauli unbiased curve reaches mean F >= 0.95 at "
            f"r = {crossing} (<= 40); mean F at r = 63 is {table[63]:.5f} (>= 0.99)"
        )


class TestCriterion2UnbiasedSic:
    def test_mean_fidelity_curve(self):
        table = mean_fidelity_by_r(run_c2())
        crossing = smallest_r_reaching(table, 0.95)
        assert crossing is not None and crossing <= 30
        print(
            f"\nACCEPTANCE C2 PASS: SIC unbiased curve reaches mean F >= 0.95 at "
            f"r = {crossing} (<= 30)"
        )


class TestCriterion3BiasedSourceDegradation:
    def test_symmetric_families_need_more_observables(self):
        unbiased = smallest_r_reaching(mean_fidelity_by_r(run_c2()), 0.95)
        pi = smallest_r_reaching(mean_fidelity_by_r(run_c3_pi()), 0.95)
        werner = smallest_r_reaching(mean_fidelity_by_r(run_c3_werner()), 0.95)
        assert pi is not None and werner is not None
        assert pi > unbiased
        assert werner > unbiased
        print(
            f"\nACCEPTANCE C3 PASS: symmetry-free estimation needs r = {pi} (PI) and "
            f"r = {werner} (Werner) to reach 0.95, both > unbiased r = {unbiased}"
        )


class TestCriterion4PermutationSymmetryGain:
    def test_mean_fidelity_with_symmetry(self):
        table = mean_fidelity_by_r(run_c4())
        crossing = smallest_r_reaching(table, 0.95)
        assert crossing is not None and crossing <= 20
        assert table[20] >= 0.999
        print(
            f"\nACCEPTANCE C4 PASS: with permutation symmetry, mean F >= 0.95 at "
            f"r = {crossing} (<= 20) and mean F at r = 20 is {table[20]:.6f} (>= 0.999)"
        )


class TestCriterion5WernerSymmetryGain:
    def test_mean_fidelity_with_symmetry(self):
        table = mean_fidelity_by_r(run_c5())
        crossing = smallest_r_reaching(table, 0.95)
        assert crossing is not None and crossing <= 5
        assert table[5] >= 0.999
        print(
            f"\nACCEPTANCE C5 PASS: with collective-unitary symmetry, mean F >= 0.95 "
            f"at r = {crossing} (<= 5) and mean F at r = 5 is {table[5]:.6f} (>= 0.999)"
        )


class TestCriterion6AuxiliaryCount:
    def test_exactly_44_for_three_qubit_permutation(self):
        aux = build_symmetry("permutation", 3).auxiliary
        assert len(aux) == 44
        print(
            "\nACCEPTANCE C6 PASS: permutation symmetry on 3 qubits yields exactly "
            f"{len(aux)} linearly independent auxiliary observables"
        )


class TestCriterion7PhotonModelCalibration:
    def test_pulse_fractions_at_mu_018(self):
        rng = np.random.default_rng(SEED)
        empty, multi = photon_number_statistics(0.18, 100_000, rng)
        assert empty == pytest.approx(np.exp(-0.18), abs=0.01)
        assert multi == pytest.approx(0.014, abs=0.005)
        print(
            f"\nACCEPTANCE C7 PASS: mu = 0.18 gives empty-pulse fraction {empty:.4f} "
            f"(oracle {np.exp(-0.18):.4f} +- 0.01) and multi-photon fraction "
            f"{multi:.4f} (0.014 +- 0.005)"
        )


class TestCriterion8NoiseRobustness:
    def test_fidelity_monotone_in_trials(self):
        means = {}
        for trials in (10_000, 30_000, 50_000):
            table = mean_fidelity_by_r(run_c8(trials))
            means[trials] = table[63]
        assert means[30_000] >= means[10_000] - 0.01
        assert means[50_000] >= means[30_000] - 0.01
        assert means[50_000] >= 0.90
        print(
            "\nACCEPTANCE C8 PASS: photon-model mean F at full r is "
            + ", ".join(f"{t//1000}k: {f:.4f}" for t, f in means.items())
            + " (monotone within 0.01; >= 0.90 at 50k pulses)"
        )


class TestCriterion9SolverCorrectness:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(SEED)
        paulis = list(pauli_basis(3))
        worst = 0.0
        for _ in range(50):
            rho = states.DensityMatrix(
                (lambda g: g @ g.conj().T / np.trace(g @ g.conj().T).real)(
                    rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
                )
            )
            idx = rng.choice(63, size=6, replace=False)
            ops = [paulis[int(i)] for i in idx]
            prob = MaxEntProblem(
                tuple((op, expectation(rho, op)) for op in ops), (), 8
            )
            lam = rng.normal(0.0, 0.5, 6)
            g = gradient(prob, lam)
            fd = np.array(
                [
                    (
                        objective(prob, lam + 1e-5 * e)
                        - objective(prob, lam - 1e-5 * e)
                    )
                    / 2e-5
                    for e in np.eye(6)
                ]
            )
            err = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
            worst = max(worst, err)
        assert worst <= 1e-5
        print(
            f"\nACCEPTANCE C9a PASS: analytic gradient matches central finite "
            f"differences on 50 random problems (worst relative error {worst:.2e})"
        )

    def test_full_data_reconstruction(self):
        rng = np.random.default_rng(SEED + 1)
        paulis = list(pauli_basis(3))
        opts = SolverOptions(tolerance=1e-18, max_iterations=300)
        worst = 1.0
        for _ in range(20):
            g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            m = g @ g.conj().T
            rho = states.DensityMatrix(m / np.trace(m).real)
            prob = MaxEntProblem(
                tuple((op, expectation(rho, op)) for op in paulis), (), 8
            )
            sol = solve(prob, opts)
            worst = min(worst, states.fidelity(rho, states.DensityMatrix(sol.rho)))
        assert worst >= 0.999
        print(
            f"\nACCEPTANCE C9b PASS: full 63-observable reconstruction of 20 random "
            f"full-rank states, worst fidelity {worst:.6f} (>= 0.999)"
        )

    def test_solution_commutes_with_generators(self):
        rng = np.random.default_rng(SEED + 2)
        worst = 0.0
        for kind, sampler in (
            ("permutation", lambda: states.haar_symmetric_pure(3, rng).density()),
            ("werner", lambda: states.random_werner(3, rng)),
        ):
            spec = build_symmetry(kind, 3)
            kept = filter_measured_observables(sic_povm(3), spec.auxiliary)
            for _ in range(10):
                rho = sampler()
                use = list(kept)[: max(3, len(kept) // 2)]
                prob = MaxEntProblem(
                    tuple((op, expectation(rho, op)) for op in use),
                    spec.auxiliary,
                    8,
                )
                sol = solve(prob, SOLVER_TIGHT)
                for gen in spec.generators:
                    worst = max(
                        worst,
                        np.linalg.norm(linalg.commutator(gen, sol.rho)),
                    )
        assert worst <= 1e-6
        print(
            f"\nACCEPTANCE C9c PASS: 20 symmetry-constrained solutions commute with "
            f"every group generator (worst commutator norm {worst:.2e} <= 1e-6)"
        )

    def test_zero_constraint_solve_is_maximally_mixed(self):
        sol = solve(MaxEntProblem((), (), 8), SOLVER)
        dev = np.max(np.abs(sol.rho - np.eye(8) / 8))
        assert dev <= 1e-12
        print(
            f"\nACCEPTANCE C9d PASS: zero-constraint solve returns the maximally "
            f"mixed state exactly (max entrywise deviation {dev:.2e})"
        )


class TestCriterion10ClosedFormOracle:
    def test_single_pauli_multiplier_matches_atanh(self):
        z = pauli_basis(1)[2]
        opts = SolverOptions(tolerance=1e-16)
        worst = 0.0
        for a in (0.0, 0.3, -0.3, 0.9, -0.9):
            prob = MaxEntProblem(((z, a),), (), 2)
            sol = solve(prob, opts)
            assert sol.converged
            worst = max(worst, abs(sol.lambdas[0] - np.arctanh(a)))
        assert worst <= 1e-6
        print(
            f"\nACCEPTANCE C10 PASS: single-Pauli multiplier matches atanh of the "
            f"target for a in {{0, +-0.3, +-0.9}} (worst |error| {worst:.2e} <= 1e-6)"
        )


class TestHarnessInvariants:
    def test_mean_fidelity_nondecreasing_in_r(self):
        # ideal-data runs: adjacent-r decreases beyond twice the standard
        # error must be rare (at most 10% of sweep points)
        result = run_c1()
        rows = sorted(result.summary, key=lambda row: row.r)
        violations = 0
        for prev, cur in zip(rows, rows[1:]):
            allowance = 2.0 * prev.std_f / np.sqrt(100)
            if cur.mean_f < prev.mean_f - allowance:
                violations += 1
        assert violations <= 0.1 * (len(rows) - 1)
        print(
            f"\nACCEPTANCE HARNESS PASS: mean fidelity non-decreasing in r "
            f"({violations} tolerated dips over {len(rows) - 1} steps)"
        )

    def test_symmetry_never_hurts_on_matching_family(self):
        # same seed, same states: the constrained run must match or beat the
        # unconstrained one at every shared r (within 0.02)
        pi_plain = mean_fidelity_by_r(run_c3_pi())
        pi_sym = mean_fidelity_by_r(run_c4())
        shared = sorted(set(pi_plain) & set(pi_sym))
        assert shared
        for r in shared:
            assert pi_sym[r] >= pi_plain[r] - 0.02
        werner_plain = mean_fidelity_by_r(run_c3_werner())
        werner_sym = mean_fidelity_by_r(run_c5())
        shared_w = sorted(set(werner_plain) & set(werner_sym))
        assert shared_w
        for r in shared_w:
            assert werner_sym[r] >= werner_plain[r] - 0.02
        print(
            "\nACCEPTANCE HARNESS PASS: symmetry-constrained means dominate the "
            f"plain runs at {len(shared) + len(shared_w)} shared sweep points"
        )

    def test_rerun_is_bit_identical(self):
        first = run_c5()
        again = run_sweep(
            ExperimentConfig(
                state_family="werner",
                observable_kind="sic",
                symmetry="werner",
                batch_size=100,
                r_values=GRID_SYM_WERNER,
                solver=SOLVER_TIGHT,
                seed=SEED,
                shuffle_observables=True,
            )
        )
        assert first.records == again.records
        print("\nACCEPTANCE HARNESS PASS: rerun with identical config and seed is bit-identical")
