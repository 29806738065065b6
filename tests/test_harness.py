import dataclasses
import math
import pickle

import numpy as np
import pytest

from symmaxent import harness, linalg, maxent, measurement, observables, states, symmetry
from symmaxent.harness import (
    ExperimentConfig,
    StateRunRecord,
    mean_fidelity_by_r,
    read_result_csv,
    run_single_state,
    run_sweep,
    summarize,
    worker_count,
    write_outputs,
)
from symmaxent.maxent import MaxEntProblem, SolverOptions, solve
from symmaxent.measurement import NoiseConfig
from symmaxent.observables import sic_povm

from conftest import full_state


FAST_NEWTON = SolverOptions(tolerance=1e-12, max_iterations=300)


def small_config(**kwargs):
    defaults = dict(
        state_family="werner",
        observable_kind="sic",
        symmetry="none",
        batch_size=3,
        r_values=(2, 5),
        solver=FAST_NEWTON,
        seed=99,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def sample_target(cfg, state_id):
    """The target ``run_single_state`` draws for ``state_id``."""
    stream = harness._stream(cfg.seed, state_id, 0)
    return states.sample(
        cfg.state_family, cfg.n_qubits, stream, cfg.noise.eta, cfg.dicke_excitations
    )


class TestConfigValidation:
    def test_r_values_default_full_range(self):
        cfg = ExperimentConfig(batch_size=1)
        assert cfg.r_values == tuple(range(1, 64))

    def test_r_value_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            ExperimentConfig(r_values=(64,))

    def test_duplicate_r_value_rejected(self):
        # a repeated r would be solved twice and counted twice in its row
        with pytest.raises(ValueError, match="duplicate r value 3"):
            ExperimentConfig(r_values=(1, 2, 3, 3))

    def test_unknown_family(self):
        # names outside ``states.FAMILIES``
        for family in ("thermal", "Haar_pure", "dicke(1)"):
            with pytest.raises(ValueError) as err:
                ExperimentConfig(state_family=family)
            assert str(err.value) == f"unknown state_family {family!r}"

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(seed=-1)

    @pytest.mark.parametrize(
        "fields, named",
        [
            (dict(symmetry="permutation"), "symmetry 'permutation'"),
            (dict(state_family="permutation_invariant_mixed"), "state_family"),
            (dict(state_family="ghz"), "state_family"),
        ],
    )
    def test_one_qubit_rejected_where_two_are_needed(self, fields, named):
        # rejected at construction, naming the field, rather than inside the
        # first state of the sweep
        with pytest.raises(ValueError, match=named):
            ExperimentConfig(n_qubits=1, r_values=(1,), **fields)

    @pytest.mark.parametrize("family", sorted(states.FAMILIES))
    def test_families_are_the_table(self, family):
        least = states.FAMILIES[family][0]
        assert ExperimentConfig(n_qubits=least, state_family=family, batch_size=1).n_qubits == least
        if least > 1:
            with pytest.raises(ValueError) as err:
                ExperimentConfig(n_qubits=least - 1, state_family=family)
            assert str(err.value) == f"state_family {family!r} needs n_qubits >= {least}"

    def test_one_qubit_werner_accepted(self):
        cfg = ExperimentConfig(n_qubits=1, state_family="werner", symmetry="werner")
        assert cfg.r_values == (1, 2, 3)

    @pytest.mark.parametrize(
        "fields, named",
        [
            (dict(r_values=(2.5, 7.9)), "r value must be an integer, got 2.5"),
            (dict(r_values=(3, True)), "r value must be an integer, got True"),
            (dict(batch_size=2.5), "batch_size must be an integer"),
            (dict(n_qubits=2.0), "n_qubits must be an integer"),
            (dict(n_qubits=True), "n_qubits must be an integer"),
            (dict(dicke_excitations=1.0), "dicke_excitations must be an integer"),
            (dict(seed=7.5), "seed must be an integer"),
            (dict(seed="7"), "seed must be an integer"),
        ],
    )
    def test_non_integral_integer_fields_rejected(self, fields, named):
        # rejected, not truncated, and not left to fail inside the sweep
        with pytest.raises(ValueError, match=named):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize(
        "fields, named",
        [
            # a non-empty string is truthy: "no" would shuffle
            (dict(shuffle_observables="no"), "shuffle_observables must be a bool, got 'no'"),
            (dict(shuffle_observables=1), "shuffle_observables must be a bool, got 1"),
            (dict(solver={"tolerance": 1e-9}), "solver must be a SolverOptions"),
            (dict(noise="ideal"), "noise must be a NoiseConfig, got 'ideal'"),
            (dict(r_values=5), "r_values must be a sequence of integers, got 5"),
            (dict(r_values="5"), "r_values must be a sequence of integers, got '5'"),
        ],
    )
    def test_wrongly_typed_fields_rejected(self, fields, named):
        # a ValueError at construction, not a TypeError or a failure inside
        # the sweep
        with pytest.raises(ValueError, match=named):
            ExperimentConfig(**fields)

    def test_r_values_generator_read_once(self):
        assert ExperimentConfig(r_values=(r for r in (2, 5))).r_values == (2, 5)

    def test_numpy_bool_shuffle_becomes_bool(self):
        assert ExperimentConfig(shuffle_observables=np.bool_(True)).shuffle_observables is True

    def test_numpy_integers_become_ints(self, monkeypatch, tmp_path):
        # a numpy integer n_qubits failed inside the first state, and a numpy
        # seed in writing meta.json
        monkeypatch.setenv("SYMMAXENT_THREADS", "1")
        cfg = ExperimentConfig(
            n_qubits=np.int64(2), batch_size=np.int64(1), r_values=(np.int64(3), 15),
            seed=np.uint32(7),
        )
        assert cfg.r_values == (3, 15)
        assert all(type(r) is int for r in cfg.r_values)
        assert all(type(getattr(cfg, name)) is int for name in ("n_qubits", "batch_size", "seed"))
        write_outputs(run_sweep(cfg), tmp_path)


def per_r_records(cfg, state_id):
    """A state's records computed the way the sweep did before a state was
    one pass: every observable acquired alone, as a batch of one, each
    drawing its counts from the state's one counts stream in turn, and for
    every distinct k = min(r, kept), in ascending
    order, a problem built afresh on the first k targets and solved. A solve
    starts from the last k's multipliers, padded with zeros, when that solve
    stopped on tolerance with its estimate's smallest eigenvalue above
    sqrt(tolerance), and from zeros otherwise. Each estimate is expanded to
    the full space and scored there. Returns the records and, for each
    distinct k, whether its solve was seeded."""
    context = harness._observable_context(cfg.observable_kind, cfg.n_qubits, cfg.symmetry)
    rho = sample_target(cfg, state_id)
    order = list(range(len(context.candidates)))
    if cfg.shuffle_observables:
        harness._stream(cfg.seed, state_id, 1).shuffle(order)
    if cfg.symmetry != "none":
        order = context.independent(order)
    measured, variances = [], []
    rng = harness._stream(cfg.seed, state_id, 2)
    for i in order[: max(cfg.r_values)]:
        op = context.candidates[i]
        modes = measurement.projector_modes(op)
        counts = measurement.simulate_counts(rho, modes, cfg.noise, rng)
        (target,), (variance,) = measurement.estimate_expectations(counts, modes, cfg.noise)
        measured.append((op, float(target)))
        variances.append(float(variance))
    fields, seeded, lambda0 = {}, [], None
    for k in sorted({min(r, len(order)) for r in cfg.r_values}):
        problem = symmetry.compressed_problem(tuple(measured[:k]), cfg.symmetry, cfg.n_qubits,
                                              variances[:k])
        if lambda0 is not None:
            lambda0 = list(lambda0) + [0.0] * (k - len(lambda0))
        seeded.append(lambda0 is not None)
        solution = solve(problem, cfg.solver, lambda0)
        estimate = full_state(solution.rho, cfg.n_qubits, cfg.symmetry)
        fields[k] = states.fidelity(rho, estimate), solution.converged, solution.iterations
        smallest = np.linalg.eigvalsh(estimate.matrix)[0]
        full_rank = smallest > math.sqrt(cfg.solver.tolerance)
        lambda0 = solution.lambdas if solution.stop_reason == "tolerance" and full_rank else None
    records = [StateRunRecord(state_id, r, *fields[min(r, len(order))]) for r in cfg.r_values]
    return records, seeded


# the (family, symmetry) pairs whose targets commute with the group
COMMUTING = [
    ("permutation_invariant", "permutation"),
    ("permutation_invariant_mixed", "permutation"),
    ("ghz", "permutation"),
    ("dicke", "permutation"),
    ("werner", "werner"),
]


def score_tolerance(family, kind, eta):
    """How far a sweep's fidelity may sit from the full-space score: 0 where
    the sweep scores on the full space; on the blocks, which score every
    target under symmetry "none", 1e-12 for a mixed target and 2e-8 for a
    pure one, whose score carries ``psd_sqrtm``'s rank-1 rounding."""
    if kind != "none" and (family, kind) not in COMMUTING:
        return 0.0
    pure = eta == 0.0 and family not in ("permutation_invariant_mixed", "werner")
    return 2e-8 if pure else 1e-12


def assert_records_match(records, want, tolerance):
    """Records equal but for fidelities within ``tolerance``."""
    assert [(rec.state_id, rec.r, rec.converged, rec.iterations) for rec in records] == [
        (rec.state_id, rec.r, rec.converged, rec.iterations) for rec in want]
    for rec, ref in zip(records, want):
        assert abs(rec.fidelity - ref.fidelity) <= tolerance


# each config with the distinct k = min(r, kept) its states solve
PER_R_CONFIGS = {
    "sic_permutation": (small_config(
        state_family="permutation_invariant", symmetry="permutation", batch_size=2,
        r_values=(6, 19, 25, 2, 63),
        noise=NoiseConfig(mode="photon_model", mu=0.18, lambda_dc=2e-4, trials=10_000),
    ), [2, 6, 19]),
    "pauli_none": (small_config(
        state_family="haar_pure", observable_kind="pauli", batch_size=2, shuffle_observables=True,
        r_values=(3, 12, 40, 63), noise=NoiseConfig(mode="finite_sample", trials=1_000),
    ), [3, 12, 40, 63]),
    "pauli_werner": (small_config(
        observable_kind="pauli", symmetry="werner", batch_size=2, shuffle_observables=True,
        r_values=(2, 4, 25, 63), noise=NoiseConfig(mode="finite_sample", trials=1_000),
    ), [2, 4]),
}


class TestSweep:
    def test_deterministic_rerun(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SYMMAXENT_THREADS", "1")
        cfg = small_config(
            noise=NoiseConfig(mode="finite_sample", trials=200),
        )
        res1 = run_sweep(cfg)
        res2 = run_sweep(cfg)
        for p1, p2 in zip(write_outputs(res1, tmp_path / "a"), write_outputs(res2, tmp_path / "b")):
            assert p1.read_bytes() == p2.read_bytes()

    def test_parallel_matches_serial(self, monkeypatch):
        cfg = small_config(batch_size=4)
        monkeypatch.setenv("SYMMAXENT_THREADS", "1")
        serial = run_sweep(cfg)
        monkeypatch.setenv("SYMMAXENT_THREADS", "2")
        parallel = run_sweep(cfg)
        assert serial.records == parallel.records

    def test_parallel_matches_serial_on_noisy_symmetric_solves(self, monkeypatch):
        # photon-model targets under a declared symmetry fit no state, but
        # their variances regularise the dual: every solve reaches the
        # tolerance, in the workers as in one process
        cfg = small_config(
            state_family="permutation_invariant",
            symmetry="permutation",
            batch_size=4,
            r_values=(10, 19),
            noise=NoiseConfig(mode="photon_model", mu=0.18, lambda_dc=2e-4, trials=10_000),
        )
        monkeypatch.setenv("SYMMAXENT_THREADS", "1")
        serial = run_sweep(cfg)
        monkeypatch.setenv("SYMMAXENT_THREADS", "2")
        parallel = run_sweep(cfg)
        assert serial.records == parallel.records
        assert all(rec.converged for rec in serial.records)
        assert all(rec.iterations < SolverOptions().max_iterations for rec in serial.records)

    def test_r_zero_gives_maximally_mixed_fidelity(self, monkeypatch, rng):
        monkeypatch.setenv("SYMMAXENT_THREADS", "1")
        cfg = small_config(state_family="haar_pure", r_values=(0,), batch_size=2)
        res = run_sweep(cfg)
        mixed = states.DensityMatrix(np.eye(8) / 8)
        for rec in res.records:
            rho = states.add_white_noise(
                states.haar_pure(
                    3, np.random.default_rng(np.random.SeedSequence([cfg.seed, rec.state_id, 0]))
                ),
                0.0,
            )
            assert rec.fidelity == pytest.approx(states.fidelity(rho, mixed), abs=1e-9)
            assert rec.iterations == 0

    def test_full_set_reconstructs_mixed_states(self, monkeypatch):
        monkeypatch.setenv("SYMMAXENT_THREADS", "1")
        cfg = small_config(
            state_family="werner",
            observable_kind="pauli",
            r_values=(63,),
            solver=SolverOptions(tolerance=1e-18, max_iterations=300),
        )
        res = run_sweep(cfg)
        assert all(rec.fidelity >= 0.999 for rec in res.records)

    def test_ghz_batch_zero_std(self, monkeypatch):
        monkeypatch.setenv("SYMMAXENT_THREADS", "1")
        cfg = small_config(state_family="ghz", observable_kind="pauli", r_values=(10,))
        res = run_sweep(cfg)
        assert res.summary[0].std_f == pytest.approx(0.0, abs=1e-12)

    def test_dicke_family(self, monkeypatch):
        monkeypatch.setenv("SYMMAXENT_THREADS", "1")
        cfg = small_config(
            state_family="dicke", dicke_excitations=2, batch_size=2, r_values=(5,)
        )
        res = run_sweep(cfg)
        assert len(res.records) == 2

    def test_symmetry_filtering_caps_r(self, monkeypatch):
        # the werner-filtered SIC list has 5 entries; any larger r uses all 5
        monkeypatch.setenv("SYMMAXENT_THREADS", "1")
        cfg = small_config(symmetry="werner", r_values=(5, 40, 63), batch_size=2)
        res = run_sweep(cfg)
        by_state = {}
        for rec in res.records:
            by_state.setdefault(rec.state_id, []).append(rec.fidelity)
        for fids in by_state.values():
            assert fids[0] == pytest.approx(fids[1], abs=1e-9)
            assert fids[1] == pytest.approx(fids[2], abs=1e-9)

    def test_five_qubit_permutation_sweep_converges(self, monkeypatch):
        # the commutant is 56-dimensional: the filter keeps 55 SIC projections,
        # which with the trace pin the state, so r = 56 reconstructs it
        monkeypatch.setenv("SYMMAXENT_THREADS", "1")
        cfg = small_config(
            n_qubits=5,
            state_family="permutation_invariant_mixed",
            symmetry="permutation",
            batch_size=2,
            r_values=(56,),
            solver=SolverOptions(tolerance=1e-18, max_iterations=300),
        )
        res = run_sweep(cfg)
        assert len(res.records) == 2
        assert all(rec.converged and rec.fidelity >= 1 - 1e-8 for rec in res.records)

    def test_symmetric_solves_constrain_projected_observables_only(self, monkeypatch):
        # each solve constrains the first r filtered canonical operators, as
        # they are, with the symmetry declared and no auxiliaries: its rows
        # are those of compressed_problem on exactly those operators, which
        # constrains their commutant projections (checked in test_maxent)
        harness._observable_context.cache_clear()
        solved = []
        real_solve = harness.solve

        def spy(problem, options, lambda0=None):
            solved.append(problem)
            return real_solve(problem, options, lambda0)

        monkeypatch.setattr(harness, "solve", spy)
        cfg = small_config(
            state_family="permutation_invariant_mixed", symmetry="permutation",
            r_values=(3, 19, 30), batch_size=1,
        )
        run_single_state(cfg, 0)
        sic = list(sic_povm(3))
        kept = [sic[i] for i in symmetry.independent_projections(sic, "permutation", 3)]
        # r = 30 maps to the same 19 kept observables as r = 19, solved once
        assert [p.n_constraints for p in solved] == [3, 19]
        for problem in solved:
            k = problem.n_constraints
            want = symmetry.compressed_problem(
                tuple((op, 0.0) for op in kept[:k]), "permutation", 3)
            for got, ref in zip((*problem._rows, problem._cols), (*want._rows, want._cols)):
                assert np.array_equal(got, ref)
            assert np.array_equal(problem.log_weights, want.log_weights)

    def test_one_problem_per_state(self, monkeypatch):
        # one problem per measured order, gathered with zero targets from
        # the canonical problem: every state, the first included, solves
        # leading slices of it re-targeted with its own data, in ascending
        # k. The werner commutant at n = 3 keeps 5 SIC projections, so r = 30
        # solves 5
        harness._observable_context.cache_clear()
        gathered, solved = [], []
        real_take, real_solve = MaxEntProblem.take, harness.solve

        def take(problem, indices):
            gathered.append(real_take(problem, indices))
            return gathered[-1]

        def spy(problem, options, lambda0=None):
            solved.append(problem)
            return real_solve(problem, options, lambda0)

        monkeypatch.setattr(MaxEntProblem, "take", take)
        monkeypatch.setattr(harness, "solve", spy)
        cfg = small_config(symmetry="werner", r_values=(2, 4, 30, 3), batch_size=1)
        for state_id in (0, 1):
            run_single_state(cfg, state_id)
        assert len(gathered) == 1 and len(gathered[0].operators) == 5
        assert not gathered[0].targets.any()
        assert [p.n_constraints for p in solved] == [2, 3, 4, 5] * 2
        for problem in solved:
            k = problem.n_constraints
            assert np.array_equal(problem.operators, gathered[0].operators[:k])
            assert np.shares_memory(problem.operators, gathered[0].operators)
            for got, parent in zip((*problem._rows, problem._cols),
                                   (*gathered[0]._rows, gathered[0]._cols)):
                assert np.shares_memory(got, parent)
        # each state solves its own targets; reading the order back builds nothing
        context = harness._observable_context("sic", 3, "werner")
        kept = context.measured(range(63), 30, False).kept
        assert len(gathered) == 1
        for state_id in (0, 1):
            rho = sample_target(cfg, state_id)
            own = [observables.expectation(rho, context.candidates[i]) for i in kept]
            assert np.array_equal(solved[4 * state_id + 3].targets, own)
        assert not np.array_equal(solved[3].targets, solved[7].targets)

    @pytest.mark.parametrize("cfg", ["sic_permutation", "pauli_none", "pauli_werner"])
    def test_records_match_per_observable_acquisition_and_per_r_solves(self, monkeypatch, cfg):
        # the one-pass state against each observable acquired alone, in
        # order, from one shared counts stream, and a fresh problem built
        # and solved for every distinct k, seeded by the same rule on the
        # full-space estimate and scored there: the same seeding, flags and
        # counts, and the fidelities bit for bit where the sweep scores on
        # the full space. The permutation and werner sweeps keep 19 and 4
        # observables, so there r = 25 and 63 repeat the full problem, which
        # the state solves once
        cfg, distinct = PER_R_CONFIGS[cfg]
        solved, seeded = [], []
        real_solve = harness.solve

        def spy(problem, options, lambda0=None):
            solved.append(problem.n_constraints)
            seeded.append(lambda0 is not None)
            return real_solve(problem, options, lambda0)

        monkeypatch.setattr(harness, "solve", spy)
        tolerance = score_tolerance(cfg.state_family, cfg.symmetry, cfg.noise.eta)
        for state_id in range(cfg.batch_size):
            solved.clear()
            seeded.clear()
            records = run_single_state(cfg, state_id)
            want, want_seeded = per_r_records(cfg, state_id)
            assert solved == distinct
            assert seeded == want_seeded
            assert_records_match(records, want, tolerance)

    @pytest.mark.parametrize("noise", [
        NoiseConfig(mode="finite_sample", trials=1_000),
        NoiseConfig(mode="photon_model", mu=0.18, lambda_dc=2e-4, trials=10_000),
    ], ids=["finite_sample", "photon_model"])
    def test_noisy_record_does_not_depend_on_the_other_r_values(self, noise):
        # r = 6 alone acquires 6 observables, with 19 and 63 beside it all
        # 63; the first 6 draw the same counts either way
        alone = small_config(observable_kind="pauli", r_values=(6,), noise=noise, batch_size=2)
        grid = dataclasses.replace(alone, r_values=(6, 19, 63))
        for state_id in range(alone.batch_size):
            assert run_single_state(alone, state_id) == run_single_state(grid, state_id)[:1]

    @pytest.mark.parametrize("cfg", [
        small_config(state_family="haar_pure", r_values=tuple(range(2, 51, 4)) + (63,),
                     shuffle_observables=True, batch_size=2),
        small_config(state_family="permutation_invariant_mixed", symmetry="permutation",
                     r_values=(2, 6, 10, 14, 19), shuffle_observables=True, batch_size=2),
    ], ids=["sic_none", "sic_permutation"])
    def test_seeded_records_stay_near_cold_solves(self, monkeypatch, cfg):
        # a seeded prefix lands within 1e-4 in fidelity of the same prefix
        # solved from zeros and scored on the full space, and an unseeded
        # one is that cold solve, its fidelity within the block scoring's
        # tolerance; pure targets give both kinds, mixed symmetric ones
        # seeded only
        calls = []
        real_solve = harness.solve

        def spy(problem, options, lambda0=None):
            calls.append((problem, lambda0 is not None))
            return real_solve(problem, options, lambda0)

        monkeypatch.setattr(harness, "solve", spy)
        n_seeded = 0
        tolerance = score_tolerance(cfg.state_family, cfg.symmetry, cfg.noise.eta)
        for state_id in range(cfg.batch_size):
            calls.clear()
            records = {rec.r: rec for rec in run_single_state(cfg, state_id)}
            rho = sample_target(cfg, state_id)
            for problem, seeded in calls:
                rec = records[problem.n_constraints]
                cold = real_solve(problem, cfg.solver)
                cold_fid = states.fidelity(rho, full_state(cold.rho, cfg.n_qubits, cfg.symmetry))
                if seeded:
                    n_seeded += 1
                    assert rec.converged
                    assert abs(rec.fidelity - cold_fid) <= 1e-4
                else:
                    assert (rec.converged, rec.iterations) == (cold.converged, cold.iterations)
                    assert abs(rec.fidelity - cold_fid) <= tolerance
        assert n_seeded > 0
        if cfg.state_family == "haar_pure":
            assert n_seeded < len(calls) * cfg.batch_size

    def test_unsorted_grid_seeds_in_ascending_k(self, monkeypatch):
        # the grid is solved as k = 2, 6, 19, 25, 63, each from zeros or
        # from the previous k's multipliers padded with zeros; the pure
        # target's estimates are full rank up to k = 19 and rank-deficient
        # from there on, so k = 25 and 63 start from zeros
        calls = []
        real_solve = harness.solve

        def spy(problem, options, lambda0=None):
            solution = real_solve(problem, options, lambda0)
            calls.append((problem.n_constraints, lambda0, solution))
            return solution

        monkeypatch.setattr(harness, "solve", spy)
        cfg = small_config(state_family="haar_pure", r_values=(6, 19, 25, 2, 63),
                           shuffle_observables=True, batch_size=1)
        records = run_single_state(cfg, 0)
        assert [rec.r for rec in records] == [6, 19, 25, 2, 63]
        assert [k for k, _, _ in calls] == [2, 6, 19, 25, 63]
        assert calls[0][1] is None
        for (_, _, previous), (k, lambda0, _) in zip(calls, calls[1:]):
            if lambda0 is not None:
                padded = np.zeros(k)
                padded[: previous.lambdas.size] = previous.lambdas
                assert np.array_equal(lambda0, padded)
        assert [lambda0 is not None for _, lambda0, _ in calls] == [
            False, True, True, False, False]

    def test_noisy_sweep_with_no_observable(self, monkeypatch):
        monkeypatch.setenv("SYMMAXENT_THREADS", "1")
        cfg = small_config(r_values=(0, 2), noise=NoiseConfig(mode="finite_sample", trials=500))
        records = run_sweep(cfg).records
        assert [rec.r for rec in records] == [0, 2] * 3
        assert records[0].iterations == 0 and records[0].converged

    def test_shuffle_changes_order_not_determinism(self, monkeypatch):
        monkeypatch.setenv("SYMMAXENT_THREADS", "1")
        cfg = small_config(state_family="haar_pure", shuffle_observables=True, r_values=(6,))
        res1 = run_sweep(cfg)
        res2 = run_sweep(cfg)
        assert res1.records == res2.records
        plain = run_sweep(small_config(state_family="haar_pure", r_values=(6,)))
        assert any(a.fidelity != b.fidelity for a, b in zip(res1.records, plain.records))

    def test_metadata_echoes_config(self):
        cfg = small_config(batch_size=1, r_values=(3,))
        res = run_sweep(cfg)
        assert res.metadata["config"]["state_family"] == "werner"
        assert res.metadata["config"]["solver"] == {"tolerance": 1e-12, "max_iterations": 300}
        assert res.metadata["std_convention"] == "population"


NOISY_PHOTON_SHAPED = small_config(
    state_family="permutation_invariant",
    symmetry="permutation",
    r_values=(10, 63),
    noise=NoiseConfig(mode="photon_model", mu=0.18, lambda_dc=2e-4, trials=10_000),
    solver=SolverOptions(tolerance=1e-10, max_iterations=400),
)
SHUFFLED_SYMMETRIC_N4_SHAPED = small_config(
    n_qubits=4,
    state_family="permutation_invariant_mixed",
    symmetry="permutation",
    r_values=(2, 18, 34),
    solver=SolverOptions(tolerance=1e-14, max_iterations=400),
    shuffle_observables=True,
)

# shuffled sweeps with noisy data, whose states each build their order's modes
SHUFFLED_NOISY_SHAPED = {
    "shuffled_permutation_photon_model": small_config(
        state_family="permutation_invariant_mixed", symmetry="permutation",
        r_values=(3, 12, 19), noise=NOISY_PHOTON_SHAPED.noise, shuffle_observables=True,
    ),
    "shuffled_werner_finite_sample": small_config(
        symmetry="werner", r_values=(2, 5), shuffle_observables=True,
        noise=NoiseConfig(mode="finite_sample", trials=1_000),
    ),
}

# unshuffled sweeps, whose states all measure one order, for each symmetry
# with ideal and photon-model data
UNSHUFFLED_SHAPED = {
    f"unshuffled_{kind}_{noise.mode}": small_config(
        state_family=family, symmetry=kind, r_values=(3, 12, 40), noise=noise,
    )
    for kind, family in (
        ("none", "haar_pure"),
        ("permutation", "permutation_invariant_mixed"),
        ("werner", "werner"),
    )
    for noise in (
        NoiseConfig(),
        NoiseConfig(mode="photon_model", mu=0.18, lambda_dc=2e-4, trials=10_000),
    )
}


def stream_purposes(monkeypatch, noise):
    """The purposes of the streams one shuffled state of a sweep to r = 63
    builds, in order."""
    built = []
    real = harness._stream

    def spy(seed, state_id, purpose):
        built.append(purpose)
        return real(seed, state_id, purpose)

    monkeypatch.setattr(harness, "_stream", spy)
    run_single_state(small_config(shuffle_observables=True, r_values=(2, 19, 63), noise=noise), 0)
    return built


class TestStreams:
    @pytest.mark.parametrize(
        "entropy",
        [(0, 0, 0), (2**32 - 1, 5, 2), (2**32, 1, 2), (2**40 + 7, 2**33, 1)],
    )
    def test_stream_is_the_seed_sequence_of_its_entropy(self, entropy):
        # the entropy keeps its trailing 0 word, so that every target and
        # shuffle stream, large seeds included, stays the one recorded
        got = harness._stream(*entropy)
        want = np.random.default_rng(np.random.SeedSequence(list(entropy) + [0]))
        assert got.bit_generator.state == want.bit_generator.state
        assert got.integers(2**62, size=4).tolist() == want.integers(2**62, size=4).tolist()


def _block_estimates(target, kind, n):
    """Estimates of ``target`` that a sweep scores: solves on the first 0, 2
    and 6 SIC observables whose projections the symmetry keeps."""
    ops = list(sic_povm(n))
    kept = [ops[i] for i in symmetry.independent_projections(ops, kind, n)][:6]
    measured = tuple((op, observables.expectation(target, op)) for op in kept)
    problem = symmetry.compressed_problem(measured, kind, n)
    return [solve(problem.leading(k), FAST_NEWTON).rho for k in (0, 2, len(kept))]


class TestBlockScoring:
    """A target that commutes with the group is scored on the irrep blocks."""

    @pytest.mark.parametrize("eta", [0.0, 0.1])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("family, kind", COMMUTING)
    def test_block_score_is_the_full_space_score(self, family, kind, n, eta):
        # a pure target's block score is checked against the exact
        # sqrt(<psi|sigma|psi>) of the full-space estimate sigma, not against
        # states.fidelity, whose own rank-1 rounding reaches 1.5e-8 here
        drawn = states.FAMILIES[family][1](n, np.random.default_rng([n, len(family)]), 1)
        target = states.sample(family, n, np.random.default_rng([n, len(family)]), eta, 1)
        assert symmetry.block_state(target.matrix, kind, n) is not None
        score = harness._scorer(target, kind, n)
        tolerance = score_tolerance(family, kind, eta)
        pure = isinstance(drawn, states.PureState) and eta == 0.0
        for rho in _block_estimates(target, kind, n):
            full = states.DensityMatrix(symmetry.full_estimate(rho, kind, n))
            fid, smallest = score(rho)
            if pure:
                psi = drawn.amplitudes
                want = math.sqrt(max(np.vdot(psi, full.matrix @ psi).real, 0.0))
            else:
                want = states.fidelity(target, full)
            assert abs(fid - want) <= tolerance
            assert abs(smallest - full.min_eigenvalue) <= 1e-14

    @pytest.mark.parametrize("family, kind", COMMUTING + [("haar_pure", "none"),
                                                          ("werner", "none")])
    def test_commuting_sweep_builds_no_full_estimate(self, monkeypatch, family, kind):
        # nor a DensityMatrix per solve: a state builds its target's, and
        # under a declared group that of the target's block form
        def refuse(*args):
            raise AssertionError("full_estimate called")

        built = []
        real = states.DensityMatrix

        def density(m):
            built.append(m)
            return real(m)

        monkeypatch.setattr(symmetry, "full_estimate", refuse)
        monkeypatch.setattr(states, "DensityMatrix", density)
        cfg = small_config(state_family=family, symmetry=kind, r_values=(2, 5, 63), batch_size=2,
                           noise=NoiseConfig(eta=0.1))
        for state_id in range(cfg.batch_size):
            built.clear()
            sample_target(cfg, state_id)
            sampled = len(built)
            built.clear()
            assert all(0.0 <= rec.fidelity <= 1.0 for rec in run_single_state(cfg, state_id))
            assert len(built) == sampled + (kind != "none")

    @pytest.mark.parametrize("kind", ["permutation", "werner"])
    def test_haar_pure_keeps_full_space_scoring(self, monkeypatch, kind):
        # the target does not commute with the group, so its record is the
        # fidelity of the full-space estimate, bit for bit
        solved = {}
        real_solve = harness.solve

        def spy(problem, options, lambda0=None):
            solved[problem.n_constraints] = solution = real_solve(problem, options, lambda0)
            return solution

        monkeypatch.setattr(harness, "solve", spy)
        cfg = small_config(state_family="haar_pure", symmetry=kind, r_values=(2, 5, 63),
                           shuffle_observables=True, batch_size=2)
        for state_id in range(cfg.batch_size):
            solved.clear()
            records = run_single_state(cfg, state_id)
            target = sample_target(cfg, state_id)
            assert symmetry.block_state(target.matrix, kind, cfg.n_qubits) is None
            for rec in records:
                rho = solved[min(rec.r, max(solved))].rho
                full = states.DensityMatrix(symmetry.full_estimate(rho, kind, cfg.n_qubits))
                assert rec.fidelity == states.fidelity(target, full)

    @pytest.mark.parametrize("family, kind", [("werner", "werner"), ("haar_pure", "werner"),
                                              ("werner", "none")])
    def test_non_finite_estimate_fails_the_state(self, family, kind):
        target = states.sample(family, 3, np.random.default_rng(0), 0.0, 1)
        dim = len(symmetry.block_weights(kind, 3)) if kind != "none" else 8
        rho = np.eye(dim, dtype=complex) / dim
        rho[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            harness._scorer(target, kind, 3)(rho)


class TestObservableContext:
    """What a worker computes once and shares between the states it sweeps."""

    @pytest.mark.parametrize("observable_kind", ["sic", "pauli"])
    @pytest.mark.parametrize("kind", ["permutation", "werner"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_filter_keeps_what_independent_projections_keeps(self, n, kind, observable_kind):
        # permutation keeps the first of each orbit; werner is that call itself
        context = harness._ObservableContext(observable_kind, n, kind)
        candidates = list(context.candidates)
        rng = np.random.default_rng([n, len(kind), len(observable_kind)])
        for trial in range(21 if n < 5 else 5):
            order = list(range(len(candidates)))
            if trial:
                rng.shuffle(order)
            kept = symmetry.independent_projections([candidates[i] for i in order], kind, n)
            assert list(context.independent(order)) == [order[i] for i in kept]
        if kind == "permutation":
            # one per orbit of products of the 4 local factors, less the
            # dropped identity (Pauli) or all-last (SIC) orbit
            assert len(kept) == math.comb(n + 3, 3) - 1

    @pytest.mark.parametrize("observable_kind", ["sic", "pauli"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_werner_filter_reads_the_rows_independent_projections_computes(
            self, n, observable_kind):
        # the filter gathers the worker's coordinate rows in the state's
        # order: they are the rows and norms independent_projections computes
        # on the operators in that order, bit for bit, so it keeps the same
        context = harness._ObservableContext(observable_kind, n, "werner")
        coords, norms = context.coordinates, context.norms
        assert not coords.flags.writeable and not norms.flags.writeable
        candidates = context.candidates
        rng = np.random.default_rng([n, len(observable_kind), 30])
        for _ in range(30):
            order = rng.permutation(len(candidates)).tolist()
            ops = [candidates[i] for i in order]
            flat = np.asarray(ops, dtype=complex).reshape(len(ops), -1)
            assert np.array_equal(coords[order], symmetry._coordinates(flat, "werner", n))
            assert np.array_equal(norms[order], np.linalg.norm(flat, axis=1))
            kept = symmetry.independent_projections(ops, "werner", n)
            assert list(context.independent(order)) == [order[i] for i in kept]

    @pytest.mark.parametrize("kind", ["none", "permutation", "werner"])
    def test_canonical_problem_is_the_compressed_problem_of_the_set(self, kind):
        # compressed in chunks from the coordinates, it has the rows of one
        # compressed_problem on every canonical observable, read-only; under
        # "none" they are the canonical set itself, not a copy
        context = harness._ObservableContext("sic", 4, kind)
        problem = context.problem
        zero = tuple((op, 0.0) for op in context.candidates)
        want = symmetry.compressed_problem(zero, kind, 4)
        assert problem.n_constraints == 255 and not problem.targets.any()
        for got, ref in zip((*problem._rows, problem._cols), (*want._rows, want._cols)):
            assert np.array_equal(got, ref) and not got.flags.writeable
        assert np.array_equal(problem.log_weights, want.log_weights)
        assert (kind == "none") == np.shares_memory(problem._rows[0], context.candidates)
        assert ("coordinates" in vars(context)) == (kind == "werner")

    @pytest.mark.parametrize("kind, family", [
        ("none", "haar_pure"),
        ("permutation", "permutation_invariant_mixed"),
        ("werner", "werner"),
    ])
    def test_shuffled_states_build_the_canonical_problem_once(self, monkeypatch, kind, family):
        # the worker compresses and checks every canonical observable once;
        # each shuffled state gathers its rows, and no state compresses,
        # filters through independent_projections or checks an operator stack
        harness._observable_context.cache_clear()
        built, coordinated, stacks = [], [], []
        zero_targets, coordinates = MaxEntProblem._zero_targets.__func__, symmetry.coordinates
        hermitian = linalg.hermitian

        def build(cls, a, log_weights=None):
            built.append(len(a))
            return zero_targets(cls, a, log_weights)

        def coordinate_spy(stack, kind, n):
            # block_state compresses each commuting target alone, per state;
            # only stacks of observables count here
            coordinated.extend([len(stack)] if len(stack) > 1 else [])
            return coordinates(stack, kind, n)

        def refuse(*args, **kwargs):
            raise AssertionError("an order compressed or filtered on its own")

        def check(m, what):
            stacks.extend([np.shape(m)] if np.ndim(m) == 3 else [])
            return hermitian(m, what)

        monkeypatch.setattr(MaxEntProblem, "_zero_targets", classmethod(build))
        monkeypatch.setattr(symmetry, "coordinates", coordinate_spy)
        for name in ("compressed_problem", "independent_projections"):
            monkeypatch.setattr(symmetry, name, refuse)
        cfg = small_config(state_family=family, symmetry=kind, shuffle_observables=True,
                           r_values=(2, 5, 63), batch_size=3)
        run_single_state(cfg, 0)
        assert built == [63]
        assert coordinated == ([] if kind == "none" else [63])
        monkeypatch.setattr(linalg, "hermitian", check)
        monkeypatch.setattr(maxent, "hermitian", check)
        for state_id in (1, 2):
            run_single_state(cfg, state_id)
        assert built == [63] and len(coordinated) == (kind != "none")
        assert stacks == []
        assert harness._measured_order.cache_info().currsize == 1

    def test_shuffled_permutation_sweep_reads_orbits_only(self, monkeypatch):
        def numeric_filter(*args, **kwargs):
            raise AssertionError("linalg.independent_rows called")

        monkeypatch.setattr(linalg, "independent_rows", numeric_filter)
        harness._observable_context.cache_clear()
        cfg = small_config(
            state_family="permutation_invariant_mixed", symmetry="permutation",
            shuffle_observables=True, r_values=(2, 19),
        )
        for state_id in range(2):
            run_single_state(cfg, state_id)
        context = harness._observable_context("sic", 3, "permutation")
        assert "orbits" in vars(context)

    def test_modes_built_for_measured_observables_only(self, monkeypatch):
        # an unshuffled permutation sweep at n = 3 measures the same 19 of
        # the 63 canonical observables in every state: one batch of them
        calls = []
        real = measurement.projector_modes

        def spy(ops):
            calls.append(ops)
            return real(ops)

        monkeypatch.setattr(measurement, "projector_modes", spy)
        harness._observable_context.cache_clear()
        for state_id in range(2):
            run_single_state(NOISY_PHOTON_SHAPED, state_id)
        assert len(calls) == 1 and calls[0].shape == (19, 8, 8)
        assert len({op.tobytes() for op in calls[0]}) == 19
        context = harness._observable_context("sic", 3, "permutation")
        assert np.array_equal(calls[0], context.candidates[list(context.independent(range(63)))])

    def test_shuffled_sweep_remembers_one_order(self):
        # every shuffled state measures a new order, which replaces the last
        harness._observable_context.cache_clear()
        cfg = small_config(
            state_family="permutation_invariant_mixed", symmetry="permutation",
            shuffle_observables=True, r_values=(2, 19), noise=NOISY_PHOTON_SHAPED.noise,
        )
        context = harness._observable_context("sic", 3, "permutation")
        for state_id in range(3):
            misses = harness._measured_order.cache_info().misses
            run_single_state(cfg, state_id)
            info = harness._measured_order.cache_info()
            assert info.currsize == 1 and info.misses == misses + 1
            order = list(range(63))
            harness._stream(cfg.seed, state_id, 1).shuffle(order)
            measured = context.measured(order, 19, True)
            assert harness._measured_order.cache_info().misses == misses + 1
            assert measured.kept == context.independent(order)
            assert measured.problem.n_constraints == 19
            assert measured.modes.weights.shape == (19, 1)

    def test_remembered_order_is_keyed_by_whether_data_are_noisy(self, monkeypatch):
        # an ideal order holds no modes; a noisy state of the same order and
        # max(r) after it must build them and draw its counts
        photon = dataclasses.replace(NOISY_PHOTON_SHAPED, r_values=(2, 19))
        ideal = dataclasses.replace(photon, noise=NoiseConfig())
        harness._observable_context.cache_clear()
        cold = run_single_state(photon, 1)
        harness._observable_context.cache_clear()
        run_single_state(ideal, 0)
        calls = []
        real = measurement.projector_modes

        def spy(ops):
            calls.append(ops)
            return real(ops)

        monkeypatch.setattr(measurement, "projector_modes", spy)
        assert run_single_state(photon, 1) == cold
        assert len(calls) == 1

    def test_remembered_order_is_keyed_by_its_count(self):
        # the same order measured to a different max(r) keeps other
        # observables, so it is not the remembered one
        short = dataclasses.replace(NOISY_PHOTON_SHAPED, r_values=(2, 5))
        harness._observable_context.cache_clear()
        cold = run_single_state(NOISY_PHOTON_SHAPED, 1)
        harness._observable_context.cache_clear()
        run_single_state(short, 0)
        assert run_single_state(NOISY_PHOTON_SHAPED, 1) == cold

    def test_cached_modes_are_read_only_and_exact(self):
        context = harness._ObservableContext("sic", 3, "permutation")
        measured = context.measured(range(63), 19, True)
        vectors, weights = measured.modes
        alone = [measurement.projector_modes(context.candidates[i]) for i in measured.kept]
        assert np.array_equal(vectors, np.concatenate([a.vectors for a in alone], axis=1))
        assert np.array_equal(weights, np.concatenate([a.weights for a in alone]))
        assert weights.shape == (19, 1)
        assert context.measured(range(63), 19, True) is measured
        for arr in (vectors, weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        with pytest.raises(AttributeError):
            measured.modes = None
        assert context.orbits.flags.writeable is False

    def test_ideal_sweep_without_symmetry_builds_neither_cache(self):
        # no modes for ideal data, and no orbits without permutation symmetry
        harness._observable_context.cache_clear()
        run_single_state(small_config(r_values=(3,)), 0)
        context = harness._observable_context("sic", 3, "none")
        hits = harness._measured_order.cache_info().hits
        measured = context.measured(range(63), 3, False)
        assert harness._measured_order.cache_info().hits == hits + 1
        assert measured.modes is None and "orbits" not in vars(context)
        assert "coordinates" not in vars(context)

    def test_state_takes_its_target_root_once(self, monkeypatch):
        # every sweep point scores against the same target
        calls = []
        real = linalg._psd_root

        def spy(w, v):
            calls.append(1)
            return real(w, v)

        monkeypatch.setattr(linalg, "_psd_root", spy)
        run_single_state(small_config(r_values=(2, 5, 9)), 0)
        assert len(calls) == 1

    def test_state_checks_each_scored_target_once(self, monkeypatch):
        # a noisy_photon-shaped state scores against its target's block
        # form; the target and the block form are each checked once, when
        # built, and the block form's root is taken without a second check
        checked, outputs = [], []
        real = linalg.hermitian

        def spy(m, what):
            assert not any(np.shares_memory(m, out) for out in outputs), f"{what} checked twice"
            checked.append(what)
            outputs.append(real(m, what))
            return outputs[-1]

        # a warm worker: its observables were checked when first built
        harness._observable_context.cache_clear()
        run_single_state(NOISY_PHOTON_SHAPED, 0)
        monkeypatch.setattr(linalg, "hermitian", spy)
        for state_id in range(1, 3):
            checked.clear()
            run_single_state(NOISY_PHOTON_SHAPED, state_id)
            assert checked == ["density matrix"] * 2

    def test_ideal_state_builds_no_measurement_streams(self, monkeypatch):
        assert stream_purposes(monkeypatch, NoiseConfig()) == [0, 1]  # the target and the shuffle

    @pytest.mark.parametrize("noise", [
        NoiseConfig(mode="finite_sample", trials=1_000),
        NoiseConfig(mode="photon_model", mu=0.18, lambda_dc=2e-4, trials=10_000),
    ], ids=["finite_sample", "photon_model"])
    def test_noisy_state_builds_one_counts_stream(self, monkeypatch, noise):
        # the target, the shuffle, and the counts of all 63 observables
        assert stream_purposes(monkeypatch, noise) == [0, 1, 2]

    @pytest.mark.parametrize(
        "cfg",
        [NOISY_PHOTON_SHAPED, SHUFFLED_SYMMETRIC_N4_SHAPED, *SHUFFLED_NOISY_SHAPED.values(),
         *UNSHUFFLED_SHAPED.values()],
        ids=["noisy_photon", "shuffled_symmetric_n4", *SHUFFLED_NOISY_SHAPED, *UNSHUFFLED_SHAPED],
    )
    def test_cold_and_warm_workers_give_identical_records(self, cfg):
        # a state must not depend on which states the worker swept before it;
        # a warm unshuffled state re-targets the problem its order was built
        # with, a shuffled one builds its own order
        cold = []
        for state_id in range(3):
            harness._observable_context.cache_clear()
            cold.append(run_single_state(cfg, state_id))
        warm = [run_single_state(cfg, state_id) for state_id in range(3)]
        assert warm == cold


class TestSlottedRecords:
    # the worker pool pickles the config to each worker and every record back
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        cfg = small_config(noise=NoiseConfig(mode="finite_sample", trials=200))
        rec = StateRunRecord(3, 5, 0.987654321, False, 17)
        for obj in (cfg, rec):
            copy = pickle.loads(pickle.dumps(obj, protocol=protocol))
            assert copy == obj
            assert type(copy) is type(obj)

    @pytest.mark.parametrize("obj", [small_config(), StateRunRecord(0, 1, 0.5, True, 2)])
    def test_frozen_without_instance_dict(self, obj):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, dataclasses.fields(obj)[0].name, 1)


class TestSummarize:
    def test_single_record(self):
        rows = summarize([StateRunRecord(0, 5, 0.9, True, 10)])
        assert rows[0].mean_f == pytest.approx(0.9)
        assert rows[0].std_f == pytest.approx(0.0)
        assert rows[0].n_converged == 1

    def test_population_std(self):
        rows = summarize(
            [
                StateRunRecord(0, 5, 0.9, True, 10),
                StateRunRecord(1, 5, 1.0, False, 10),
            ]
        )
        assert rows[0].mean_f == pytest.approx(0.95)
        assert rows[0].std_f == pytest.approx(0.05)
        assert rows[0].n_converged == 1

    def test_rows_sorted_by_r(self):
        rows = summarize(
            [
                StateRunRecord(0, 9, 0.5, True, 1),
                StateRunRecord(0, 2, 0.6, True, 1),
            ]
        )
        assert [row.r for row in rows] == [2, 9]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestFiles:
    def test_result_csv_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SYMMAXENT_THREADS", "1")
        res = run_sweep(small_config(batch_size=2))
        path = write_outputs(res, tmp_path)[0]
        assert path == tmp_path / "result.csv"
        back = read_result_csv(path)
        assert tuple(back) == res.records

    def test_summary_and_meta_files(self, tmp_path):
        res = run_sweep(small_config(batch_size=1, r_values=(2,)))
        # the output directory is created when missing
        out = tmp_path / "new" / "dir"
        assert write_outputs(res, out) == [out / "result.csv", out / "summary.csv", out / "meta.json"]
        summary = (out / "summary.csv").read_text()
        assert summary.startswith("r,mean_f,std_f,n_converged\n")
        import json

        meta = json.loads((out / "meta.json").read_text())
        assert meta["artifact"] == "symmaxent"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n")
        with pytest.raises(ValueError, match="header"):
            read_result_csv(path)

    @pytest.mark.parametrize("flag", ["True", "yes", ""])
    def test_unknown_converged_flag_rejected(self, tmp_path, flag):
        # read as unconverged, it would make `summarize` print n_converged 0
        path = tmp_path / "result.csv"
        path.write_text(
            "state_id,r,fidelity,converged,iterations\n"
            "0,1,0.5,true,3\n"
            f"0,2,0.75,{flag},4\n"
        )
        with pytest.raises(ValueError, match="line 3: converged"):
            read_result_csv(path)


    @pytest.mark.parametrize(
        "row, match",
        [
            pytest.param(row, match, id=row)
            for row, match in [
                ("0,2,0.75,true,4,9", "expected 5 fields, got 6"),
                ("0,2,0.75,true", "expected 5 fields, got 4"),
                # a field that does not parse, and a fidelity off [0, 1]
                ("x,1,0.5,true,3", "invalid literal"),
                ("0,2,0.5,true,3.5", "invalid literal"),
                ("0,2,nan,true,4", "fidelity must lie in"),
                ("0,2,1.5,true,4", "fidelity must lie in"),
                ("0,2,-inf,true,4", "fidelity must lie in"),
            ]
        ],
    )
    def test_wrong_field_count_named(self, tmp_path, row, match):
        # a malformed row is named by its line
        path = tmp_path / "result.csv"
        path.write_text("state_id,r,fidelity,converged,iterations\n0,1,0.5,true,3\n" + row + "\n")
        with pytest.raises(ValueError, match=f"line 3: {match}"):
            read_result_csv(path)


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SYMMAXENT_THREADS", "1")
        assert worker_count(100) == 1

    def test_capped_by_batch(self, monkeypatch):
        monkeypatch.setenv("SYMMAXENT_THREADS", "16")
        assert worker_count(3) == 3

    def test_invalid(self, monkeypatch):
        monkeypatch.setenv("SYMMAXENT_THREADS", "0")
        with pytest.raises(ValueError):
            worker_count(4)

    @pytest.mark.parametrize("raw", ["two", "1.5", "4x"])
    def test_not_an_integer_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("SYMMAXENT_THREADS", raw)
        with pytest.raises(ValueError, match=f"SYMMAXENT_THREADS must be an integer.*{raw!r}"):
            worker_count(4)


class TestMeanFidelityHelper:
    def test_lookup(self):
        res = run_sweep(small_config(batch_size=1, r_values=(2, 5)))
        table = mean_fidelity_by_r(res)
        assert set(table) == {2, 5}
