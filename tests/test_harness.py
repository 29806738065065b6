import dataclasses
import math
import pickle

import numpy as np
import pytest

from symmaxent import harness, linalg, measurement, states, symmetry
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
from symmaxent.maxent import SolverOptions
from symmaxent.measurement import NoiseConfig
from symmaxent.observables import sic_povm

FAST_NEWTON = SolverOptions(step_rule="newton", tolerance=1e-12, max_iterations=300)


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
        with pytest.raises(ValueError, match="state_family"):
            ExperimentConfig(state_family="thermal")

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
        # infeasible photon-model targets under a declared symmetry: the
        # solves stop as stationary, in the workers as in one process
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
        assert not any(rec.converged for rec in serial.records)

    def test_r_zero_gives_maximally_mixed_fidelity(self, monkeypatch, rng):
        monkeypatch.setenv("SYMMAXENT_THREADS", "1")
        cfg = small_config(state_family="haar_pure", r_values=(0,), batch_size=2)
        res = run_sweep(cfg)
        mixed = states.DensityMatrix(np.eye(8) / 8, 3)
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
            solver=SolverOptions(step_rule="newton", tolerance=1e-18, max_iterations=300),
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
            solver=SolverOptions(step_rule="newton", tolerance=1e-18, max_iterations=300),
        )
        res = run_sweep(cfg)
        assert len(res.records) == 2
        assert all(rec.converged and rec.fidelity >= 1 - 1e-8 for rec in res.records)

    def test_symmetric_solves_constrain_projected_observables_only(self, monkeypatch):
        # the solver gets the first r filtered canonical operators as they
        # are, with the symmetry declared and no auxiliaries; the problem
        # constrains their commutant projections (checked in test_maxent)
        seen = []
        real_solve = harness.solve

        def spy(problem, options):
            seen.append(problem)
            return real_solve(problem, options)

        monkeypatch.setattr(harness, "solve", spy)
        cfg = small_config(
            state_family="permutation_invariant_mixed", symmetry="permutation",
            r_values=(3, 19, 30), batch_size=1,
        )
        run_single_state(cfg, 0)
        sic = list(sic_povm(3))
        kept = [sic[i] for i in symmetry.independent_projections(sic, "permutation", 3)]
        assert [p.n_constraints for p in seen] == [3, 19, 19]
        # the constraints are the kept operators alone: no auxiliary rows
        for problem in seen:
            assert problem.symmetry == "permutation"
            ops = [op for op, _ in problem.measured]
            assert [op.label for op in ops] == [op.label for op in kept[: len(ops)]]
            for op, ref in zip(ops, kept):
                assert np.array_equal(op.matrix, ref.matrix)

    def test_one_problem_per_state(self, monkeypatch):
        # every sweep point solves a leading slice of the state's one problem;
        # the werner commutant at n = 3 keeps 5 SIC projections, so r = 30 solves 5
        built, solved = [], []
        real_problem, real_solve = harness.MaxEntProblem, harness.solve

        def build(*args, **kwargs):
            built.append(real_problem(*args, **kwargs))
            return built[-1]

        def spy(problem, options):
            solved.append(problem)
            return real_solve(problem, options)

        monkeypatch.setattr(harness, "MaxEntProblem", build)
        monkeypatch.setattr(harness, "solve", spy)
        cfg = small_config(symmetry="werner", r_values=(2, 4, 30, 3), batch_size=1)
        for state_id in (0, 1):
            run_single_state(cfg, state_id)
        assert len(built) == 2
        assert [len(p.measured) for p in built] == [5, 5]
        assert [p.n_constraints for p in solved] == [2, 4, 5, 3] * 2
        for i, problem in enumerate(solved):
            assert problem.measured == built[i // 4].measured[: problem.n_constraints]

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
        assert res.metadata["config"]["solver"] == {
            "tolerance": 1e-12, "max_iterations": 300, "step_rule": "newton"
        }
        assert res.metadata["std_convention"] == "population"


NOISY_PHOTON_SHAPED = small_config(
    state_family="permutation_invariant",
    symmetry="permutation",
    r_values=(10, 63),
    noise=NoiseConfig(mode="photon_model", mu=0.18, lambda_dc=2e-4, trials=10_000),
    solver=SolverOptions(step_rule="newton", tolerance=1e-10, max_iterations=400),
)
SHUFFLED_SYMMETRIC_N4_SHAPED = small_config(
    n_qubits=4,
    state_family="permutation_invariant_mixed",
    symmetry="permutation",
    r_values=(2, 18, 34),
    solver=SolverOptions(step_rule="newton", tolerance=1e-14, max_iterations=400),
    shuffle_observables=True,
)


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
        # the 63 canonical observables in every state
        calls = []
        real = measurement.projector_modes

        def spy(op):
            calls.append(op.label)
            return real(op)

        monkeypatch.setattr(measurement, "projector_modes", spy)
        harness._observable_context.cache_clear()
        for state_id in range(2):
            run_single_state(NOISY_PHOTON_SHAPED, state_id)
        assert len(calls) == 19 and len(set(calls)) == 19

    def test_cached_modes_are_read_only_and_exact(self):
        context = harness._ObservableContext("sic", 3, "permutation")
        for index in (0, 17, 62):
            vectors, weights = context.modes(index)
            ref_vectors, ref_weights = measurement.projector_modes(context.candidates[index])
            assert np.array_equal(vectors, ref_vectors)
            assert np.array_equal(weights, ref_weights)
            assert context.modes(index)[0] is vectors
            for arr in (vectors, weights):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0
        assert context.orbits.flags.writeable is False

    def test_ideal_sweep_without_symmetry_builds_neither_cache(self):
        harness._observable_context.cache_clear()
        run_single_state(small_config(r_values=(3,)), 0)
        context = harness._observable_context("sic", 3, "none")
        assert not context._modes and "orbits" not in vars(context)

    def test_state_takes_its_target_root_once(self, monkeypatch):
        # every sweep point scores against the same target
        calls = []
        real = linalg.psd_sqrtm

        def spy(m):
            calls.append(1)
            return real(m)

        monkeypatch.setattr(linalg, "psd_sqrtm", spy)
        run_single_state(small_config(r_values=(2, 5, 9)), 0)
        assert len(calls) == 1

    def test_ideal_state_builds_no_measurement_streams(self, monkeypatch):
        purposes = []
        real = harness._stream

        def spy(seed, state_id, purpose, extra=0):
            purposes.append(purpose)
            return real(seed, state_id, purpose, extra)

        monkeypatch.setattr(harness, "_stream", spy)
        run_single_state(small_config(shuffle_observables=True), 0)
        assert purposes == [0, 1]  # the target and the shuffle

    @pytest.mark.parametrize(
        "cfg", [NOISY_PHOTON_SHAPED, SHUFFLED_SYMMETRIC_N4_SHAPED],
        ids=["noisy_photon", "shuffled_symmetric_n4"],
    )
    def test_cold_and_warm_workers_give_identical_records(self, cfg):
        # a state must not depend on which states the worker swept before it
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
