import dataclasses
import json
import re

import numpy as np
import pytest

from symmaxent import cli, observables, symmetry
from symmaxent.cli import main, parse_config_text
from symmaxent.harness import read_result_csv
from symmaxent.maxent import MaxEntProblem, SolverOptions
from symmaxent.observables import expectation, matrix_from_jsonable, pauli_basis, sic_povm
from symmaxent.states import DensityMatrix, random_werner

# a custom one-qubit Z, as nested [re, im] pairs
Z_MATRIX_ENTRY = {"matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]], "target": 0.2}


def input_error(capsys, *argv) -> str:
    """What ``main`` prints on stderr for an input error: one line that names
    the command, with return code 2 and no traceback."""
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"symmaxent {argv[0]}: error: ") and err.count("\n") == 1
    return err


SMALL_SWEEP_CONFIG = """
# minimal deterministic sweep
n_qubits = 3
state_family = werner
observable_kind = sic
symmetry = werner
batch_size = 2
r_values = 1-3,5
seed = 5
solver.tolerance = 1e-12
solver.max_iterations = 200
"""


class TestConfigParsing:
    def test_full_round(self):
        cfg = parse_config_text(SMALL_SWEEP_CONFIG)
        assert cfg.state_family == "werner"
        assert cfg.r_values == (1, 2, 3, 5)
        assert cfg.solver.tolerance == 1e-12

    def test_defaults_when_empty(self):
        cfg = parse_config_text("")
        assert cfg.n_qubits == 3
        assert cfg.observable_kind == "pauli"
        assert cfg.noise.mode == "ideal"
        assert cfg.solver.max_iterations == 400

    def test_parse_does_not_build_the_default_grid(self):
        # n_qubits is range-checked before r_values is read; the default grid
        # range(1, 4^30) does not fit in memory
        cfg = parse_config_text("n_qubits = 30\nr_values = 1\n")
        assert (cfg.n_qubits, cfg.r_values) == (30, (1,))

    def test_dicke_family_syntax(self):
        cfg = parse_config_text("state_family = dicke(2)\nbatch_size = 1")
        assert cfg.state_family == "dicke"
        assert cfg.dicke_excitations == 2

    def test_noise_fields(self):
        cfg = parse_config_text(
            "noise.mode = photon_model\nnoise.mu = 0.18\nnoise.trials = 50000\nnoise.lambda_dc = 2e-4"
        )
        assert cfg.noise.mode == "photon_model"
        assert cfg.noise.trials == 50000

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_text("flavor = strawberry")

    def test_unknown_noise_field_rejected(self):
        with pytest.raises(ValueError, match="noise field"):
            parse_config_text("noise.gamma = 1")

    @pytest.mark.parametrize(
        "text, match",
        [
            # NaN passes an ordering test: every solve would run to the budget
            pytest.param("solver.tolerance = nan", "tolerance must be", id="solver.tolerance = nan"),
            pytest.param("solver.tolerance = inf", "tolerance must be", id="solver.tolerance = inf"),
            pytest.param(
                "solver.max_iterations = 2.5", "line 1: 'solver.max_iterations'",
                id="solver.max_iterations = 2.5",
            ),
            pytest.param("noise.mu = nan", "mu must be", id="noise.mu = nan"),
            pytest.param("noise.lambda_dc = inf", "lambda_dc must be", id="noise.lambda_dc = inf"),
            # a range error names its line and key too
            pytest.param(
                "seed = 1\nsolver.tolerance = nan",
                "line 2: 'solver.tolerance': tolerance must be",
                id="line of solver.tolerance = nan",
            ),
            pytest.param(
                "seed = 1\nnoise.mu = nan", "line 2: 'noise.mu': mu must be",
                id="line of noise.mu = nan",
            ),
            pytest.param(
                "noise.trials = 5\nnoise.eta = 1.5", "line 2: 'noise.eta': eta must be",
                id="line of noise.eta = 1.5",
            ),
            pytest.param(
                "solver.max_iterations = 0", "line 1: 'solver.max_iterations': max_iterations",
                id="line of solver.max_iterations = 0",
            ),
            # so does a top-level range error
            pytest.param("seed = 1\nbatch_size = 0", "line 2: 'batch_size': batch_size must be",
                         id="line of batch_size = 0"),
            pytest.param("n_qubits = 0", "line 1: 'n_qubits': n_qubits must be",
                         id="line of n_qubits = 0"),
            pytest.param("seed = -1", "line 1: 'seed': seed must be nonnegative",
                         id="line of seed = -1"),
            pytest.param(
                "seed = 1\nobservable_kind = foo",
                "line 2: 'observable_kind': unknown observable_kind 'foo'",
                id="line of observable_kind = foo",
            ),
            # each value is valid over the defaults, only the pair is not: no line
            pytest.param(
                "noise.mode = photon_model\nnoise.mu = 0", "^photon_model needs mu > 0",
                id="photon_model with mu = 0",
            ),
            pytest.param(
                "n_qubits = 1\nsymmetry = permutation", "^symmetry 'permutation' needs",
                id="permutation with n_qubits = 1",
            ),
            pytest.param("n_qubits = 2\nr_values = 16", "^r value 16 outside",
                         id="r_values beyond n_qubits"),
            # a value that does not convert names its line and key
            pytest.param("seed = 1\nn_qubits = two", "line 2: 'n_qubits'", id="n_qubits = two"),
            pytest.param(
                "seed = 1\n\nnoise.trials = 1e4", "line 3: 'noise.trials'",
                id="noise.trials = 1e4",
            ),
        ],
    )
    def test_non_finite_and_non_integer_values_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_config_text(text)

    @pytest.mark.parametrize("line", ["solver.lambda0 = 0.1", "solver.record_history = true"])
    def test_start_point_and_history_not_solver_fields(self, line):
        # the number of multipliers changes with r, so a sweep has no single
        # start point; a solve keeps no objective history
        with pytest.raises(ValueError, match="unknown solver field"):
            parse_config_text(line)

    def test_garbled_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("this is not a config line")

    def test_descending_r_range_rejected(self):
        # an empty range must not fall back to the full 1..63 sweep
        with pytest.raises(ValueError, match="'5-3'"):
            parse_config_text("r_values = 1,5-3")

    @pytest.mark.parametrize("entry", ["3-", "-1", "1-2-3", "x"])
    def test_malformed_r_entry_named(self, entry):
        with pytest.raises(ValueError, match=f"r_values entry '{entry}' is not an integer"):
            parse_config_text(f"r_values = 2,{entry}")

    def test_spaced_r_range_accepted(self):
        assert parse_config_text("r_values = 1 - 3, 5").r_values == (1, 2, 3, 5)

    def test_key_given_twice_rejected(self):
        # the later line would silently win
        with pytest.raises(ValueError, match="line 3: 'n_qubits' also set on line 1"):
            parse_config_text("n_qubits = 2\nseed = 1\nn_qubits = 3")

    @pytest.mark.parametrize(
        "text, lineno, first",
        [
            ("state_family = dicke(1)\ndicke_excitations = 2", 2, 1),
            ("dicke_excitations = 2\nstate_family = dicke(1)", 2, 1),
        ],
    )
    def test_dicke_family_and_excitations_both_rejected(self, text, lineno, first):
        with pytest.raises(
            ValueError,
            match=f"line {lineno}: 'dicke_excitations' also set on line {first}",
        ):
            parse_config_text(text)

    def test_dicke_excitations_beside_plain_family_accepted(self):
        cfg = parse_config_text("state_family = dicke\ndicke_excitations = 2")
        assert (cfg.state_family, cfg.dicke_excitations) == ("dicke", 2)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("\n# comment\nseed = 4  # trailing\n")
        assert cfg.seed == 4


class TestSweepCommand:
    def test_writes_files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SYMMAXENT_THREADS", "1")
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(SMALL_SWEEP_CONFIG)
        out_dir = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)])
        assert rc == 0
        records = read_result_csv(out_dir / "result.csv")
        assert {rec.r for rec in records} == {1, 2, 3, 5}
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["config"]["batch_size"] == 2
        summary = (out_dir / "summary.csv").read_text()
        assert summary.splitlines()[0] == "r,mean_f,std_f,n_converged"


class TestSummarizeCommand:
    def test_prints_summary(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SYMMAXENT_THREADS", "1")
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(SMALL_SWEEP_CONFIG)
        main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)])
        capsys.readouterr()
        rc = main(["summarize", str(tmp_path / "result.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "r,mean_f,std_f,n_converged"
        assert len(lines) == 5
        # summarize output must agree with the sweep's own summary file
        assert out == (tmp_path / "summary.csv").read_text()


class TestSolveCommand:
    def test_pauli_problem(self, tmp_path, capsys):
        problem = {
            "n_qubits": 1,
            "observables": "pauli",
            "measured": [{"label": "Z", "target": 0.5}],
            "solver": {"tolerance": 1e-14},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        rc = main(["solve", "--targets", str(path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert payload["stop_reason"] == "tolerance"
        rho = matrix_from_jsonable(payload["rho"])
        z = pauli_basis(1)[2]
        assert np.trace(z @ rho).real == pytest.approx(0.5, abs=1e-6)
        assert payload["lambdas"][0] == pytest.approx(np.arctanh(0.5), abs=1e-5)
        # the entropy of the (3/4, 1/4) state, and one Gibbs evaluation at
        # the start plus at least one per Newton step
        assert payload["entropy"] == pytest.approx(-0.75 * np.log(0.75) - 0.25 * np.log(0.25))
        assert payload["n_evals"] >= payload["iterations"] + 1

    def test_contradictory_targets_get_infeasible_verdict(self, tmp_path, capsys):
        # <Z> cannot be both 0.2 and 0.6: no state meets the exact targets,
        # and the solve says so and points at declaring variances
        problem = {
            "n_qubits": 1,
            "observables": "pauli",
            "measured": [{"label": "Z", "target": 0.2}, {"label": "Z", "target": 0.6}],
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert main(["solve", "--targets", str(path)]) == 0
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert payload["converged"] is False
        assert payload["stop_reason"] == "infeasible"
        assert err.count("\n") == 1
        assert '"variance"' in err

    def test_infeasible_verdict_prints_no_state(self, tmp_path, capsys):
        # the iterate that proved the verdict is no estimate: rho and entropy
        # are null, and the multipliers whose dual is negative are kept
        problem = {
            "n_qubits": 1,
            "observables": "pauli",
            "measured": [{"label": "Z", "target": 0.2}, {"label": "Z", "target": 0.6}],
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert main(["solve", "--targets", str(path)]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["stop_reason"] == "infeasible"
        assert '"rho": null' in out and '"entropy": null' in out
        z = pauli_basis(1)[2]
        prob = MaxEntProblem(((z, 0.2), (z, 0.6)), (), 2)
        lam = np.array(payload["lambdas"])
        assert lam.shape == (2,)
        assert prob._evaluate(lam)[4] < 0.0

    @pytest.mark.parametrize(
        "problem",
        [
            {"n_qubits": 1, "observables": "sic", "symmetry": "werner",
             "measured": [{"label": "SIC-0", "target": 0.3}]},
            {"n_qubits": 1, "measured": [{"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                                          "target": 0.5}]},
        ],
        ids=["werner_n1_sic", "identity_n1"],
    )
    def test_no_curvature_infeasible_verdict(self, tmp_path, capsys, problem):
        # no multiplier moves these Gibbs states; the exact targets are out
        # of reach, and the solve says so without a warning
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert main(["solve", "--targets", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stop_reason"] == "infeasible"
        assert payload["rho"] is None

    def test_contradictory_targets_with_variances_converge(self, tmp_path, capsys):
        # declared variances make the regularised dual bounded: the same
        # contradictory targets now stop on tolerance, at <Z> = 0.4 for equal
        # variances and nearer the surer target for unequal ones
        for variances, z_fit in (((1e-3, 1e-3), 0.4), ((1e-3, 3e-3), 0.3)):
            problem = {
                "n_qubits": 1,
                "observables": "pauli",
                "measured": [
                    {"label": "Z", "target": 0.2, "variance": variances[0]},
                    {"label": "Z", "target": 0.6, "variance": variances[1]},
                ],
            }
            path = tmp_path / "problem.json"
            path.write_text(json.dumps(problem))
            assert main(["solve", "--targets", str(path)]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["converged"] is True
            assert payload["stop_reason"] == "tolerance"
            rho = matrix_from_jsonable(payload["rho"])
            z = pauli_basis(1)[2]
            assert np.trace(z @ rho).real == pytest.approx(z_fit, abs=1e-3)

    def test_variance_reaches_the_problem(self, monkeypatch):
        seen = []
        real_solve = cli.solve

        def spy(problem, *args, **kwargs):
            seen.append(problem)
            return real_solve(problem, *args, **kwargs)

        monkeypatch.setattr(cli, "solve", spy)
        cli._solve_problem_from_json({
            "n_qubits": 1, "observables": "pauli",
            "measured": [{"label": "Z", "target": 0.2, "variance": 2e-3},
                         {"label": "X", "target": 0.1},
                         {"label": "Y", "target": 0.0, "variance": 0}],
        })
        assert seen[0].variances.tolist() == [2e-3, 0.0, 0.0]

    def test_custom_matrix_and_symmetry(self, tmp_path, capsys):
        zz = {
            "n_qubits": 2,
            "symmetry": "permutation",
            "measured": [
                {
                    "label": "Z1",
                    "target": 0.2,
                    "matrix": [
                        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]],
                    ],
                }
            ],
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(zz))
        out_path = tmp_path / "solution.json"
        rc = main(["solve", "--targets", str(path), "--out", str(out_path)])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        rho = matrix_from_jsonable(payload["rho"])
        DensityMatrix(rho)  # validates trace/PSD
        # one multiplier per measured observable, none for the symmetry
        assert len(payload["lambdas"]) == 1
        assert np.allclose(rho[[1, 2]][:, [1, 2]], rho[[2, 1]][:, [2, 1]], atol=1e-9)

    def test_symmetry_is_declared_to_the_solver(self, tmp_path, capsys, monkeypatch):
        # the measured operator goes to compressed_problem as it is, which
        # constrains its projection; the solve runs on the werner irrep blocks
        seen, solved = [], []
        real_compressed, real_solve = symmetry.compressed_problem, cli.solve

        def build(measured, kind, n_qubits, variances=None):
            seen.append((measured, kind))
            return real_compressed(measured, kind, n_qubits, variances)

        def spy(problem, options, lambda0=None):
            solved.append(problem.dim)
            return real_solve(problem, options, lambda0=lambda0)

        monkeypatch.setattr(symmetry, "compressed_problem", build)
        monkeypatch.setattr(cli, "solve", spy)
        rho = random_werner(3, np.random.default_rng(5))
        target = expectation(rho, sic_povm(3)[5])
        problem = {
            "n_qubits": 3,
            "observables": "sic",
            "symmetry": "werner",
            "measured": [{"label": "SIC-05", "target": target}],
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert main(["solve", "--targets", str(path)]) == 0
        assert [kind for _, kind in seen] == ["werner"]
        assert np.array_equal(seen[0][0][0][0], sic_povm(3)[5])
        assert solved == [3]
        assert json.loads(capsys.readouterr().out)["converged"] is True

    def test_labels_build_only_the_named_operators(self, tmp_path, capsys, monkeypatch):
        # a label is built alone, not looked up in the whole canonical set,
        # which at n = 6 takes half a gigabyte
        def refuse(kind, n_qubits):
            raise AssertionError("solve built the whole canonical set")

        monkeypatch.setattr(observables, "canonical_set", refuse)
        problem = {
            "n_qubits": 6,
            "observables": "pauli",
            "symmetry": "permutation",
            "measured": [{"label": "ZZZZZZ", "target": 0.5}, {"label": "XIIIII", "target": 0.1}],
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert main(["solve", "--targets", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stop_reason"] == "tolerance"
        assert len(payload["rho"]) == 64

    def test_lambda0_is_the_start_point(self, tmp_path, capsys):
        problem = {
            "n_qubits": 1,
            "observables": "pauli",
            "measured": [{"label": "Z", "target": 0.5}],
            "lambda0": [float(np.arctanh(0.5))],
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert main(["solve", "--targets", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["iterations"] == 0
        assert payload["lambdas"] == problem["lambda0"]

    @pytest.mark.parametrize(
        "lambda0, match",
        [
            ([True], "lambda0 entry 0 must be a number"),
            ([0.1, "0.1"], "lambda0 entry 1 must be a number"),
            ([10**400], "lambda0 entry 0 is too large"),
            ({}, "lambda0 must be a JSON list"),
            (0.1, "lambda0 must be a JSON list"),
        ],
    )
    def test_malformed_lambda0_rejected(self, lambda0, match):
        problem = {
            "n_qubits": 1,
            "observables": "pauli",
            "measured": [{"label": "Z", "target": 0.5}, {"label": "X", "target": 0.1}],
            "lambda0": lambda0,
        }
        with pytest.raises(ValueError, match=match):
            cli._solve_problem_from_json(problem)

    def test_lambda0_wrong_length_rejected(self, tmp_path, capsys):
        problem = {
            "n_qubits": 1,
            "observables": "pauli",
            "measured": [{"label": "Z", "target": 0.5}],
            "lambda0": [0.1, 0.2],
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        err = input_error(capsys, "solve", "--targets", str(path))
        assert re.search("expected 1 lambda0 entries", err)

    @pytest.mark.parametrize("key", ["lambda0", "record_history", "tol"])
    def test_unknown_solver_key_rejected(self, tmp_path, key, capsys):
        problem = {
            "n_qubits": 1,
            "observables": "pauli",
            "measured": [{"label": "Z", "target": 0.5}],
            "solver": {"tolerance": 1e-12, key: 1},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        err = input_error(capsys, "solve", "--targets", str(path))
        assert re.search(f"unknown solver field '{key}'", err)

    @pytest.mark.parametrize(
        "solver",
        [
            {"tolerance": "1e-12"},
            {"tolerance": float("nan")},
            {"max_iterations": 2.5},
            {"max_iterations": True},
        ],
    )
    def test_malformed_solver_value_rejected(self, tmp_path, solver, capsys):
        problem = {
            "n_qubits": 1,
            "observables": "pauli",
            "measured": [{"label": "Z", "target": 0.5}],
            "solver": solver,
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        name = next(iter(solver))
        err = input_error(capsys, "solve", "--targets", str(path))
        assert re.search(name, err)

    @pytest.mark.parametrize("n_qubits", [1.9, True, "3"])
    def test_non_integer_n_qubits_rejected(self, tmp_path, n_qubits, capsys):
        # 1.9 must not truncate to one qubit, nor true read as 1
        problem = {
            "n_qubits": n_qubits,
            "observables": "pauli",
            "measured": [{"label": "Z", "target": 0.5}],
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        err = input_error(capsys, "solve", "--targets", str(path))
        assert re.search("n_qubits must be an integer", err)

    def test_unknown_symmetry_rejected(self, tmp_path, capsys):
        problem = {"n_qubits": 1, "symmetry": "rotation", "measured": []}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        err = input_error(capsys, "solve", "--targets", str(path))
        assert re.search("unknown symmetry kind", err)

    def test_unknown_label_rejected(self, tmp_path, capsys):
        problem = {
            "n_qubits": 1,
            "observables": "pauli",
            "measured": [{"label": "Q", "target": 0.0}],
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        err = input_error(capsys, "solve", "--targets", str(path))
        assert re.search("unknown observable label", err)

    def test_label_needs_the_observables_kind(self):
        # without a kind no label resolves: the entry is named, not kind None
        problem = {"n_qubits": 1, "measured": [Z_MATRIX_ENTRY, {"label": "X", "target": 0.1}]}
        with pytest.raises(
            ValueError, match="measured entry 1 label 'X' needs the problem's observables kind"
        ):
            cli._solve_problem_from_json(problem)
        assert cli._solve_problem_from_json({**problem, "observables": "pauli"})["converged"]

    def test_unknown_problem_key_rejected(self, tmp_path, capsys):
        # a misspelt symmetry would otherwise solve without one
        problem = {"n_qubits": 1, "measured": [], "symmetyr": "permutation"}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        err = input_error(capsys, "solve", "--targets", str(path))
        assert re.search("unknown problem key.*'symmetyr'", err)

    def test_unknown_measured_entry_key_rejected(self, tmp_path, capsys):
        problem = {
            "n_qubits": 1,
            "observables": "pauli",
            "measured": [{"label": "Z", "target": 0.5}, {"label": "X", "value": 0.1}],
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        err = input_error(capsys, "solve", "--targets", str(path))
        assert re.search("unknown measured entry 1 key.*'value'", err)

    def test_measured_entry_not_an_object_rejected(self, tmp_path, capsys):
        # a dict in place of the list is named as such, not iterated over
        problem = {"n_qubits": 1, "measured": {"label": "Z", "target": 0.5}}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        err = input_error(capsys, "solve", "--targets", str(path))
        assert re.search("measured must be a JSON list, got {'label'", err)

    @pytest.mark.parametrize(
        "problem, match",
        [
            # a misspelt kind would otherwise solve with no label lookup
            (
                {"n_qubits": 1, "observables": "paulii", "measured": [Z_MATRIX_ENTRY]},
                r"unknown observables kind 'paulii', not one of \('pauli', 'sic'\)",
            ),
            ({"n_qubits": 1, "observables": None, "measured": []}, "observables kind None"),
            ({"observables": "pauli", "measured": []}, "n_qubits is missing"),
            ({"n_qubits": 1, "observables": "pauli"}, "measured is missing"),
            (
                {"n_qubits": 1, "observables": "pauli", "measured": [{"label": "Z"}]},
                "measured entry 0 target is missing",
            ),
            (
                {"n_qubits": 1, "observables": "pauli", "measured": [{"target": 0.5}]},
                "measured entry 0 has neither a label nor a matrix",
            ),
            (
                {"n_qubits": 1, "observables": "pauli",
                 "measured": [{"label": "Z", "target": None}]},
                "measured entry 0 target must be a number, got None",
            ),
            (
                {"n_qubits": 1, "observables": "pauli",
                 "measured": [{"label": "Z", "target": True}]},
                "measured entry 0 target must be a number, got True",
            ),
            (
                {"n_qubits": 1, "observables": "pauli",
                 "measured": [{"label": ["Z"], "target": 0.5}]},
                "measured entry 0 label must be a string",
            ),
            (
                {"n_qubits": 1, "measured": [
                    {"matrix": [[["a", 0], [0, 0]], [[0, 0], [1, 0]]], "target": 0.5}
                ]},
                r"not a matrix of \[re, im\] number pairs",
            ),
            (
                {"n_qubits": 1, "measured": [{"matrix": 5, "target": 0.5}]},
                r"not a matrix of \[re, im\] number pairs",
            ),
            # the malformed entry is named by its index
            (
                {"n_qubits": 1, "observables": "pauli", "measured": [
                    {"label": "Z", "target": 0.1}, {"matrix": 5, "target": 0.5}
                ]},
                r"measured entry 1 matrix: not a matrix of \[re, im\] number pairs",
            ),
            (
                {"n_qubits": 1, "measured": [
                    Z_MATRIX_ENTRY, {"matrix": [[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]],
                                     "target": 0.5},
                ]},
                "measured entry 1 matrix: ",
            ),
            (
                {"n_qubits": 1, "measured": [
                    Z_MATRIX_ENTRY, Z_MATRIX_ENTRY, {"matrix": [[[1, 0], [0, 1]], [[0, 0], [1, 0]]],
                                                     "target": 0.5},
                ]},
                "measured entry 2 matrix: operator 'custom-2': ",
            ),
            # a variance is a finite number >= 0, named by its entry
            (
                {"n_qubits": 1, "observables": "pauli", "measured": [
                    {"label": "Z", "target": 0.1}, {"label": "X", "target": 0.2, "variance": -0.1}
                ]},
                r"measured entry 1 variance must be finite and >= 0, got -0.1",
            ),
            (
                {"n_qubits": 1, "observables": "pauli",
                 "measured": [{"label": "Z", "target": 0.1, "variance": float("nan")}]},
                r"measured entry 0 variance must be finite and >= 0, got nan",
            ),
            (
                {"n_qubits": 1, "observables": "pauli",
                 "measured": [{"label": "Z", "target": 0.1, "variance": float("inf")}]},
                r"measured entry 0 variance must be finite and >= 0, got inf",
            ),
            (
                {"n_qubits": 1, "observables": "pauli",
                 "measured": [{"label": "Z", "target": 0.1, "variance": "0.01"}]},
                r"measured entry 0 variance must be a number, got '0.01'",
            ),
            (
                {"n_qubits": 1, "observables": "pauli",
                 "measured": [{"label": "Z", "target": 0.1, "variance": True}]},
                r"measured entry 0 variance must be a number, got True",
            ),
            # an integer beyond float range is named, not an OverflowError
            (
                {"n_qubits": 1, "observables": "pauli",
                 "measured": [{"label": "Z", "target": 10**400}]},
                "measured entry 0 target is too large for a float",
            ),
            (
                {"n_qubits": 1, "observables": "pauli",
                 "measured": [{"label": "Z", "target": 0.1, "variance": 10**400}]},
                "measured entry 0 variance is too large for a float",
            ),
            # the problem has no dim field: the error names the one it has
            ({"n_qubits": 0, "measured": []}, "n_qubits must be >= 1, got 0"),
            ({"n_qubits": -1, "measured": [Z_MATRIX_ENTRY]}, "n_qubits must be >= 1, got -1"),
            ({"n_qubits": 1, "measured": 5}, "measured must be a JSON list, got 5"),
            ({"n_qubits": 1, "measured": ["Z"]}, "measured entry 0 must be a JSON object, got 'Z'"),
            (3, "a solve problem must be a JSON object, got 3"),
            ([1, 2], r"a solve problem must be a JSON object, got \[1, 2\]"),
            (
                {"n_qubits": 1, "observables": "pauli", "measured": [], "solver": [1]},
                r"solver must be a JSON object, got \[1\]",
            ),
            # an unhashable kind would reach the symmetry's cache
            (
                {"n_qubits": 2, "observables": "pauli", "symmetry": ["permutation"],
                 "measured": [{"label": "ZZ", "target": 0.5}]},
                r"symmetry must be a string, got \['permutation'\]",
            ),
            (
                {"n_qubits": 2, "observables": "pauli", "symmetry": {"k": 1},
                 "measured": [{"label": "ZZ", "target": 0.5}]},
                r"symmetry must be a string, got \{'k': 1\}",
            ),
        ],
    )
    def test_malformed_problem_rejected(self, tmp_path, problem, match, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        err = input_error(capsys, "solve", "--targets", str(path))
        assert re.search(match, err)


class TestInputErrors:
    """An input error ends the command with one line on stderr and return
    code 2; ``parse_config_text`` and ``_solve_problem_from_json`` still
    raise it."""

    @pytest.mark.parametrize(
        "lines, match",
        [
            ("noise.mode = finite_sample\nnoise.trials = 1", "finite_sample needs trials >= 2"),
            ("noise.mode = photon_model\nnoise.mu = true", "config line 2: 'noise.mu': could not"),
            ("n_qubits = 2\nsolver.tolerance = 0", "config line 2: 'solver.tolerance'"),
            # numpy's binomial overflows at 2**63 trials
            ("noise.mode = finite_sample\nnoise.trials = 100000000000000000000",
             r"config line 2: 'noise.trials': trials must be in \[1, 2\*\*63 - 1\]"),
        ],
    )
    def test_sweep_config_error(self, tmp_path, capsys, lines, match):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(lines + "\n")
        err = input_error(capsys, "sweep", "--config", str(cfg_path), "--out", str(tmp_path))
        assert re.search(match, err)
        with pytest.raises(ValueError, match=match):
            parse_config_text(lines)
        assert not (tmp_path / "result.csv").exists()

    def test_sweep_too_large_to_build(self, tmp_path, capsys):
        # the 4^30 - 1 canonical observables cannot be indexed; numpy refuses
        # the array before allocating it
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("n_qubits = 30\nbatch_size = 1\nr_values = 1\n")
        err = input_error(capsys, "sweep", "--config", str(cfg_path), "--out", str(tmp_path))
        assert "array is too big" in err
        assert not (tmp_path / "result.csv").exists()

    @pytest.mark.parametrize(
        "command", [["sweep", "--config"], ["summarize"], ["solve", "--targets"]]
    )
    def test_missing_file(self, tmp_path, capsys, command):
        err = input_error(capsys, *command, str(tmp_path / "absent"))
        assert "No such file" in err

    def test_solve_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text('{"n_qubits": 1,')
        err = input_error(capsys, "solve", "--targets", str(path))
        assert "Expecting property name" in err


def test_solver_options_are_tolerance_and_max_iterations(tmp_path, monkeypatch):
    # a solve reads these two; step_rule is init-only and takes only the one
    # update rule, so a config, problem or meta.json that names it is stale
    assert [f.name for f in dataclasses.fields(SolverOptions)] == ["tolerance", "max_iterations"]
    assert SolverOptions(step_rule="newton") == SolverOptions()
    for step_rule in ("backtracking", "Newton", None):
        with pytest.raises(ValueError, match="step_rule"):
            SolverOptions(step_rule=step_rule)
    with pytest.raises(ValueError, match="line 2: 'solver.step_rule': unknown solver field"):
        parse_config_text("seed = 1\nsolver.step_rule = newton")
    problem = {
        "n_qubits": 1,
        "observables": "pauli",
        "measured": [{"label": "Z", "target": 0.5}],
        "solver": {"step_rule": "newton"},
    }
    with pytest.raises(ValueError, match="unknown solver field 'step_rule'"):
        cli._solve_problem_from_json(problem)
    monkeypatch.setenv("SYMMAXENT_THREADS", "1")
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("n_qubits = 1\nbatch_size = 1\nr_values = 2\nsolver.tolerance = 1e-12\n")
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["config"]["solver"] == {"tolerance": 1e-12, "max_iterations": 400}
