import importlib.util
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from symmaxent import cli, linalg, maxent, states, symmetry
from symmaxent.maxent import (
    MaxEntProblem,
    MaxEntSolution,
    SolverOptions,
    gradient,
    objective,
    rho_of_lambda,
    solve,
    susceptibility,
)
from symmaxent.observables import (
    canonical_operator,
    canonical_set,
    expectation,
    pauli_basis,
    sic_povm,
)
from symmaxent.symmetry import build_symmetry, compressed_problem, full_estimate

from conftest import SZ, full_state, kron_chain, random_mixed_state


def single_qubit_problem(target):
    z = pauli_basis(1)[2]
    return MaxEntProblem(((z, target),), (), 2)


def problem_from_state(rho, ops, aux=()):
    measured = tuple((op, expectation(rho, op)) for op in ops)
    return MaxEntProblem(measured, tuple(aux), rho.dim)


def pairs(prob):
    """A problem's constraints as (operator, target) pairs, for building
    another problem from them with ``MaxEntProblem``."""
    return tuple(zip(prob.operators, prob.targets))


def _load_benchmark_workloads():
    """``perfbench/workloads.py``, which is not on the package path."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        # registered first: its dataclass looks its module up while defined
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def finite_difference_gradient(problem, lam, step=1e-5):
    """Independent oracle: central differences of the objective."""
    lam = np.asarray(lam, dtype=float)
    out = np.zeros_like(lam)
    for j in range(lam.size):
        up, down = lam.copy(), lam.copy()
        up[j] += step
        down[j] -= step
        out[j] = (objective(problem, up) - objective(problem, down)) / (2 * step)
    return out


class TestRhoOfLambda:
    def test_zero_multipliers_maximally_mixed(self):
        prob = problem_from_state(
            states.DensityMatrix(np.eye(8) / 8), pauli_basis(3)[:5]
        )
        rho = rho_of_lambda(prob, np.zeros(5))
        assert np.allclose(rho, np.eye(8) / 8, atol=1e-14)

    def test_single_z_gibbs_tanh(self):
        # two-level Gibbs closed form: <Z> = tanh(lambda)
        prob = single_qubit_problem(0.0)
        for t in (-1.2, -0.3, 0.0, 0.4, 2.5):
            rho = full_state(rho_of_lambda(prob, [t]), 1)
            assert expectation(rho, SZ) == pytest.approx(np.tanh(t), abs=1e-12)

    def test_commuting_observables_factorize(self):
        zi = linalg.hermitian(kron_chain(SZ, np.eye(2)), "ZI")
        iz = linalg.hermitian(kron_chain(np.eye(2), SZ), "IZ")
        prob = MaxEntProblem(((zi, 0.0), (iz, 0.0)), (), 4)
        a, b = 0.7, -0.4
        rho = rho_of_lambda(prob, [a, b])

        def gibbs_1q(t):
            return np.diag([np.exp(t), np.exp(-t)]) / (np.exp(t) + np.exp(-t))

        assert np.allclose(rho, np.kron(gibbs_1q(a), gibbs_1q(b)), atol=1e-12)

    def test_large_multipliers_no_overflow(self):
        prob = single_qubit_problem(0.0)
        rho = rho_of_lambda(prob, [400.0])
        assert np.isfinite(rho).all()
        assert expectation(full_state(rho, 1), SZ) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_finite(self):
        prob = single_qubit_problem(0.0)
        with pytest.raises(ValueError, match="finite"):
            rho_of_lambda(prob, [np.nan])

    def test_rejects_wrong_length(self):
        prob = single_qubit_problem(0.0)
        with pytest.raises(ValueError, match="multipliers"):
            rho_of_lambda(prob, [0.0, 1.0])


class TestObjective:
    def test_exact_targets_give_zero(self):
        rho = states.DensityMatrix(np.eye(8) / 8)
        prob = problem_from_state(rho, pauli_basis(3)[:6])
        assert objective(prob, np.zeros(6)) == pytest.approx(0.0, abs=1e-24)

    def test_single_constraint_square(self):
        prob = single_qubit_problem(0.5)
        assert objective(prob, [0.0]) == pytest.approx(0.25)

    def test_empty_problem(self):
        prob = MaxEntProblem((), (), 8)
        assert objective(prob, []) == 0.0


class TestGradient:
    def test_single_z_at_origin(self):
        # d/dlambda (tanh(l) - a)^2 at 0 is -2a since var(Z) at I/2 is 1
        for a in (0.2, -0.6):
            prob = single_qubit_problem(a)
            assert gradient(prob, [0.0])[0] == pytest.approx(-2 * a, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        rho = states.DensityMatrix(random_mixed_state(8, rng))
        ops = list(pauli_basis(3))
        idx = rng.choice(63, size=8, replace=False)
        prob = problem_from_state(rho, [ops[int(i)] for i in idx])
        lam = rng.normal(0, 0.5, 8)
        g = gradient(prob, lam)
        fd = finite_difference_gradient(prob, lam)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-12)

    def test_matches_finite_differences_with_aux(self, rng):
        aux = build_symmetry("werner", 3).auxiliary[:10]
        rho = states.DensityMatrix(random_mixed_state(8, rng))
        prob = problem_from_state(rho, pauli_basis(3)[:4], aux)
        lam = rng.normal(0, 0.3, prob.n_constraints)
        g = gradient(prob, lam)
        fd = finite_difference_gradient(prob, lam)
        assert np.linalg.norm(g - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_stationary_at_solution(self, rng):
        rho = states.DensityMatrix(random_mixed_state(8, rng))
        prob = problem_from_state(rho, pauli_basis(3)[:10])
        sol = solve(prob, SolverOptions(tolerance=1e-22))
        assert np.linalg.norm(gradient(prob, sol.lambdas)) <= 1e-8

    def test_susceptibility_symmetric_psd(self, rng):
        rho = states.DensityMatrix(random_mixed_state(8, rng))
        prob = problem_from_state(rho, pauli_basis(3)[:12])
        c = susceptibility(prob, rng.normal(0, 0.3, 12))
        assert np.array_equal(c, c.T)
        assert np.linalg.eigvalsh(c)[0] >= -1e-10


def susceptibility_problem(shape, rng):
    """Problems shaped like the solves behind the sweeps: n = 3 without a
    symmetry, n = 3 with auxiliary constraints, n = 4 with commutant-projected
    permutation constraints."""
    if shape == "n3_none":
        rho = states.DensityMatrix(random_mixed_state(8, rng))
        return problem_from_state(rho, list(sic_povm(3))[:20])
    if shape == "n3_aux15":
        rho = states.random_permutation_invariant_mixed(3, rng)
        aux = build_symmetry("permutation", 3).auxiliary[:15]
        return problem_from_state(rho, list(sic_povm(3))[:6], aux)
    rho = states.random_permutation_invariant_mixed(4, rng)
    sic = list(sic_povm(4))
    kept = [sic[i] for i in symmetry.independent_projections(sic, "permutation", 4)][:12]
    return MaxEntProblem(
        tuple(
            (linalg.hermitian(symmetry.project(op, "permutation", 4), "projection"),
             expectation(rho, op))
            for op in kept
        ),
        (),
        16,
    )


def block_problem(shape, rng):
    """A log-weighted irrep-block problem like those the symmetric_n4 and
    noisy_photon sweeps solve, as (problem, operators, kind, n): the
    ``compressed_problem`` of the SIC operators its symmetry keeps, with
    targets from a symmetric state."""
    n, kind = int(shape[1]), shape.split("_")[1]
    _, (_, raw), _, _ = declared_pair(f"{kind}_n{n}_sic", rng)
    return compressed_problem(raw, kind, n), [op for op, _ in raw], kind, n


BLOCK_SHAPES = ["n3_permutation_blocks", "n4_permutation_blocks", "n3_werner_blocks"]


class TestSusceptibility:
    @pytest.mark.parametrize("shape", ["n3_none", "n3_aux15", "n4_permutation", *BLOCK_SHAPES])
    def test_matches_finite_differences_of_expectations(self, shape):
        # independent oracle: central differences of <A_i>(lambda) taken
        # through the full-space Gibbs state, column j from a step in
        # lambda_j; a block problem's estimate is expanded from its blocks
        rng = np.random.default_rng([20261018, len(shape)])
        if shape in BLOCK_SHAPES:
            prob, ops, kind, n = block_problem(shape, rng)
        else:
            prob = susceptibility_problem(shape, rng)
            ops, kind, n = list(prob.operators), "none", prob.dim.bit_length() - 1
        lam = rng.normal(0, 0.3, prob.n_constraints)
        step = 1e-5

        def expectations(x):
            rho = full_state(rho_of_lambda(prob, x), n, kind)
            return np.array([expectation(rho, op) for op in ops])

        fd = np.zeros((prob.n_constraints, prob.n_constraints))
        for j in range(prob.n_constraints):
            up, down = lam.copy(), lam.copy()
            up[j] += step
            down[j] -= step
            fd[:, j] = (expectations(up) - expectations(down)) / (2 * step)
        c = susceptibility(prob, lam)
        assert np.linalg.norm(c - fd) <= 1e-7 * np.linalg.norm(fd)


def _reference_susceptibility(a, g, state):
    """Test oracle: the batched-matmul susceptibility the GEMM kernel
    replaced. Rotates each operator of the (K, dim, dim) stack ``a`` into
    the eigenbasis with a K-batched matmul and contracts with a complex
    K x dim^2 product."""
    rho, w, v, expw, z, _, _ = state
    atil = np.matmul(np.matmul(v.conj().T[None, :, :], a), v)
    # the full symmetric Phi, from the kernel on the upper triangle
    i, j = np.triu_indices(w.size)
    phi = np.empty((w.size, w.size))
    phi[i, j] = phi[j, i] = maxent._divided_difference_kernel(w, expw, (i, j))
    m = atil * phi[None, :, :]
    k, d2 = a.shape[0], a.shape[1] * a.shape[2]
    c = (atil.reshape(k, d2) @ m.conj().reshape(k, d2).T).real / z
    c -= np.outer(g, g)
    return (c + c.T) / 2.0


def _projected(ops, kind, n):
    kept = [ops[i] for i in symmetry.independent_projections(ops, kind, n)]
    return [linalg.hermitian(symmetry.project(op, kind, n), "projection") for op in kept]


def oracle_problem(shape, rng):
    """Raw SIC/Pauli operators at n = 2, 3, 4; commutant-projected operators;
    a problem with auxiliary constraints; and log-weighted block problems."""
    if shape in BLOCK_SHAPES:
        return block_problem(shape, rng)[0]
    if shape == "n2_pauli":
        ops, aux = list(pauli_basis(2)), ()
    elif shape == "n2_sic":
        ops, aux = list(sic_povm(2)), ()
    elif shape in ("n3_sic", "n4_sic"):
        sic = list(sic_povm(int(shape[1])))
        ops, aux = [sic[i] for i in rng.permutation(len(sic))[: len(sic) * 2 // 3]], ()
    elif shape == "n3_permutation":
        ops, aux = _projected(list(sic_povm(3)), "permutation", 3), ()
    elif shape == "n3_werner":
        ops, aux = _projected(list(pauli_basis(3)), "werner", 3), ()
    elif shape == "n4_permutation":
        ops, aux = _projected(list(sic_povm(4)), "permutation", 4)[:20], ()
    else:
        ops, aux = list(sic_povm(3))[:8], build_symmetry("werner", 3).auxiliary[:20]
    dim = len(ops[0])
    rho = states.DensityMatrix(random_mixed_state(dim, rng))
    return problem_from_state(rho, ops, aux)


def oracle_multipliers(prob, which, rng):
    """Random multipliers; zero (a fully degenerate spectrum, every Phi
    entry on its d == 0 branch, or with log weights the spectrum of the log
    weights, degenerate within each block); or near-pure, the exponent's
    spectrum spread over 2000 so that gaps run to hundreds and Phi entries
    underflow to 0."""
    if which == "zero":
        return np.zeros(prob.n_constraints)
    lam = rng.normal(0, 0.5, prob.n_constraints)
    if which == "near_pure":
        w = np.linalg.eigvalsh(np.tensordot(lam, prob.operators, axes=1))
        lam *= 2000.0 / (w[-1] - w[0])
    return lam


ORACLE_SHAPES = [
    "n2_pauli", "n2_sic", "n3_sic", "n4_sic",
    "n3_permutation", "n3_werner", "n4_permutation", "n3_aux20", *BLOCK_SHAPES,
]


class TestSusceptibilityOracle:
    @pytest.mark.parametrize("which", ["random", "zero", "near_pure"])
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_matches_batched_matmul_reference(self, shape, which):
        rng = np.random.default_rng([20261018, ORACLE_SHAPES.index(shape)])
        prob = oracle_problem(shape, rng)
        lam = oracle_multipliers(prob, which, rng)
        _, g, _, state, _ = prob._evaluate(lam)
        w, expw = state[1], state[3]
        phi = maxent._divided_difference_kernel(w, expw, prob._pairs[:2])
        if which == "zero":
            # the exponent is diag(log weights), or zero without them
            base = np.sort(prob.log_weights) if prob.log_weights is not None else np.zeros(prob.dim)
            assert np.array_equal(w, base - base[-1])
        if which == "near_pure":
            assert np.any(phi == 0.0)
        c = prob._susceptibility(g, state)
        ref = _reference_susceptibility(prob.operators, g, state)
        assert np.array_equal(c, c.T)
        assert np.linalg.norm(c - ref) <= 1e-12 * np.linalg.norm(ref)
        # expectations against Tr(A_k rho) taken the long way round
        exact = np.einsum("kij,ji->k", prob.operators, state[0]).real
        assert np.max(np.abs(g - exact)) <= 1e-14

    @pytest.mark.parametrize("which", ["random", "zero", "near_pure"])
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_gibbs_exponent_is_tensordot(self, shape, which, monkeypatch):
        rng = np.random.default_rng([20261019, ORACLE_SHAPES.index(shape)])
        prob = oracle_problem(shape, rng)
        lam = oracle_multipliers(prob, which, rng)
        seen = []
        eigh = np.linalg.eigh

        def spy(h):
            seen.append(h.copy())
            return eigh(h)

        monkeypatch.setattr(maxent.np.linalg, "eigh", spy)
        prob._gibbs(lam)
        assert len(seen) == 1
        want = np.tensordot(lam, prob.operators, axes=1)
        if prob.log_weights is not None:
            want[np.diag_indices(prob.dim)] += prob.log_weights
        assert np.array_equal(seen[0], want)


class TestPublicKernels:
    # rho_of_lambda's multiplier checks are tested in TestRhoOfLambda
    CHECKED = (objective, gradient, susceptibility)

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_empty_problem(self, dim):
        prob = MaxEntProblem((), (), dim)
        assert np.array_equal(rho_of_lambda(prob, []), np.eye(dim) / dim)
        assert objective(prob, []) == 0.0
        assert gradient(prob, []).shape == (0,)
        assert susceptibility(prob, []).shape == (0, 0)

    @pytest.mark.parametrize("kernel", CHECKED, ids=lambda k: k.__name__)
    def test_rejects_wrong_length(self, kernel):
        prob = single_qubit_problem(0.3)
        with pytest.raises(ValueError, match="expected 1 multipliers"):
            kernel(prob, [0.1, 0.2])
        with pytest.raises(ValueError, match="expected 0 multipliers"):
            kernel(MaxEntProblem((), (), 2), [0.1])

    @pytest.mark.parametrize("kernel", CHECKED, ids=lambda k: k.__name__)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, kernel, bad):
        with pytest.raises(ValueError, match="finite"):
            kernel(single_qubit_problem(0.3), [bad])


class TestSolve:
    def test_no_constraints_exact_maximally_mixed(self):
        sol = solve(MaxEntProblem((), (), 8))
        assert sol.iterations == 0
        assert sol.converged
        assert sol.objective == 0.0
        assert sol.n_evals == 1
        assert np.max(np.abs(sol.rho - np.eye(8) / 8)) <= 1e-12

    def test_tanh_inversion(self):
        # lambda must match atanh(a); needs a tolerance tight enough that the
        # residual |tanh(l) - a| <= sqrt(tol) translates into 1e-6 on lambda
        opts = SolverOptions(tolerance=1e-16)
        for a in (0.0, 0.3, -0.3, 0.9, -0.9):
            sol = solve(single_qubit_problem(a), opts)
            assert sol.converged
            assert abs(sol.lambdas[0] - np.arctanh(a)) <= 1e-6

    def test_full_pauli_reconstruction_mixed(self, rng):
        opts = SolverOptions(tolerance=1e-18, max_iterations=200)
        for _ in range(3):
            rho = states.DensityMatrix(random_mixed_state(8, rng))
            prob = problem_from_state(rho, pauli_basis(3))
            sol = solve(prob, opts)
            assert states.fidelity(rho, full_state(sol.rho, 3)) >= 0.999

    def test_default_options_small_problem(self, rng):
        rho = states.DensityMatrix(random_mixed_state(4, rng))
        prob = problem_from_state(rho, pauli_basis(2)[:6])
        sol = solve(prob)
        assert sol.converged
        for op, target in zip(prob.operators, prob.targets):
            assert expectation(full_state(sol.rho, 2), op) == pytest.approx(target, abs=1e-5)

    def test_default_options_converge_near_pure(self):
        # near-pure targets drive the multipliers toward divergence; the
        # default options must still reach the default tolerance
        rng = np.random.default_rng(20261018)
        sic = list(sic_povm(3))
        for _ in range(8):
            rho = states.add_white_noise(states.haar_pure(3, rng), 1e-3)
            ops = [sic[i] for i in rng.permutation(len(sic))[: int(rng.integers(10, 64))]]
            sol = solve(problem_from_state(rho, ops))
            assert sol.converged
            assert sol.stop_reason == "tolerance"
            assert sol.converged == (sol.stop_reason == "tolerance")
            assert sol.iterations <= 100

    def test_converged_false_on_infeasible(self, rng):
        # targets perturbed away from any quantum state: the dual proves them
        # infeasible and the solve reports non-convergence
        rho = states.DensityMatrix(random_mixed_state(8, rng))
        measured = tuple(
            (op, expectation(rho, op) + rng.normal(0, 0.1)) for op in pauli_basis(3)
        )
        prob = MaxEntProblem(measured, (), 8)
        sol = solve(prob, SolverOptions(max_iterations=400))
        assert not sol.converged
        assert sol.objective > 0
        assert np.isfinite(sol.rho).all()

    @pytest.mark.parametrize("seed", range(6))
    def test_infeasible_gets_a_verdict(self, seed):
        # the shape above: no state meets the exact targets, and the dual
        # proves it within a few steps instead of fitting them
        rng = np.random.default_rng(seed)
        rho = states.DensityMatrix(random_mixed_state(8, rng))
        measured = tuple(
            (op, expectation(rho, op) + rng.normal(0, 0.1)) for op in pauli_basis(3)
        )
        prob = MaxEntProblem(measured, (), 8)
        sol = solve(prob)
        assert sol.stop_reason == "infeasible"
        assert not sol.converged
        assert sol.iterations <= 5
        # the returned multipliers are the proof: Phi < 0 there
        lam = sol.lambdas
        assert prob._evaluate(lam)[4] < 0.0
        assert objective(prob, lam) == sol.objective

    @pytest.mark.parametrize(
        "problem",
        [
            # the one-qubit Werner-symmetric states are I/2 alone: the block
            # problem is 1 x 1, and <SIC-0> is 0.25 on it
            symmetry.compressed_problem(((sic_povm(1)[0], 0.3),), "werner", 1),
            MaxEntProblem(((np.eye(2), 0.5),), (), 2),
        ],
        ids=["werner_n1_sic", "identity_n1"],
    )
    def test_no_curvature_infeasible_gets_a_verdict(self, problem):
        # C = 0: the Newton system is zero, and the dual falls linearly
        # along -r; the solve steps there and proves the targets infeasible
        sol = solve(problem)
        assert sol.stop_reason == "infeasible"
        assert sol.iterations == 1
        assert np.isfinite(sol.lambdas).all()
        assert problem._evaluate(sol.lambdas)[4] < 0.0

    def test_budget_stop(self, rng):
        rho = states.DensityMatrix(random_mixed_state(8, rng))
        prob = problem_from_state(rho, pauli_basis(3)[:20])
        sol = solve(prob, SolverOptions(max_iterations=1))
        assert sol.stop_reason == "budget"
        assert not sol.converged
        assert sol.iterations == 1
        # the start point and at least one trial step were evaluated
        assert sol.n_evals >= 2
        assert sol.objective == objective(prob, sol.lambdas)

    def test_no_descent_stops_at_the_start_point(self, rng, monkeypatch):
        # with no step length to try, no damping gives an accepted step
        rho = states.DensityMatrix(random_mixed_state(8, rng))
        prob = problem_from_state(rho, pauli_basis(3)[:20])
        monkeypatch.setattr(maxent, "HALVINGS", 0)
        lam0 = rng.normal(0, 0.1, prob.n_constraints)
        sol = solve(prob, lambda0=lam0)
        assert sol.stop_reason == "no_descent"
        assert not sol.converged
        assert sol.iterations == 0
        assert np.array_equal(sol.lambdas, lam0)
        assert sol.objective == objective(prob, lam0)
        assert sol.n_evals == 1

    @pytest.mark.parametrize("eta", [0.0, 1e-6, 1e-3, 0.3])
    def test_feasible_stops_at_tolerance(self, eta):
        # exact targets of pure and near-pure states, where the multipliers
        # diverge and C degenerates, never pass the first-order test before
        # the tolerance
        rng = np.random.default_rng(20261018)
        sic = list(sic_povm(3))
        for _ in range(6):
            rho = states.add_white_noise(states.haar_pure(3, rng), eta)
            ops = [sic[i] for i in rng.permutation(len(sic))[: int(rng.integers(2, 64))]]
            sol = solve(problem_from_state(rho, ops), SolverOptions(tolerance=1e-12))
            assert sol.stop_reason == "tolerance"
            assert sol.converged
            assert sol.converged == (sol.stop_reason == "tolerance")

    def test_noisy_photon_sweep_never_runs_to_budget(self, monkeypatch):
        # chunks 0-9 of the benchmark's noisy_photon workload: photon-model
        # targets fit no state, but with their variances every solve
        # minimises the regularised dual to the tolerance, before the budget
        from symmaxent import harness

        workloads = _load_benchmark_workloads()
        wl = workloads.WORKLOADS["noisy_photon"]
        reasons = []

        def spy(problem, options, lambda0=None):
            sol = solve(problem, options, lambda0)
            assert sol.converged == (sol.stop_reason == "tolerance")
            assert sol.iterations < options.max_iterations
            assert problem.variances.min() > 0.0
            reasons.append(sol.stop_reason)
            return sol

        monkeypatch.setenv(harness.THREADS_ENV_VAR, "1")
        monkeypatch.setattr(harness, "solve", spy)
        for chunk in range(10):
            harness.run_sweep(wl.config(wl.chunk_seed(7, chunk)))
        assert len(reasons) == 10
        assert set(reasons) == {"tolerance"}

    def test_auxiliary_is_zero_target_measured_rows(self, rng):
        # auxiliary operators are constraints with target zero, stacked
        # after the measured operators: the solve cannot tell them apart
        rho = states.random_permutation_invariant_mixed(3, rng)
        aux = build_symmetry("permutation", 3).auxiliary[:15]
        measured = tuple((op, expectation(rho, op)) for op in list(sic_povm(3))[:6])
        with_aux = MaxEntProblem(measured, auxiliary=aux, dim=8)
        as_rows = MaxEntProblem(measured + tuple((op, 0.0) for op in aux), (), 8)
        assert np.array_equal(with_aux.operators, as_rows.operators)
        assert np.array_equal(with_aux.targets, as_rows.targets)
        assert np.array_equal(with_aux.variances, as_rows.variances)
        opts = SolverOptions(tolerance=1e-14)
        got, ref = solve(with_aux, opts), solve(as_rows, opts)
        assert got.converged and got.stop_reason == ref.stop_reason
        assert (got.iterations, got.objective, got.n_evals) == (
            ref.iterations, ref.objective, ref.n_evals
        )
        assert np.array_equal(got.lambdas, ref.lambdas)
        assert np.array_equal(got.rho, ref.rho)

    def test_constraints_met_within_sqrt_tolerance(self, rng):
        rho = states.DensityMatrix(random_mixed_state(8, rng))
        prob = problem_from_state(rho, pauli_basis(3)[:15])
        opts = SolverOptions(tolerance=1e-12)
        sol = solve(prob, opts)
        assert sol.converged
        for op, target in zip(prob.operators, prob.targets):
            assert abs(expectation(full_state(sol.rho, 3), op) - target) <= np.sqrt(opts.tolerance)

    def test_werner_five_observables_maximum_fidelity(self, rng):
        # five surviving measurements plus the symmetry constraints pin the
        # state completely
        spec = build_symmetry("werner", 3)
        rho = states.random_werner(3, rng)
        from symmaxent.symmetry import filter_measured_observables

        kept = filter_measured_observables(sic_povm(3), spec.auxiliary)
        assert len(kept) == 5
        prob = problem_from_state(rho, list(kept), spec.auxiliary)
        sol = solve(prob, SolverOptions(tolerance=1e-14))
        assert states.fidelity(rho, full_state(sol.rho, 3)) >= 1 - 1e-3

    def test_symmetric_solution_commutes_with_generators(self, rng):
        spec = build_symmetry("permutation", 3)
        psi = states.haar_symmetric_pure(3, rng)
        rho = psi.density()
        kept = [op for op in sic_povm(3)][:30]
        from symmaxent.symmetry import filter_measured_observables

        filtered = filter_measured_observables(kept, spec.auxiliary)
        prob = problem_from_state(rho, list(filtered), spec.auxiliary)
        sol = solve(prob, SolverOptions(tolerance=1e-14))
        for g in spec.generators:
            assert np.linalg.norm(linalg.commutator(g, sol.rho)) <= 1e-6

    def test_pi_targets_give_permutation_invariant_solution(self, rng):
        spec = build_symmetry("permutation", 3)
        rho = states.haar_symmetric_pure(3, rng).density()
        from symmaxent.symmetry import filter_measured_observables

        filtered = filter_measured_observables(sic_povm(3), spec.auxiliary)
        prob = problem_from_state(rho, list(filtered)[:10], spec.auxiliary)
        sol = solve(prob, SolverOptions(tolerance=1e-14))
        averaged = states.DensityMatrix(symmetry.project(sol.rho, "permutation", 3))
        assert states.fidelity(full_state(sol.rho, 3), averaged) >= 1 - 1e-8

    def test_entropy_optimality_against_perturbations(self, rng):
        # independent check of the entropy-maximization claim: perturb the
        # solution inside the null space of the constraint map (constraints
        # unchanged) and verify no perturbation has higher entropy
        rho = states.DensityMatrix(random_mixed_state(8, rng))
        ops = list(pauli_basis(3))[:12]
        prob = problem_from_state(rho, ops)
        sol = solve(prob, SolverOptions(tolerance=1e-22))
        base_entropy = states.von_neumann_entropy(full_state(sol.rho, 3))

        basis_cols = np.array([op.ravel() for op in ops]).T
        wmin = np.linalg.eigvalsh(sol.rho)[0]
        count = 0
        for _ in range(100):
            h = random_mixed_state(8, rng) - np.eye(8) / 8  # traceless hermitian
            coeffs, *_ = np.linalg.lstsq(basis_cols, h.ravel(), rcond=None)
            h_perp = h - np.tensordot(coeffs, ops, axes=1)
            h_perp = (h_perp + h_perp.conj().T) / 2
            nrm = np.linalg.norm(h_perp)
            if nrm < 1e-12:
                continue
            eps = 0.5 * wmin / max(np.abs(np.linalg.eigvalsh(h_perp)).max(), 1e-12)
            cand = states.DensityMatrix(sol.rho + eps * h_perp)
            for op, target in zip(prob.operators, prob.targets):
                assert abs(expectation(cand, op) - target) <= 1e-6
            assert states.von_neumann_entropy(cand) <= base_entropy + 1e-6
            count += 1
        assert count >= 90

    def test_solution_json_round_trip(self):
        # CLI solve writes the solution's fields, with the estimate as rho
        payload = cli._solve_problem_from_json(
            {"n_qubits": 1, "observables": "pauli", "measured": [{"label": "Z", "target": 0.3}]}
        )
        assert set(payload) == {
            "rho", "lambdas", "objective", "iterations", "converged", "stop_reason",
            "entropy", "n_evals",
        }
        assert payload["converged"] is True
        assert payload["stop_reason"] == "tolerance"


class TestDividedDifferenceKernel:
    @pytest.mark.parametrize("gap", [0.0, 1e-15, 1e-12, 1e-11, 1e-10, 1e-9, 1e-6, 1.0, 700.0])
    def test_matches_decimal_reference(self, gap):
        # Phi_ab = (e^{w_a} - e^{w_b}) / (w_a - w_b), evaluated in 60-digit
        # decimal arithmetic on the same binary eigenvalues
        w = np.array([-1.5 - gap, -1.5, -0.25, 0.0])
        # the pairs a <= b of the upper triangle, as the susceptibility reads them
        pairs = np.triu_indices(4)
        phi = maxent._divided_difference_kernel(w, np.exp(w), pairs)
        worst = 0.0
        with localcontext() as ctx:
            ctx.prec = 60
            for a, b, value in zip(*pairs, phi):
                wa, wb = Decimal(float(w[a])), Decimal(float(w[b]))
                exact = wa.exp() if wa == wb else (wa.exp() - wb.exp()) / (wa - wb)
                worst = max(worst, float(abs(Decimal(float(value)) - exact) / exact))
        assert worst <= 1e-15


class TestProjectedConstraints:
    # the maximum-entropy state over commutant-projected observables equals
    # the state fitted with the auxiliary constraints (the reference path)
    @pytest.mark.parametrize("kind", ["permutation", "werner"])
    def test_matches_auxiliary_solve(self, kind):
        rng = np.random.default_rng([20260809, len(kind)])
        sample = {"permutation": states.random_permutation_invariant_mixed,
                  "werner": states.random_werner}[kind]
        aux = build_symmetry(kind, 3).auxiliary
        sic = list(sic_povm(3))
        opts = SolverOptions(tolerance=1e-24, max_iterations=400)
        worst = 0.0
        for _ in range(20):
            rho = sample(3, rng)
            order = rng.permutation(len(sic))
            ordered = [sic[i] for i in order]
            kept = [ordered[i] for i in symmetry.independent_projections(ordered, kind, 3)]
            use = kept[: int(rng.integers(1, len(kept) + 1))]
            reference = solve(problem_from_state(rho, use, aux), opts)
            projected = solve(
                MaxEntProblem(
                    tuple(
                        (linalg.hermitian(symmetry.project(op, kind, 3), "projection"),
                         expectation(rho, op))
                        for op in use
                    ),
                    (),
                    8,
                ),
                opts,
            )
            assert reference.converged and projected.converged
            worst = max(worst, np.max(np.abs(projected.rho - reference.rho)))
        assert worst <= 1e-8


class TestValidation:
    @pytest.mark.parametrize("dim", [0, -2, 2.0, True])
    def test_rejects_dim_below_one(self, dim):
        # bool is an int subclass: True must not pass as a dimension of 1
        integer = not isinstance(dim, (bool, float))
        match = "dim must be >= 1" if integer else f"dim must be an integer, got {dim!r}"
        with pytest.raises(ValueError, match=match):
            MaxEntProblem((), (), dim)

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_any_dim_solves(self, dim):
        prob = MaxEntProblem((), (), dim)
        assert np.array_equal(solve(prob).rho, np.eye(dim) / dim)

    def test_rejects_non_finite_target(self):
        z = pauli_basis(1)[2]
        with pytest.raises(ValueError, match="finite"):
            MaxEntProblem(((z, np.nan),), (), 2)

    def test_rejects_dim_mismatch(self):
        z = pauli_basis(1)[2]
        with pytest.raises(ValueError, match="dim"):
            MaxEntProblem(((z, 0.1),), (), 8)

    @pytest.mark.parametrize("matrix, match", [
        (np.array([[1.0, 1.0], [0.0, 1.0]]), "not Hermitian"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), "non-finite"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "non-finite"),
        (np.ones((2, 3)), "shape"),
    ])
    def test_rejects_bad_array_operators(self, matrix, match):
        with pytest.raises(ValueError, match=match):
            MaxEntProblem(((matrix, 0.1),), (), 2)

    def test_nearly_hermitian_array_becomes_its_hermitian_part(self):
        skew = np.array([[1.0, 0.5 + 1e-14], [0.5, -1.0]])
        prob = MaxEntProblem(((skew, 0.2),), (), 2)
        assert np.array_equal(prob._rows[0][0], ((skew + skew.T) / 2).ravel())

    @pytest.mark.parametrize("log_weights", [[0.0], [0.0, np.inf], [[0.0, 0.0]]])
    def test_rejects_bad_log_weights(self, log_weights):
        with pytest.raises(ValueError, match="log_weights"):
            MaxEntProblem((), (), 2, log_weights=log_weights)

    def test_solver_options_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(tolerance=0.0)
        with pytest.raises(ValueError):
            SolverOptions(max_iterations=0)
        for tolerance in (np.nan, np.inf, "1e-12", True):
            with pytest.raises(ValueError, match="tolerance"):
                SolverOptions(tolerance=tolerance)
        for budget in (2.5, True, "400"):
            with pytest.raises(ValueError, match="max_iterations"):
                SolverOptions(max_iterations=budget)
        assert SolverOptions(tolerance=np.float64(1e-12), max_iterations=np.int64(5))
        with pytest.raises(ValueError, match="step_rule"):
            SolverOptions(step_rule="backtracking")
        with pytest.raises(ValueError, match="step_rule"):
            SolverOptions(step_rule="bogus")
        for removed in ("lambda0", "record_history"):
            with pytest.raises(TypeError, match=removed):
                SolverOptions(**{removed: None})

    def test_lambda0_supplied(self):
        prob = single_qubit_problem(0.5)
        start = (np.arctanh(0.5),)
        sol = solve(prob, lambda0=start)
        assert sol.converged
        assert sol.iterations == 0

    def test_lambda0_wrong_length_rejected(self):
        prob = single_qubit_problem(0.5)
        with pytest.raises(ValueError, match="expected 1 lambda0"):
            solve(prob, lambda0=(0.1, 0.2))
        with pytest.raises(ValueError, match="finite"):
            solve(prob, lambda0=(np.inf,))


class TestDimensionFree:
    def test_qutrit_closed_form(self):
        # one constraint A = diag(1, 0, -1) with target a: rho is
        # diag(x, 1, 1/x) / (x + 1 + 1/x) with x = e^lambda, and <A> = a
        # solves to x = (a + sqrt(4 - 3 a^2)) / (2 (1 - a))
        a_op = np.diag([1.0, 0.0, -1.0])
        for a in (-0.6, 0.0, 0.3, 0.9):
            sol = solve(MaxEntProblem(((a_op, a),), (), 3), SolverOptions(tolerance=1e-24))
            assert sol.stop_reason == "tolerance"
            x = (a + np.sqrt(4.0 - 3.0 * a * a)) / (2.0 * (1.0 - a))
            assert abs(sol.lambdas[0] - np.log(x)) <= 1e-10
            want = np.diag([x, 1.0, 1.0 / x]) / (x + 1.0 + 1.0 / x)
            assert np.max(np.abs(sol.rho - want)) <= 1e-12

    @pytest.mark.parametrize("kind, n", [("permutation", 3), ("werner", 4)])
    def test_log_weights_without_constraints(self, kind, n):
        # the Gibbs state of the prior alone is diag(m) / sum m, the
        # maximally mixed state on the full space
        m = symmetry.block_weights(kind, n)
        prob = compressed_problem((), kind, n)
        assert np.array_equal(prob.log_weights, np.log(m))
        sol = solve(prob)
        assert sol.converged and sol.iterations == 0
        assert np.max(np.abs(sol.rho - np.diag(m) / m.sum())) <= 1e-15
        full = full_estimate(sol.rho, kind, n)
        assert np.max(np.abs(full - np.eye(2**n) / 2**n)) <= 1e-15
        weighted = solve(MaxEntProblem((), (), 3, log_weights=np.log([1.0, 2.0, 5.0])))
        assert np.max(np.abs(weighted.rho - np.diag([1.0, 2.0, 5.0]) / 8.0)) <= 1e-15

    @pytest.mark.parametrize("module", ["symmetry", "states"])
    def test_maxent_knows_no_qubits_or_symmetries(self, module):
        import ast

        tree = ast.parse(Path(maxent.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[-1])
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[-1] for alias in node.names)
        assert module not in imported
        assert not hasattr(maxent, module)


def declared_pair(shape, rng):
    """One problem in three forms, as (dense, forms, kind, n): the dense
    reference, a problem with symmetry "none" over the commutant
    projections of the SIC or Pauli operators kept by the symmetry filter;
    and the measured pairs of two forms for ``compressed_problem`` under its
    symmetry kind, the same projections and the kept operators themselves,
    which the compression projects. Those two solve on the irrep blocks. The
    targets come from a symmetric state."""
    kind, n, observable_kind = shape.split("_")
    n = int(n[1])
    candidates = list(pauli_basis(n) if observable_kind == "pauli" else sic_povm(n))
    raw = [candidates[i] for i in symmetry.independent_projections(candidates, kind, n)]
    ops = _projected(candidates, kind, n)
    sample = {"permutation": states.random_permutation_invariant_mixed,
              "werner": states.random_werner}[kind]
    rho = sample(n, rng)
    targets = [expectation(rho, op) for op in ops]
    measured = tuple(zip(ops, targets))
    return MaxEntProblem(measured, (), 2**n), (measured, tuple(zip(raw, targets))), kind, n


DECLARED_SHAPES = [
    f"{kind}_n{n}_{obs}" for kind in ("permutation", "werner") for n in (3, 4)
    for obs in ("sic", "pauli")
]


class TestDeclaredSymmetry:
    @pytest.mark.parametrize("which", ["random", "zero", "near_pure"])
    @pytest.mark.parametrize("shape", DECLARED_SHAPES)
    def test_kernels_match_the_dense_problem(self, shape, which):
        # At near-pure multipliers C = Y Y^T / Z - g g^T cancels from the
        # scale of g g^T down to 1e-17 and less, so C and the gradient are
        # compared on that scale; rho and the objective on their own norms.
        # There the dense reference rho is itself off by up to 9.3e-13 (on
        # werner_n4_sic, against 40-digit mpmath expm; the blocks by
        # 8.7e-14): its 16 x 16 spectrum has (2j+1)-fold degenerate levels
        # spread over 2000. So near-pure rho is compared at 2e-12.
        rng = np.random.default_rng([20261020, DECLARED_SHAPES.index(shape)])
        dense, forms, kind, n = declared_pair(shape, rng)
        declared = [compressed_problem(measured, kind, n) for measured in forms]
        lam = oracle_multipliers(dense, which, rng)
        _, g, r, _, _ = dense._evaluate(lam)
        rho = rho_of_lambda(dense, lam)
        rho_tol = 2e-12 if which == "near_pure" else 1e-12
        f = objective(dense, lam)
        c = susceptibility(dense, lam)
        scale = np.linalg.norm(c) + g @ g
        grad = gradient(dense, lam)
        for blocks in declared:
            rho_blocks = full_estimate(rho_of_lambda(blocks, lam), kind, n)
            assert np.linalg.norm(rho_blocks - rho) <= rho_tol * np.linalg.norm(rho)
            assert abs(objective(blocks, lam) - f) <= 1e-12 * f
            assert np.linalg.norm(susceptibility(blocks, lam) - c) <= 1e-12 * scale
            assert (np.linalg.norm(gradient(blocks, lam) - grad)
                    <= 2e-12 * scale * np.linalg.norm(r))

    @pytest.mark.parametrize("shape", DECLARED_SHAPES)
    def test_solve_matches_the_dense_problem(self, shape):
        rng = np.random.default_rng([20261021, DECLARED_SHAPES.index(shape)])
        dense, forms, kind, n = declared_pair(shape, rng)
        opts = SolverOptions(tolerance=1e-14)
        for k in sorted({1, dense.n_constraints // 3, dense.n_constraints}):
            reference = solve(MaxEntProblem(forms[0][:k], (), dense.dim), opts)
            for measured in forms:
                sub = compressed_problem(measured[:k], kind, n)
                solution = solve(sub, opts)
                assert solution.iterations == reference.iterations
                assert solution.converged == reference.converged
                assert solution.stop_reason == reference.stop_reason == "tolerance"
                rho = full_estimate(solution.rho, kind, n)
                assert np.max(np.abs(rho - reference.rho)) <= 1e-10

    @pytest.mark.parametrize("kind", ["permutation", "werner"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_empty_problem(self, kind, n):
        prob = compressed_problem((), kind, n)
        rho = full_estimate(rho_of_lambda(prob, []), kind, n)
        assert np.max(np.abs(rho - np.eye(2**n) / 2**n)) <= 1e-15
        sol = solve(prob)
        assert sol.converged and sol.iterations == 0
        assert susceptibility(prob, []).shape == (0, 0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown symmetry kind 'cyclic'"):
            compressed_problem((), "cyclic", 3)

    def test_rejects_one_qubit_permutation(self):
        with pytest.raises(ValueError, match="at least 2 qubits"):
            compressed_problem((), "permutation", 1)


LEADING_SHAPES = [
    "n3_none", "n3_aux15", "permutation_n3_sic", "werner_n3_sic", "permutation_n4_sic",
]


def leading_problem(shape, rng):
    """Problems a sweep state solves prefixes of, as (problem, measured,
    kind, n) with the pairs ``compressed_problem`` built it from: raw SIC
    operators with no symmetry or with a declared one, and one with
    auxiliary constraints."""
    if shape in ("n3_none", "n3_aux15"):
        measured, kind, n = pairs(susceptibility_problem(shape, rng)), "none", 3
    else:
        _, (_, measured), kind, n = declared_pair(shape, rng)
    return compressed_problem(measured, kind, n), measured, kind, n


class TestLeading:
    @pytest.mark.parametrize("shape", LEADING_SHAPES)
    def test_solves_like_the_prefix_problem(self, shape):
        # the slice is the first k rows, auxiliary rows included. Its
        # operators are rows of one stack compressed at once; for k >= 2 they
        # equal the prefix problem's own compression exactly. A one-row
        # product takes another BLAS path, so k = 1 may differ by rounding.
        rng = np.random.default_rng([20261022, LEADING_SHAPES.index(shape)])
        prob, measured, kind, n = leading_problem(shape, rng)
        opts = SolverOptions(tolerance=1e-14)
        for k in range(prob.n_constraints + 1):
            sub = prob.leading(k)
            assert np.array_equal(sub.operators, prob.operators[:k])
            assert np.array_equal(sub.targets, prob.targets[:k])
            got = solve(sub, opts)
            ref = solve(compressed_problem(measured[:k], kind, n), opts)
            got_rho, ref_rho = (full_estimate(x.rho, kind, n) for x in (got, ref))
            assert got.stop_reason == ref.stop_reason
            if k == 1:
                assert np.max(np.abs(got_rho - ref_rho)) <= 1e-15
                scale = max(1.0, np.max(np.abs(ref.lambdas)))
                assert np.max(np.abs(got.lambdas - ref.lambdas)) <= 1e-15 * scale
                continue
            assert np.array_equal(got.lambdas, ref.lambdas)
            assert np.array_equal(got_rho, ref_rho)
            assert got.iterations == ref.iterations

    def test_compresses_once(self, monkeypatch):
        # one compression per compressed_problem; none from a kernel, a
        # slice or a solve
        rng = np.random.default_rng([20261023])
        calls = []
        coordinates = symmetry.coordinates

        def spy(stack, kind, n):
            calls.append(len(stack))
            return coordinates(stack, kind, n)

        monkeypatch.setattr(symmetry, "coordinates", spy)
        prob, *_ = leading_problem("permutation_n4_sic", rng)
        assert calls == [prob.n_constraints]
        lam = np.full(prob.n_constraints, 0.1)
        for kernel in (rho_of_lambda, objective, gradient, susceptibility, objective):
            kernel(prob, lam)
        for k in (2, 10, prob.n_constraints):
            sub = prob.leading(k)
            solve(sub)
            objective(sub, lam[:k])
        assert calls == [prob.n_constraints]

    @pytest.mark.parametrize("symmetry_kind", ["none", "permutation"])
    def test_slices_like_a_fresh_problem(self, monkeypatch, symmetry_kind):
        # the slice is views of the parent's validated arrays, equal to those
        # of a problem built on the first k, and it solves like that problem
        # bit for bit, variances included. Under a symmetry a one-row
        # compression takes another BLAS path, so there k = 1 is left out
        rng = np.random.default_rng([20261019, symmetry_kind == "none"])
        measured = noisy_measured(rng, n_ops=12, symmetry_kind=symmetry_kind)
        prob = compressed_problem(measured, symmetry_kind, 3, rng.uniform(0, 4e-3, 12))
        fresh = {
            k: compressed_problem(measured[:k], symmetry_kind, 3, prob.variances[:k])
            for k in range(13)
        }
        # every problem builds its rows now, and its side-by-side operators
        # on first use; after this nothing is validated or compressed again
        for problem in (prob, *fresh.values()):
            dim, k = problem.dim, problem.n_constraints
            assert len(problem._rows) == 2 and problem._cols.shape == (dim, dim * k)
        monkeypatch.setattr(MaxEntProblem, "__init__", None)
        monkeypatch.setattr(maxent, "hermitian", None)
        monkeypatch.setattr(symmetry, "compress", None)
        monkeypatch.setattr(symmetry, "coordinates", None)
        for k in range(13):
            sub, ref = prob.leading(k), fresh[k]
            assert np.array_equal(sub.operators, prob.operators[:k]) and sub.n_constraints == k
            assert np.array_equal(sub.targets, ref.targets)
            assert np.array_equal(sub.variances, ref.variances)
            assert not sub.variances.flags.writeable
            for got, parent in zip((sub.operators, *sub._rows, sub._cols),
                                   (prob.operators, *prob._rows, prob._cols)):
                assert np.shares_memory(got, parent) or k == 0
            if k == 1 and symmetry_kind != "none":
                continue
            assert np.array_equal(sub.operators, ref.operators)
            for got, want in zip((*sub._rows, sub._cols), (*ref._rows, ref._cols)):
                assert np.array_equal(got, want)
            got, want = solve(sub), solve(ref)
            assert got.stop_reason == want.stop_reason == "tolerance"
            assert got.iterations == want.iterations and got.n_evals == want.n_evals
            assert np.array_equal(got.lambdas, want.lambdas)
            assert np.array_equal(
                full_estimate(got.rho, symmetry_kind, 3), full_estimate(want.rho, symmetry_kind, 3)
            )

    def test_slice_of_a_slice(self):
        rng = np.random.default_rng([20261020])
        prob, *_ = leading_problem("permutation_n4_sic", rng)
        twice, once = prob.leading(20).leading(7), prob.leading(7)
        assert np.array_equal(twice.operators, once.operators)
        assert np.array_equal(twice.targets, once.targets)
        for got, want in zip((*twice._rows, twice._cols), (*once._rows, once._cols)):
            assert np.array_equal(got, want)
        assert np.array_equal(solve(twice).lambdas, solve(once).lambdas)

    @pytest.mark.parametrize("k", [-1, 35, True, 1.0])
    def test_rejects_k_outside_the_measured_range(self, k):
        prob, *_ = leading_problem("permutation_n4_sic", np.random.default_rng(0))
        assert prob.n_constraints == 34
        integer = not isinstance(k, (bool, float))
        match = r"k must be in \[0, 34\]" if integer else f"k must be an integer, got {k!r}"
        with pytest.raises(ValueError, match=match):
            prob.leading(k)


def canonical_problem(observable_kind, kind, n):
    """The sweep's canonical problem, (problem, candidates): zero targets on
    every canonical observable, compressed in chunks from their coordinates
    under a symmetry and on the observables themselves under "none"."""
    candidates = canonical_set(observable_kind, n)
    if kind == "none":
        return MaxEntProblem._zero_targets(candidates), candidates
    coords = symmetry.coordinates(candidates, kind, n)
    return symmetry.coordinate_problem(coords, kind, n), candidates


TAKE_SHAPES = [(obs, kind, n) for kind in ("none", "permutation", "werner") for n in (2, 3, 4)
               for obs in ("sic", "pauli")]


class TestTake:
    @pytest.mark.parametrize("observable_kind, kind, n", TAKE_SHAPES)
    def test_gathers_the_compressed_problem_of_its_operators(self, observable_kind, kind, n):
        # the gathered rows, targets, variances and log weights are those of
        # compressed_problem on the same operators in the same order, bit for
        # bit, from empty and single-index gathers up to the whole set. A
        # lone operator's compression takes BLAS's matrix-vector path, so a
        # single row is compared with the first row of a problem of two
        rng = np.random.default_rng([20261021, TAKE_SHAPES.index((observable_kind, kind, n))])
        zero, candidates = canonical_problem(observable_kind, kind, n)
        size = len(candidates)
        targets, variances = rng.uniform(-1, 1, size), rng.uniform(0, 1e-3, size)
        source = zero.with_targets(targets, variances)

        def built(measured, var):
            if len(measured) != 1:
                return compressed_problem(measured, kind, n, var)
            return compressed_problem(measured * 2, kind, n, np.tile(var, 2)).leading(1)

        for count in sorted({0, 1, 2, min(17, size), size}):
            idx = rng.permutation(size)[:count].tolist()
            got = source.take(idx)
            measured = tuple((candidates[i], targets[i]) for i in idx)
            want = built(measured, variances[idx])
            assert got.n_constraints == count
            for a, b in zip((got.operators, *got._rows, got._cols),
                            (want.operators, *want._rows, want._cols)):
                assert np.array_equal(a, b)
            assert np.array_equal(got.targets, want.targets)
            assert np.array_equal(got.variances, want.variances)
            assert got.log_weights is source.log_weights
            assert np.array_equal(got.log_weights, want.log_weights)
            for k in sorted({0, min(1, count), count // 2, count}):
                sub = got.leading(k)
                ref = built(measured[:k], variances[idx][:k])
                for a, b in zip((*sub._rows, sub._cols), (*ref._rows, ref._cols)):
                    assert np.array_equal(a, b)
                assert np.array_equal(sub.targets, ref.targets)
                assert np.array_equal(sub.variances, ref.variances)

    @pytest.mark.parametrize("kind", ["none", "permutation", "werner"])
    def test_solves_like_the_compressed_problem(self, kind):
        # a shuffled state's gather solves bit for bit like a problem built
        # afresh on its operators, on every leading slice
        rng = np.random.default_rng([20261022, len(kind)])
        zero, candidates = canonical_problem("sic", kind, 3)
        rho = states.sample("werner", 3, rng, 0.0, 1)
        idx = rng.permutation(len(candidates))[:6].tolist()
        targets = [expectation(rho, candidates[i]) for i in idx]
        got = zero.take(idx).with_targets(targets)
        want = compressed_problem(tuple(zip(candidates[idx], targets)), kind, 3)
        for k in range(7):
            a, b = solve(got.leading(k)), solve(want.leading(k))
            assert a.stop_reason == b.stop_reason and a.iterations == b.iterations
            assert np.array_equal(a.lambdas, b.lambdas) and np.array_equal(a.rho, b.rho)

    def test_gather_is_read_only_and_checks_nothing(self, monkeypatch):
        # the gather copies validated rows: no operator is checked again,
        # and nothing it returns can be written
        zero, _ = canonical_problem("sic", "permutation", 4)
        source = zero.with_targets(np.linspace(-0.5, 0.5, 255), np.full(255, 1e-4))
        calls = []

        def spy(m, what):
            calls.append(what)
            return linalg.hermitian(m, what)

        monkeypatch.setattr(linalg, "hermitian", spy)
        monkeypatch.setattr(maxent, "hermitian", spy)
        got = source.take([200, 3, 41, 7])
        assert calls == []
        for arr in (got.operators, *got._rows, got._cols, got.targets, got.variances,
                    got.log_weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[..., 0] = 0.0
        assert not any(np.shares_memory(a, b) for a, b in zip(got._rows, source._rows))
        assert np.array_equal(got.targets, source.targets[[200, 3, 41, 7]])
        assert np.array_equal(got.operators, source.operators[[200, 3, 41, 7]])

    @pytest.mark.parametrize("kind", ["none", "permutation", "werner"])
    def test_copies_share_their_layouts(self, kind):
        # a sweep state solves leading slices of a gathered, re-targeted
        # problem. Every copy shares the index pairs of the stack it came
        # from, and the memory of its operators: the gather builds its
        # side-by-side operators once, and its re-targeted copies and their
        # slices share them, so no solve rebuilds a layout
        zero, _ = canonical_problem("sic", kind, 3)
        gathered = zero.take([40, 3, 17, 9, 62])
        cols = vars(gathered)["_cols"]
        assert gathered._pairs is zero._pairs
        retargeted = gathered.with_targets(np.linspace(-0.5, 0.5, 5), np.full(5, 1e-4))
        assert retargeted._pairs is zero._pairs
        assert retargeted.operators is gathered.operators
        assert retargeted._rows is gathered._rows and retargeted._cols is cols
        for parent in (zero, retargeted):
            for k in range(1, 6):
                sub = parent.leading(k)
                assert sub._pairs is zero._pairs
                for got, source in zip((sub.operators, *sub._rows, sub._cols),
                                       (parent.operators, *parent._rows, parent._cols)):
                    assert np.shares_memory(got, source)

    @pytest.mark.parametrize("indices, match", [
        ([0, 255], r"indices must be in \[0, 255\)"),
        ([-1], r"indices must be in \[0, 255\)"),
        ([[0, 1]], "one sequence of integers"),
        ([0.0, 1.0], "one sequence of integers"),
        ([True, False], "one sequence of integers"),
    ])
    def test_rejects_indices_outside_the_problem(self, indices, match):
        zero, _ = canonical_problem("sic", "permutation", 4)
        with pytest.raises(ValueError, match=match):
            zero.take(indices)


def noisy_measured(rng, n_ops=10, sigma=0.05, symmetry_kind="none"):
    """Measured pairs on three qubits: targets of a random state moved by
    Gaussian noise of standard deviation ``sigma``."""
    if symmetry_kind == "none":
        rho = states.DensityMatrix(random_mixed_state(8, rng))
        ops = list(pauli_basis(3))[:n_ops]
    else:
        rho = states.random_permutation_invariant_mixed(3, rng)
        ops = _projected(list(sic_povm(3)), symmetry_kind, 3)[:n_ops]
    return tuple((op, expectation(rho, op) + rng.normal(0, sigma)) for op in ops)


def noisy_problem(rng, n_ops=10, sigma=0.05, symmetry_kind="none"):
    """The problem of ``noisy_measured``, with the noise declared as the
    targets' variances."""
    measured = noisy_measured(rng, n_ops, sigma, symmetry_kind)
    return compressed_problem(measured, symmetry_kind, 3, np.full(len(measured), sigma**2))


class TestWithTargets:
    @pytest.mark.parametrize("symmetry_kind", ["none", "permutation"])
    def test_solves_like_a_fresh_problem(self, monkeypatch, symmetry_kind):
        # a re-targeted problem shares its source's operator rows and log
        # weights, and solves bit for bit like a problem built afresh on the
        # same operators with its targets and variances
        rng = np.random.default_rng([20261020, symmetry_kind == "none"])
        measured = noisy_measured(rng, n_ops=12, symmetry_kind=symmetry_kind)
        source = compressed_problem(measured, symmetry_kind, 3, rng.uniform(0, 4e-3, 12))
        other = noisy_measured(rng, n_ops=12, symmetry_kind=symmetry_kind)
        targets, variances = [t for _, t in other], rng.uniform(0, 4e-3, 12)
        fresh = compressed_problem(
            tuple((op, t) for (op, _), t in zip(measured, targets)), symmetry_kind, 3, variances
        )
        monkeypatch.setattr(MaxEntProblem, "__init__", None)
        monkeypatch.setattr(maxent, "hermitian", None)
        monkeypatch.setattr(symmetry, "compress", None)
        monkeypatch.setattr(symmetry, "coordinates", None)
        got = source.with_targets(targets, variances)
        assert np.array_equal(got.operators, fresh.operators)
        assert got.operators is source.operators
        assert np.array_equal(got.targets, targets) and not got.targets.flags.writeable
        assert np.array_equal(got.variances, variances) and not got.variances.flags.writeable
        assert got.log_weights is source.log_weights
        for rows, parent, want in zip(got._rows, source._rows, fresh._rows):
            assert np.shares_memory(rows, parent)
            assert np.array_equal(rows, want)
        # the source keeps its own data
        assert np.array_equal(source.targets, [t for _, t in measured])
        a, b = solve(got), solve(fresh)
        assert a.stop_reason == b.stop_reason and a.iterations == b.iterations
        assert np.array_equal(a.lambdas, b.lambdas) and np.array_equal(a.rho, b.rho)

    def test_variances_default_to_exact(self):
        prob = single_qubit_problem(0.3).with_targets([0.5])
        assert np.array_equal(prob.variances, [0.0])
        assert np.array_equal(prob.targets, [0.5])
        assert solve(prob).converged

    @pytest.mark.parametrize(
        "targets, variances, match",
        [([0.1], None, r"expected 2 targets, got shape \(1,\)"),
         ([[0.1, 0.2]], None, r"expected 2 targets, got shape \(1, 2\)"),
         ([0.1, np.nan], None, "targets must be finite"),
         ([0.1, np.inf], None, "targets must be finite"),
         ([0.1, 0.2], [1e-3], r"expected 2 variances, got shape \(1,\)"),
         ([0.1, 0.2], [1e-3, -1e-9], ">= 0"),
         ([0.1, 0.2], [1e-3, np.nan], "finite"),
         ([0.1, 0.2], [np.inf, 1e-3], "finite")],
    )
    def test_rejects_bad_data(self, targets, variances, match):
        z, x = pauli_basis(1)[2], pauli_basis(1)[0]
        prob = MaxEntProblem(((z, 0.1), (x, 0.2)), (), 2)
        with pytest.raises(ValueError, match=match):
            prob.with_targets(targets, variances)


class TestVariances:
    def test_default_is_exact(self):
        prob = single_qubit_problem(0.3)
        assert np.array_equal(prob.variances, [0.0])
        aux = build_symmetry("permutation", 3).auxiliary[:3]
        z3 = pauli_basis(3)[3]
        with_aux = MaxEntProblem(((z3, 0.1),), aux, 8, variances=[0.5])
        # auxiliary rows are exact
        assert np.array_equal(with_aux.variances, [0.5, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "variances, match",
        [([0.1, 0.2], r"expected 1 variances, got shape \(2,\)"),
         ([-1e-9], ">= 0"), ([np.nan], "finite"), ([np.inf], "finite")],
    )
    def test_rejects_bad_variances(self, variances, match):
        z = pauli_basis(1)[2]
        with pytest.raises(ValueError, match=match):
            MaxEntProblem(((z, 0.1),), (), 2, variances=variances)

    def test_leading_slices_variances(self, rng):
        prob = noisy_problem(rng)
        prob = MaxEntProblem(pairs(prob), (), 8, variances=np.arange(10) * 1e-3)
        sub = prob.leading(4)
        assert np.array_equal(sub.variances, prob.variances[:4])
        ref = MaxEntProblem(pairs(prob)[:4], (), 8, variances=prob.variances[:4])
        got, want = solve(sub), solve(ref)
        assert np.array_equal(got.lambdas, want.lambdas)

    def test_gradient_matches_finite_differences(self, rng):
        prob = noisy_problem(rng)
        lam = rng.normal(0, 0.5, prob.n_constraints)
        fd = finite_difference_gradient(prob, lam)
        assert np.linalg.norm(gradient(prob, lam) - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_residual_is_the_dual_gradient(self, rng):
        # central differences of Phi = log Z - lambda . a + lambda Sigma lambda / 2
        prob = noisy_problem(rng)
        lam = rng.normal(0, 0.5, prob.n_constraints)
        _, _, r, _, _ = prob._evaluate(lam)
        fd = np.zeros_like(lam)
        for j in range(lam.size):
            up, down = lam.copy(), lam.copy()
            up[j] += 1e-5
            down[j] -= 1e-5
            fd[j] = (prob._evaluate(up)[4] - prob._evaluate(down)[4]) / 2e-5
        assert np.linalg.norm(r - fd) <= 1e-7 * np.linalg.norm(r)

    @pytest.mark.parametrize("symmetry_kind", ["none", "permutation"])
    @pytest.mark.parametrize("seed", range(3))
    def test_noisy_solve_minimises_the_dual(self, seed, symmetry_kind):
        # noisy targets fit no state, but the regularised dual has a finite
        # minimiser: g - a + Sigma lambda = 0 there, with g the estimate's
        # expectations, and the solve reaches the tolerance
        rng = np.random.default_rng([20261019, seed])
        measured = noisy_measured(rng, n_ops=15, sigma=0.3, symmetry_kind=symmetry_kind)
        prob = compressed_problem(measured, symmetry_kind, 3, np.full(15, 0.3**2))
        sol = solve(prob, SolverOptions(tolerance=1e-20))
        assert sol.stop_reason == "tolerance"
        targets = prob.targets
        rho = full_state(sol.rho, 3, symmetry_kind)
        g = np.array([expectation(rho, op) for op, _ in measured])
        assert np.max(np.abs(g - targets + prob.variances * sol.lambdas)) <= 1e-9
        # without the variances no state meets the same targets
        exact = solve(compressed_problem(measured, symmetry_kind, 3))
        assert exact.stop_reason == "infeasible"


class TestEntropyAndEvaluations:
    @pytest.mark.parametrize("symmetry_kind", ["none", "permutation", "werner"])
    def test_entropy_is_von_neumann(self, symmetry_kind):
        rng = np.random.default_rng([20261024, symmetry.KINDS.index(symmetry_kind)])
        if symmetry_kind == "none":
            rho = states.DensityMatrix(random_mixed_state(8, rng))
            ops = list(sic_povm(3))[:20]
        else:
            sample = {"permutation": states.random_permutation_invariant_mixed,
                      "werner": states.random_werner}[symmetry_kind]
            rho = sample(3, rng)
            ops = _projected(list(sic_povm(3)), symmetry_kind, 3)
        measured = tuple((op, expectation(rho, op)) for op in ops)
        for k in (0, 1, len(ops) // 2, len(ops)):
            prob = compressed_problem(measured[:k], symmetry_kind, 3)
            # under a symmetry the estimate is weighted by the blocks' copies
            assert (prob.log_weights is None) == (symmetry_kind == "none")
            sol = solve(prob, SolverOptions(tolerance=1e-16))
            assert sol.converged
            rho = full_state(sol.rho, 3, symmetry_kind)
            assert abs(sol.entropy - states.von_neumann_entropy(rho)) <= 1e-9
            assert sol.n_evals >= sol.iterations + 1

    def test_empty_problem_entropy_and_one_evaluation(self):
        sol = solve(MaxEntProblem((), (), 8))
        assert sol.entropy == pytest.approx(np.log(8), abs=1e-15)
        assert sol.n_evals == 1

    def test_evaluations_counted(self, rng, monkeypatch):
        rho = states.DensityMatrix(random_mixed_state(8, rng))
        prob = problem_from_state(rho, pauli_basis(3)[:20])
        calls = []
        gibbs = MaxEntProblem._gibbs

        def spy(self, lambdas):
            calls.append(1)
            return gibbs(self, lambdas)

        monkeypatch.setattr(MaxEntProblem, "_gibbs", spy)
        sol = solve(prob)
        assert sol.n_evals == len(calls)


def _unbiased_sic_problems(seed, batch_size, monkeypatch):
    """The problems a three-qubit SIC sweep with shuffled orders solves, in
    order, as the benchmark's unbiased_sic workload shapes them."""
    from symmaxent import harness

    config = harness.ExperimentConfig(
        n_qubits=3, state_family="haar_pure", observable_kind="sic",
        shuffle_observables=True, r_values=tuple(range(2, 51, 2)) + (55, 60, 63),
        solver=SolverOptions(tolerance=1e-12), seed=seed, batch_size=batch_size,
    )
    problems = []

    def spy(problem, options, lambda0=None):
        problems.append(problem)
        return solve(problem, options, lambda0)

    monkeypatch.setenv(harness.THREADS_ENV_VAR, "1")
    monkeypatch.setattr(harness, "solve", spy)
    harness.run_sweep(config)
    return problems, config.solver


def test_cold_and_warm_starts_agree(monkeypatch):
    # each state's problems grow along r; a warm start seeds each from the
    # last one's multipliers, padded with zeros. Both must find the one
    # maximum-entropy state. The least-squares merit disagreed by up to
    # 7.8e-4 in fidelity on 6 of these 112 pairs.
    problems, options = _unbiased_sic_problems(4, 4, monkeypatch)
    assert len(problems) == 4 * 28
    lam = np.zeros(0)
    worst = 0.0
    for prob in problems:
        if prob.n_constraints <= lam.size:
            lam = np.zeros(0)
        cold = solve(prob, options)
        warm = solve(prob, options, np.concatenate([lam, np.zeros(prob.n_constraints - lam.size)]))
        lam = warm.lambdas
        assert cold.converged and warm.converged
        worst = max(worst, 1.0 - states.fidelity(full_state(cold.rho, 3), full_state(warm.rho, 3)))
    assert worst <= 1e-4


def _mp_dual_minimiser(ops, targets, mp):
    """The state minimising Phi = log Tr exp(sum_i l_i A_i) - l . a at the
    working precision of ``mp``: damped Newton on Phi from l = 0, with a
    forward-difference Hessian, until ||grad|| < 10^(10 - dps)."""
    mats = [mp.matrix(op.tolist()) for op in ops]
    a = [mp.mpf(t) for t in targets]
    dim = mats[0].rows

    def point(lam):
        h = mp.zeros(dim, dim)
        for weight, m in zip(lam, mats):
            h += weight * m
        e = mp.expm(h)
        z = mp.re(sum(e[i, i] for i in range(dim)))
        rho = e / z
        grad = [mp.re(sum((m * rho)[i, i] for i in range(dim))) - t for m, t in zip(mats, a)]
        return rho, grad, mp.log(z) - mp.fsum(w * t for w, t in zip(lam, a))

    lam = [mp.mpf(0)] * len(ops)
    step = mp.mpf(10) ** (-mp.dps // 2)
    for _ in range(60):
        rho, grad, dual = point(lam)
        if mp.norm(mp.matrix(grad)) < mp.mpf(10) ** (10 - mp.dps):
            return np.array(rho.tolist(), dtype=complex)
        hess = mp.matrix(len(ops), len(ops))
        for j in range(len(ops)):
            up = list(lam)
            up[j] += step
            for i, gi in enumerate(point(up)[1]):
                hess[i, j] = (gi - grad[i]) / step
        delta = mp.lu_solve(hess, -mp.matrix(grad))
        slope = mp.fsum(g * d for g, d in zip(grad, delta))
        t = mp.mpf(1)
        while point([w + t * d for w, d in zip(lam, delta)])[2] > dual + t * slope / 10**4:
            t /= 2
        lam = [w + t * d for w, d in zip(lam, delta)]
    raise AssertionError("the 40-digit dual minimisation did not converge")


def _oracle_case(case):
    """Full-rank two-qubit problems with K <= 6: random Pauli and SIC
    subsets of a random mixed state, and a Gibbs state whose spectrum holds
    a pair of eigenvalues 2e-9 apart."""
    rng = np.random.default_rng([20261025, case])
    paulis, sic = list(pauli_basis(2)), list(sic_povm(2))
    if case == 3:
        ops = [canonical_operator("pauli", 2, label) for label in ("ZI", "IZ", "XX", "YY")]
        h = sum(w * op for w, op in zip((0.5, 0.5, 1e-9, 0.0), ops))
        w, v = np.linalg.eigh(h)
        rho = states.DensityMatrix((v * np.exp(w)) @ v.conj().T / np.exp(w).sum())
    else:
        pool, k = ((paulis, 6), (sic, 5), (paulis, 4))[case]
        ops = [pool[i] for i in rng.choice(len(pool), k, replace=False)]
        rho = states.DensityMatrix(random_mixed_state(4, rng))
    return problem_from_state(rho, ops), ops


@pytest.mark.parametrize("case", range(4))
def test_solution_matches_40_digit_dual_minimiser(case):
    mpmath = pytest.importorskip("mpmath")
    prob, ops = _oracle_case(case)
    sol = solve(prob, SolverOptions(tolerance=1e-20))
    assert sol.converged
    with mpmath.workdps(40):
        oracle = _mp_dual_minimiser(ops, prob.targets, mpmath.mp)
    assert np.linalg.eigvalsh(oracle)[0] > 0.01
    assert np.max(np.abs(sol.rho - oracle)) <= 1e-9
