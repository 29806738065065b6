"""Constrained maximum-entropy estimation.

Given expectation-value constraints Tr(A_i rho) = a_i, the
entropy-maximizing state is the Gibbs form

    rho(lambda) = exp(sum_i lambda_i A_i) / Z,

and the multipliers are fixed by driving the squared constraint mismatch

    f(lambda) = sum_i (Tr(A_i rho(lambda)) - a_i)^2

to zero. The exponent is always Hermitian, so rho is evaluated by
eigendecomposition with the spectrum shifted by its top eigenvalue before
exponentiation; the shift cancels against the normalization and prevents
overflow when constraints push the state toward purity (diverging
multipliers).

The derivative of an expectation with respect to a multiplier runs through
the directional derivative of the matrix exponential, evaluated in the
eigenbasis with the divided-difference kernel

    Phi_ab = (e^{w_a} - e^{w_b}) / (w_a - w_b),   Phi_aa = e^{w_a}.

With the operators stored side by side, two GEMMs rotate all of them into
the eigenbasis at once, atil_k = v^H A_k v. Phi is positive, so scaling by
its real square root and viewing each scaled atil_k as one real row Y_k
gives the susceptibility as a single real rank-K product,
C = Y Y^T / Z - g g^T with g the expectations, which is exactly symmetric.

A problem that declares a symmetry constrains the commutant projection
P(A_i) of each measured operator in place of A_i itself: for a symmetric
state Tr(A rho) = Tr(P(A) rho), and the exponent and rho then lie in the
commutant, which is block diagonal in the total-spin basis. Its solve runs
on one copy of each block: at four qubits a 9 x 9 eigensystem under
permutation symmetry and 6 x 6 under werner symmetry instead of 16 x 16.
The blocks' multiplicities M = diag(m) enter only as a constant reference
weight. M is constant on each block and commutes with the block-diagonal
exponent H, so Z = Tr(M e^H) = Tr e^(H + log M): the compressed solve is
the plain solve with log m added to the exponent's diagonal, the Gibbs form
of minimum relative entropy with prior M (Csiszar, Ann. Probab. 3, 146
(1975)). ``symmetry.compress`` places the operators' commutant coordinates
on the blocks, and ``symmetry.expand`` returns the estimate to the full
space once, at the end of a solve.

A problem builds its stacked, compressed operators and the arrays derived
from them once, on first use, for every solve and kernel call on it. A sweep
state builds one problem and solves its leading slices on the first r
observables (``MaxEntProblem.leading``), whose operators are its rows.

The multipliers are updated by damped Newton steps on the constraint
equations: solve (C + mu s I) delta = -(residuals), with C the constraint
susceptibility matrix C_ij = d<A_i>/dlambda_j, s its mean diagonal and mu a
damping that grows tenfold on each rejected trial and shrinks after an
accepted step. The direction is always a descent direction for f; a step is
accepted only if it passes the Armijo decrease test with constant ARMIJO_C,
so f never increases.

Infeasible (noisy) targets keep f above a positive least-squares floor, so
it never falls below tolerance. The gradient of f is 2 C r, and the solve
stops once an iterate is first-order stationary, ||C r|| <= STATIONARY_TOL
tr(C) ||r||. C is PSD, so tr C >= ||C||_2 and the test reads the same when the
operators or the targets are rescaled. Each solve reports why it stopped
(``MaxEntSolution.stop_reason``):

- ``"tolerance"``: f fell below the tolerance;
- ``"stationary"``: the first-order test above held;
- ``"no_descent"``: no damping produced a step that passes the Armijo test;
- ``"budget"``: the iteration budget ran out.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from . import symmetry
from .linalg import HermitianOperator
from .states import DensityMatrix

# sufficient-decrease constant of the Armijo test on each Newton step
ARMIJO_C = 1e-4

# a solve stops as stationary once ||C r|| <= STATIONARY_TOL tr(C) ||r||
STATIONARY_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class MaxEntProblem:
    """Measured observables with targets.

    ``auxiliary`` observables are constraints with target zero. They are
    appended to ``measured`` as zero-target rows when the problem is built,
    so a problem has one constraint list.

    ``symmetry`` declares a symmetry kind (see ``symmetry.KINDS``). The
    problem then constrains the commutant projection of each measured
    operator, which a symmetric state cannot tell from the operator itself,
    and the solve runs on one copy of each irreducible block of the
    commutant (``symmetry.compress``) instead of the full matrix. A declared
    symmetry takes no auxiliary constraints: they are what the projection
    replaces.
    """

    measured: tuple[tuple[HermitianOperator, float], ...]
    auxiliary: InitVar[tuple[HermitianOperator, ...]]
    dim: int
    symmetry: str = "none"

    def __post_init__(self, auxiliary):
        if self.dim < 2 or self.dim & (self.dim - 1):
            raise ValueError(f"dim must be a power of two >= 2, got {self.dim}")
        if self.symmetry not in symmetry.KINDS:
            raise ValueError(f"unknown symmetry kind {self.symmetry!r}")
        zero_rows = tuple((op, 0.0) for op in auxiliary)
        measured = tuple((op, float(t)) for op, t in self.measured) + zero_rows
        object.__setattr__(self, "measured", measured)
        for op, t in measured:
            if op.dim != self.dim:
                raise ValueError(f"measured observable {op.label!r} has dim {op.dim}")
            if not np.isfinite(t):
                raise ValueError(f"target for {op.label!r} is not finite")
        weights = log_weights = None
        if self.symmetry != "none":
            if zero_rows:
                raise ValueError(
                    f"auxiliary constraints cannot be combined with symmetry "
                    f"{self.symmetry!r}: constrain the commutant projections instead"
                )
            # rejects a kind the block construction cannot serve, such as
            # permutation symmetry on one qubit
            weights = symmetry.block_weights(self.symmetry, self.n_qubits)
            log_weights = np.log(weights)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_log_weights", log_weights)
        object.__setattr__(self, "_targets", np.array([t for _, t in measured], dtype=float))

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    @property
    def n_constraints(self) -> int:
        return len(self.measured)

    def operator_stack(self) -> np.ndarray:
        """(K, dim, dim) array of the constraint operators, as given; a
        declared symmetry constrains their commutant projections."""
        if not self.measured:
            return np.zeros((0, self.dim, self.dim), dtype=complex)
        return np.array([op.matrix for op, _ in self.measured])

    def leading(self, k: int) -> MaxEntProblem:
        """The problem on the first ``k`` constraints. Its solver operators
        are the first k rows of this problem's, so a sweep builds and
        compresses the stack of its longest prefix once."""
        if not 0 <= k <= self.n_constraints:
            raise ValueError(f"k must be in [0, {self.n_constraints}], got {k}")
        sub = MaxEntProblem(self.measured[:k], (), self.dim, self.symmetry)
        object.__setattr__(sub, "_operators", self._operators[:k])
        return sub

    # The solver's arrays are built on first use and kept. Without a
    # declared symmetry they are the operators themselves. With one, every
    # operator is compressed once to one copy of each irreducible block of
    # its commutant projection (``symmetry.compress``), with m each block's
    # number of copies (``symmetry.block_weights``). The Gibbs state is
    # evaluated on that copy with log m added to the exponent's diagonal:
    # M = diag(m) is constant on each block, so Tr(M exp(H_c)) =
    # Tr exp(H_c + log M), and rho' = exp(H_c + log M) / Z = M rho_c gives
    # every full-space trace Tr(A rho) = Tr(M A_c rho_c) as Tr(A_c rho').
    # Both paths then share one set of formulas on the unweighted operators.

    @cached_property
    def _operators(self) -> np.ndarray:
        """(K, c, c): the operator stack, compressed under a symmetry."""
        a = self.operator_stack()
        return a if self._weights is None else symmetry.compress(a, self.symmetry, self.n_qubits)

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(flat, real, cols): the operators as (K, c^2) rows, for the
        exponent; the same rows viewed as real, for the expectations, since
        Tr(A rho) = sum_ij conj(A_ij) rho_ij is one real dot for Hermitian A;
        and the operators placed side by side, cols[:, k*c:(k+1)*c] = A_k, so
        that one GEMM applies v^H to all of them for the susceptibility."""
        a = self._operators
        k, c = a.shape[:2]
        flat = a.reshape(k, c * c)
        return flat, flat.view(float), a.transpose(1, 0, 2).reshape(c, k * c)

    def _gibbs(self, lambdas: np.ndarray):
        """rho(lambda) together with its shifted eigensystem; with a declared
        symmetry, rho' = M rho_c on one copy of each block."""
        c = self._operators.shape[1]
        h = lambdas @ self._rows[0]
        if self._log_weights is not None:
            # every (c + 1)-th entry of the flat exponent is on its diagonal
            h[:: c + 1] += self._log_weights
        w, v = np.linalg.eigh(h.reshape(c, c))
        w_shifted = w - w[-1]
        expw = np.exp(w_shifted)
        rho = (v * expw) @ v.conj().T
        z = expw.sum()
        rho /= z
        return rho, w_shifted, v, expw, z

    def _full_rho(self, rho: np.ndarray) -> DensityMatrix:
        """The estimate on the full space from ``_gibbs``'s rho; with a
        declared symmetry, rho_c = M^-1 rho' expanded from the blocks
        (``symmetry.expand``)."""
        if self._weights is not None:
            rho = symmetry.expand(rho / self._weights[:, None], self.symmetry, self.n_qubits)
        return DensityMatrix(rho, self.n_qubits)

    def _evaluate(self, lambdas: np.ndarray):
        """(f, expectations, residuals, gibbs state tuple)."""
        state = self._gibbs(lambdas)
        g = self._rows[1] @ state[0].view(float).ravel()
        r = g - self._targets
        return float(r @ r), g, r, state

    def _susceptibility(self, g: np.ndarray, state) -> np.ndarray:
        """C_ij = d<A_i>/dlambda_j: symmetric PSD; the Newton system matrix.

        Two GEMMs rotate every operator into the Gibbs eigenbasis,
        atil_k = v^H A_k v. Scaled by sqrt(Phi), which is real since
        Phi > 0 (an entry that underflows to 0 drops out), and viewed as
        real rows Y_k, the operators give C = Y Y^T / z - g g^T, a real
        rank-K product that is exactly symmetric.
        """
        _, w, v, expw, z = state
        d, k = w.shape[0], self.n_constraints
        left = (v.conj().T @ self._rows[2]).reshape(d * k, d)
        atil = (left @ v).reshape(d, k, d)
        atil *= np.sqrt(_divided_difference_kernel(w, expw))[:, None, :]
        y = np.ascontiguousarray(atil.transpose(1, 0, 2)).view(float).reshape(k, 2 * d * d)
        c = y @ y.T
        c /= z
        c -= g[:, None] * g[None, :]
        return c


@dataclass(frozen=True)
class SolverOptions:
    """Iteration controls; echoed into every meta.json so runs stay
    comparable.

    ``step_rule`` names the update rule: damped Newton is the only one, so
    ``"newton"`` is the only accepted value.
    """

    tolerance: float = 1e-10
    max_iterations: int = 400
    step_rule: str = "newton"

    def __post_init__(self):
        # bool is an int subclass: True must not pass as a budget of 1
        tol, budget = self.tolerance, self.max_iterations
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise ValueError(f"tolerance must be a number, got {tol!r}")
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
        if isinstance(budget, bool) or not isinstance(budget, numbers.Integral):
            raise ValueError(f"max_iterations must be an integer, got {budget!r}")
        if budget < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.step_rule != "newton":
            raise ValueError(
                f"unknown step_rule {self.step_rule!r}; the only update rule is 'newton'"
            )


@dataclass(frozen=True, eq=False)
class MaxEntSolution:
    """The last accepted iterate of a solve. ``stop_reason`` says why the
    iteration ended: ``"tolerance"``, ``"stationary"``, ``"no_descent"`` or
    ``"budget"`` (see the module docstring)."""

    rho: DensityMatrix
    lambdas: np.ndarray
    objective: float
    iterations: int
    history: tuple[float, ...]
    stop_reason: str

    @property
    def converged(self) -> bool:
        """Whether the objective fell below the tolerance."""
        return self.stop_reason == "tolerance"

    def to_jsonable(self) -> dict:
        from .observables import matrix_to_jsonable

        return {
            "rho": matrix_to_jsonable(self.rho.matrix),
            "lambdas": [float(x) for x in self.lambdas],
            "objective": float(self.objective),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "stop_reason": self.stop_reason,
        }


def _divided_difference_kernel(w: np.ndarray, expw: np.ndarray) -> np.ndarray:
    """Phi_ab evaluated as e^{w_b} expm1(d) / d with d = w_a - w_b <= 0,
    i.e. with b the larger eigenvalue of the pair: no cancellation at small
    gaps, no overflow at large ones, and exactly symmetric."""
    d = -np.abs(w[:, None] - w[None, :])
    ratio = np.ones_like(d)
    np.divide(np.expm1(d), d, out=ratio, where=d != 0.0)
    return np.maximum(expw[:, None], expw[None, :]) * ratio


def _checked_multipliers(problem: MaxEntProblem, lambdas, what: str) -> np.ndarray:
    lam = np.array(lambdas, dtype=float)
    if lam.shape != (problem.n_constraints,):
        raise ValueError(f"expected {problem.n_constraints} {what}, got shape {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValueError(f"{what} must be finite")
    return lam


def rho_of_lambda(problem: MaxEntProblem, lambdas) -> DensityMatrix:
    """The Gibbs state exp(sum lambda_i A_i)/Z for the problem's operators,
    or for their commutant projections when the problem declares a
    symmetry."""
    lam = _checked_multipliers(problem, lambdas, "multipliers")
    return problem._full_rho(problem._gibbs(lam)[0])


def objective(problem: MaxEntProblem, lambdas) -> float:
    """Sum of squared constraint mismatches at the given multipliers."""
    lam = _checked_multipliers(problem, lambdas, "multipliers")
    return problem._evaluate(lam)[0]


def gradient(problem: MaxEntProblem, lambdas) -> np.ndarray:
    """Analytic gradient of :func:`objective`, df/dlambda = 2 C r with C the
    susceptibility matrix and r the residuals, as in the Newton step."""
    lam = _checked_multipliers(problem, lambdas, "multipliers")
    _, g, r, state = problem._evaluate(lam)
    return 2.0 * (problem._susceptibility(g, state) @ r)


def susceptibility(problem: MaxEntProblem, lambdas) -> np.ndarray:
    """Full matrix of expectation derivatives d<A_i>/dlambda_j."""
    lam = _checked_multipliers(problem, lambdas, "multipliers")
    _, g, _, state = problem._evaluate(lam)
    return problem._susceptibility(g, state)


def solve(
    problem: MaxEntProblem, options: SolverOptions = SolverOptions(), lambda0=None
) -> MaxEntSolution:
    """Fit the multipliers, starting from ``lambda0`` (zeros when None), until
    the objective drops below tolerance.

    Returns converged=False (with the last accepted iterate) when the objective
    reaches a first-order stationary point above tolerance, no acceptable
    step remains or the iteration budget runs out; ``stop_reason`` says
    which. Infeasible targets, for example estimates taken from noisy
    counts, stop at the least-squares optimum rather than raising.
    ``history`` holds the objective at the start and after every accepted
    step.
    """
    if lambda0 is None:
        lam = np.zeros(problem.n_constraints)
    else:
        lam = _checked_multipliers(problem, lambda0, "lambda0 entries")
    f, g, r, state = problem._evaluate(lam)
    history = [f]
    iterations = 0
    mu = 1e-8

    while True:
        if f < options.tolerance:
            stop_reason = "tolerance"
            break
        if iterations >= options.max_iterations:
            stop_reason = "budget"
            break
        moved = _newton_step(problem, lam, f, g, r, state, mu)
        if isinstance(moved, str):
            stop_reason = moved
            break
        lam, f, g, r, state, mu = moved
        iterations += 1
        history.append(f)

    # an accepted step passes the Armijo test with a negative descent,
    # f_new <= f + ARMIJO_C descent <= f, so the last iterate is the best one
    return MaxEntSolution(
        rho=problem._full_rho(state[0]),
        lambdas=lam,
        objective=f,
        iterations=iterations,
        history=tuple(history),
        stop_reason=stop_reason,
    )


def _newton_step(problem, lam, f, g, r, state, mu):
    """One accepted damped Newton step as (lambda, f, g, r, state, mu), or the
    reason no step is taken: "stationary" when the gradient of f passes the
    first-order test, "no_descent" when sixty tenfold increases of the
    damping found no step that passes the Armijo test."""
    c = problem._susceptibility(g, state)
    c_diag = c.diagonal().copy()
    trace = float(c_diag.sum())
    grad = 2.0 * (c @ r)
    # ||grad|| = 2 ||C r|| and ||r||^2 = f
    if grad @ grad <= (2.0 * STATIONARY_TOL * trace) ** 2 * f:
        return "stationary"
    scale = max(trace / problem.n_constraints, 1e-300)
    for _ in range(60):
        np.fill_diagonal(c, c_diag + mu * scale)
        try:
            delta = -np.linalg.solve(c, r)
        except np.linalg.LinAlgError:
            mu *= 10.0
            continue
        descent = float(grad @ delta)
        if descent >= 0.0 or not np.isfinite(descent):
            mu *= 10.0
            continue
        f_new, g_new, r_new, state_new = problem._evaluate(lam + delta)
        if np.isfinite(f_new) and f_new <= f + ARMIJO_C * descent:
            return lam + delta, f_new, g_new, r_new, state_new, max(mu * 0.3, 1e-12)
        mu *= 10.0
    return "no_descent"
