"""Constrained maximum-entropy estimation.

Given expectation-value constraints Tr(A_i rho) = a_i, the
entropy-maximizing state is the Gibbs form

    rho(lambda) = exp(sum_i lambda_i A_i) / Z,

and the multipliers minimise the convex dual Phi(lambda) = log Z(lambda) -
lambda . a (regularised for noisy targets, below). The solve stops once the
squared gradient of the dual

    f(lambda) = sum_i (Tr(A_i rho(lambda)) - a_i + sigma_i^2 lambda_i)^2

falls below a tolerance, with sigma_i^2 the variance of target i. For exact
targets (sigma = 0) that is the squared constraint mismatch, and at the
minimiser every constraint holds; a noisy target's term adds its variance
times its multiplier, so at the minimiser it may miss by about its standard
deviation. The exponent is always Hermitian, so rho is evaluated by
eigendecomposition with the spectrum shifted by its top eigenvalue before
exponentiation; the shift cancels against the normalization and prevents
overflow when constraints push the state toward purity (diverging
multipliers).

The derivative of an expectation with respect to a multiplier runs through
the directional derivative of the matrix exponential, evaluated in the
eigenbasis with the divided-difference kernel

    Phi_ab = (e^{w_a} - e^{w_b}) / (w_a - w_b),   Phi_aa = e^{w_a}.

With the operators stored side by side, two GEMMs rotate all of them into
the eigenbasis at once, atil_k = v^H A_k v. Each atil_k is Hermitian and
Phi symmetric, so the susceptibility sums over the d(d+1)/2 pairs a <= b
of the upper triangle only, each weighted by c_ab = 1 on the diagonal and
2 off it. Phi is positive, so scaling each pair by the real sqrt(c_ab
Phi_ab) and viewing the scaled pairs of atil_k as one real row Y_k, of
width d(d+1), gives the susceptibility as a single real rank-K product,
C = Y Y^T / Z - g g^T with g the expectations, which is exactly symmetric.

Log weights w on the diagonal of the exponent, rho(lambda) = exp(sum_i
lambda_i A_i + diag(w)) / Z, give the Gibbs form of minimum relative entropy
with prior diag(e^w) (Csiszar, Ann. Probab. 3, 146 (1975)); with them the
entropy S below is minus that relative entropy.

A problem is one read-only (K, dim, dim) stack of operators, validated
once, with K targets and K variances; the arrays the solver derives from
it serve every solve and kernel call on it. A sweep worker builds one problem with zero targets on every observable it
may measure; a measured order gathers its operators
(``MaxEntProblem.take``), and every state that measures that order solves
it with its own targets (``MaxEntProblem.with_targets``), on its leading
slices on the first r constraints (``MaxEntProblem.leading``), whose
operators are views of its stack. None of these checks an operator again.

The multipliers minimise the variance-regularised dual

    Phi(lambda) = log Z(lambda) - lambda . a + lambda^T Sigma lambda / 2,

with Sigma = diag(sigma_i^2) the variances of the targets (zero for exact
data; Dudik, Phillips & Schapire, JMLR 8, 1217 (2007)). Its gradient is the
residual r = g - a + Sigma lambda and its Hessian C + Sigma, with C the
constraint susceptibility matrix C_ij = d<A_i>/dlambda_j. With Sigma = 0
the minimiser meets every constraint exactly; with Sigma > 0 each target may
move by about its standard deviation, and Phi is strictly convex with a
finite minimiser even when noisy targets fit no state.

Each iteration is a damped Newton step (Boyd & Vandenberghe, Convex
Optimization, section 9.5): delta = -(C + Sigma + mu s I)^-1 r, with s the
mean diagonal and mu a tiny fixed damping, grown tenfold only when no step
along delta is accepted. The step length backtracks t = 1, 1/2, ... until
the Armijo test Phi(lambda + t delta) <= Phi(lambda) + ARMIJO_C t r.delta
holds. Near convergence the predicted decrease -t r.delta falls below the
rounding of Phi (DUAL_ROUNDING max(1, |Phi|)), and the test is made on
f = ||r||^2 instead, along its own directional derivative 2 r^T (C + Sigma)
delta.

The solve stops once f falls below the tolerance. Exact (Sigma = 0) targets
that no state meets leave Phi unbounded below, and they have no
maximum-entropy estimate. A state that met them would bound Phi below by
its entropy, so a negative Phi proves them infeasible, and the solve stops
at the iterate that proved it; declaring the targets' variances gives them
an estimate. Where C + Sigma = 0, Phi is linear, and the solve steps along
-r to a negative Phi. Each solve reports why it stopped
(``MaxEntSolution.stop_reason``):

- ``"tolerance"``: f fell below the tolerance;
- ``"infeasible"``: the targets are exact and Phi < 0 proved that no state
  meets them;
- ``"no_descent"``: no damping produced a step that passes the line search;
- ``"budget"``: the iteration budget ran out.

It also reports the entropy of its estimate, S = log Z - lambda . g, which
the dual gives for free, and the number of Gibbs evaluations it made.
"""

from __future__ import annotations

import copy
import functools
import math
import numbers
from dataclasses import InitVar, dataclass

import numpy as np

from .linalg import hermitian, stack

# sufficient-decrease constant of the Armijo test on each Newton step
ARMIJO_C = 1e-4

# damping mu of the Newton system, relative to its mean diagonal; it grows
# tenfold, DAMPING_TRIES times at most, only when no step length is accepted
DAMPING = 1e-10
DAMPING_TRIES = 12

# step-length halvings tried along one Newton direction
HALVINGS = 30

# a predicted decrease of the dual below DUAL_ROUNDING max(1, |Phi|) is
# within its rounding, and the line search tests f = ||r||^2 instead
DUAL_ROUNDING = 1e-12


@dataclass(frozen=True, eq=False, init=False)
class MaxEntProblem:
    """Constraints Tr(A_i rho) = a_i on a space of dimension ``dim``, held
    once as read-only arrays: the (K, dim, dim) stack ``operators``, exactly
    Hermitian; their ``targets`` a_i; and their ``variances``.

    The constructor takes ``measured`` (operator, target) pairs, each
    operator a dim x dim array. ``auxiliary`` observables are constraints
    with target zero, stacked after the measured operators, so a problem
    has one stack of constraints. The stack is checked once with
    ``linalg.hermitian`` and replaced by its Hermitian part.

    ``variances`` holds the variance of each measured target (zeros when
    None, for exact data; auxiliary rows are exact). They regularise the
    dual the solve minimises (see the module docstring), so that a target
    may miss by about its standard deviation. ``log_weights`` (dim reals,
    or None) are added to the diagonal of the exponent: the Gibbs form
    relative to the prior diag(e^w).
    """

    operators: np.ndarray
    targets: np.ndarray
    variances: np.ndarray
    log_weights: np.ndarray | None

    def __init__(self, measured, auxiliary, dim, variances=None, log_weights=None):
        _check_integer(dim, "dim")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        targets, variances = _checked_data([t for _, t in measured], variances, len(measured))
        # one stack, checked at once and replaced by its Hermitian part
        a = hermitian(stack([op for op, _ in measured] + list(auxiliary), dim),
                      "measured observables")
        # auxiliary rows are exact zero targets
        zeros = np.zeros(len(a) - len(targets))
        self._build(a, np.concatenate([targets, zeros]), np.concatenate([variances, zeros]),
                    log_weights)

    @classmethod
    def _zero_targets(cls, a: np.ndarray, log_weights=None) -> MaxEntProblem:
        """The problem with zero targets on the (K, dim, dim) stack ``a``,
        which must be ``hermitian``'s output or be made of its outputs:
        read-only, checked and exactly Hermitian. It is neither copied nor
        checked again; the problem's operators are this stack. So a whole
        set of observables, checked once, becomes a problem to gather from
        (``take``) with no second copy of it."""
        problem = cls.__new__(cls)
        zeros = np.zeros(len(a))
        problem._build(a, zeros, zeros, log_weights)
        return problem

    def _build(self, operators, targets, variances, log_weights) -> None:
        """Sets every field of a new problem from checked operators, targets
        and variances, and from ``log_weights``, checked here; its arrays
        read-only. Its copies share the index pairs built here."""
        dim = operators.shape[-1]
        if log_weights is not None:
            log_weights = np.array(log_weights, dtype=float)
            if log_weights.shape != (dim,) or not np.all(np.isfinite(log_weights)):
                raise ValueError(f"log_weights must be {dim} finite numbers")
            log_weights.setflags(write=False)
        for arr in (targets, variances):
            arr.setflags(write=False)
        # the index pairs a <= b of the upper triangle, for the
        # susceptibility, with sqrt(c): c = 1 on the diagonal and 2 off it
        a, b = np.triu_indices(dim)
        # a frozen dataclass: its fields are set through the instance dict
        self.__dict__.update(
            operators=operators, targets=targets, variances=variances, log_weights=log_weights,
            _rows=_solver_rows(operators), _pairs=(a, b, np.where(a == b, 1.0, math.sqrt(2.0))),
        )

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]

    @property
    def n_constraints(self) -> int:
        return len(self.targets)

    @functools.cached_property
    def _cols(self) -> np.ndarray:
        """The operators side by side (``_side_by_side``), for the
        susceptibility; built on first use, so a problem that is only
        gathered from (``take``) holds no second copy of its operators."""
        return _side_by_side(self.operators)

    def leading(self, k: int) -> MaxEntProblem:
        """The problem on the first ``k`` constraints, sliced from this one.

        Its operators, targets, variances and solver arrays are views of the
        first k of this problem's; they were validated when this problem
        was built and are not checked again. So a sweep builds the stack of
        its longest prefix once, and each sweep point costs only the
        slicing."""
        _check_integer(k, "k")
        if not 0 <= k <= self.n_constraints:
            raise ValueError(f"k must be in [0, {self.n_constraints}], got {k}")
        flat, real = self._rows
        return self._replace(operators=self.operators[:k], targets=self.targets[:k],
                             variances=self.variances[:k], _rows=(flat[:k], real[:k]),
                             _cols=self._cols[:, : k * self.dim])

    def take(self, indices) -> MaxEntProblem:
        """The problem on the constraints ``indices`` of this one, in that
        order: the gather sibling of ``leading``.

        Its operators, targets and variances are this problem's at
        ``indices``, gathered into new read-only arrays, and it shares this
        problem's log weights; they were validated when this problem was
        built and are not checked again. So a sweep builds and checks the
        problem of every observable it may measure once, and a state that
        measures a subset of them in its own order pays one gather."""
        idx = np.asarray(indices)
        if idx.size == 0:
            idx = idx.astype(np.intp)
        n = self.n_constraints
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise ValueError(f"indices must be one sequence of integers, got {indices!r}")
        if idx.size and not (0 <= idx.min() and idx.max() < n):
            raise ValueError(f"indices must be in [0, {n}), got {indices!r}")
        gathered = self.operators[idx], self.targets[idx], self.variances[idx]
        for arr in gathered:
            arr.setflags(write=False)
        operators, targets, variances = gathered
        # the columns are built here, so that every re-targeted copy shares them
        return self._replace(operators=operators, targets=targets, variances=variances,
                             _rows=_solver_rows(operators), _cols=_side_by_side(operators))

    def with_targets(self, targets, variances=None) -> MaxEntProblem:
        """The problem on this one's operators with new ``targets`` and
        their ``variances`` (zeros when None), one of each per constraint.

        Like ``leading``, it shares this problem's operators, solver arrays
        and log weights, which were validated when this problem was built
        and are not checked again; only the new targets and variances are,
        as the constructor checks them. So a sweep that measures one order
        of observables on every state builds their operators once."""
        targets, variances = _checked_data(targets, variances, self.n_constraints)
        return self._replace(targets=targets, variances=variances)

    def _replace(self, **fields) -> MaxEntProblem:
        """A shallow copy of this problem with ``fields`` set, unchecked;
        other ``operators`` come with their ``_rows`` and ``_cols``."""
        sub = copy.copy(self)
        sub.__dict__.update(fields)
        return sub

    def _gibbs(self, lambdas: np.ndarray):
        """rho(lambda) together with its shifted eigensystem, log Z and v^H,
        which the susceptibility reuses."""
        c = self.dim
        h = lambdas @ self._rows[0]
        if self.log_weights is not None:
            # every (c + 1)-th entry of the flat exponent is on its diagonal
            h[:: c + 1] += self.log_weights
        w, v = np.linalg.eigh(h.reshape(c, c))
        w_shifted = w - w[-1]
        expw = np.exp(w_shifted)
        vh = v.conj().T
        rho = (v * expw) @ vh
        z = expw.sum()
        rho /= z
        return rho, w_shifted, v, expw, z, w[-1] + math.log(z), vh

    def _evaluate(self, lambdas: np.ndarray):
        """(f, expectations, residuals, gibbs state tuple, dual): the
        residuals r = g - a + Sigma lambda are the gradient of the dual
        Phi = log Z - lambda . a + lambda^T Sigma lambda / 2, and
        f = ||r||^2. The point carries its Phi, so no step computes it
        twice."""
        state = self._gibbs(lambdas)
        g = self._rows[1] @ state[0].view(float).ravel()
        sigma_lambda = self.variances * lambdas
        r = g - self.targets + sigma_lambda
        dual = float(state[5] - lambdas @ (self.targets - 0.5 * sigma_lambda))
        return float(r @ r), g, r, state, dual

    def _susceptibility(self, g: np.ndarray, state) -> np.ndarray:
        """C_ij = d<A_i>/dlambda_j: symmetric PSD; the Newton system matrix.

        Two GEMMs rotate every operator into the Gibbs eigenbasis,
        atil_k = v^H A_k v. Each atil_k is Hermitian and Phi symmetric, so
        C_ij = sum_{a<=b} c_ab Phi_ab Re(atil_i,ab conj(atil_j,ab)) / z -
        g_i g_j runs over the d(d+1)/2 pairs of the upper triangle only,
        with c_ab = 1 on the diagonal and 2 off it. Scaled by sqrt(c Phi),
        which is real since Phi > 0 (an entry that underflows to 0 drops
        out), each operator's pairs viewed as real form one row Y_k of
        width d(d+1), and C = Y Y^T / z - g g^T is a K x d(d+1) real
        rank-K product that is exactly symmetric.
        """
        _, w, v, expw, z, _, vh = state
        d, k = w.shape[0], self.n_constraints
        a, b, root_c = self._pairs
        left = (vh @ self._cols).reshape(d * k, d)
        atil = (left @ v).reshape(d, k, d)
        scale = root_c * np.sqrt(_divided_difference_kernel(w, expw, (a, b)))
        # gathered into operator-major rows while scaled
        y = np.empty((k, a.size), dtype=complex)
        np.multiply(atil[a, :, b].T, scale, out=y)
        y = y.view(float)
        c = y @ y.T
        c /= z
        c -= g[:, None] * g
        return c


@dataclass(frozen=True)
class SolverOptions:
    """Iteration controls, echoed into every meta.json so runs stay
    comparable: the ``tolerance`` on f = ||r||^2 and the ``max_iterations``
    budget. ``step_rule`` is init-only and accepts only ``"newton"``, the one
    update rule; a config or solve problem that names it fails as an unknown
    solver field."""

    tolerance: float = 1e-10
    max_iterations: int = 400
    step_rule: InitVar[str] = "newton"

    def __post_init__(self, step_rule):
        # bool is an int subclass: True must not pass as a tolerance of 1
        tol, budget = self.tolerance, self.max_iterations
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise ValueError(f"tolerance must be a number, got {tol!r}")
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
        _check_integer(budget, "max_iterations")
        if budget < 1:
            raise ValueError("max_iterations must be >= 1")
        if step_rule != "newton":
            raise ValueError(f"unknown step_rule {step_rule!r}; the only update rule is 'newton'")


@dataclass(frozen=True, eq=False)
class MaxEntSolution:
    """The last accepted iterate of a solve, reached after ``iterations``
    accepted steps, with f = ||r||^2 there as ``objective``. ``stop_reason``
    says why the iteration ended: ``"tolerance"``, ``"infeasible"``,
    ``"no_descent"`` or ``"budget"`` (see the module docstring); an
    ``"infeasible"`` solve returns the iterate whose dual proved its exact
    targets infeasible. ``rho`` is the estimate in the problem's own space
    (``symmetry.full_estimate`` maps a block estimate to the full space).
    ``entropy`` is log Z - lambda . g, the von Neumann entropy of ``rho``
    for a problem without log weights (see the module docstring), and
    ``n_evals`` the number of Gibbs evaluations the solve made."""

    rho: np.ndarray
    lambdas: np.ndarray
    objective: float
    iterations: int
    stop_reason: str
    entropy: float
    n_evals: int

    @property
    def converged(self) -> bool:
        """Whether the objective fell below the tolerance."""
        return self.stop_reason == "tolerance"


def _check_integer(value, name: str) -> None:
    """Rejects a ``value`` that is not an integer, True included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _solver_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The operators of a checked (K, dim, dim) stack as (K, dim^2) rows,
    for the exponent, and the same rows viewed as real, for the
    expectations, since Tr(A rho) = sum_ij conj(A_ij) rho_ij is one real dot
    for Hermitian A."""
    flat = a.reshape(len(a), a.shape[1] * a.shape[2])
    return flat, flat.view(float)


def _side_by_side(a: np.ndarray) -> np.ndarray:
    """The operators of a (K, dim, dim) stack placed side by side,
    read-only: cols[:, k*dim:(k+1)*dim] = A_k, so that one GEMM applies v^H
    to all of them."""
    cols = a.transpose(1, 0, 2).reshape(a.shape[1], len(a) * a.shape[2])
    cols.setflags(write=False)
    return cols


def _checked_data(targets, variances, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(targets, variances) as new read-only float arrays, the variances
    zeros when None: ``n`` of each, the targets finite, the variances finite
    and >= 0."""
    targets = np.array(targets, dtype=float)
    if targets.shape != (n,):
        raise ValueError(f"expected {n} targets, got shape {targets.shape}")
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets must be finite")
    variances = np.zeros(n) if variances is None else np.array(variances, dtype=float)
    if variances.shape != (n,):
        raise ValueError(f"expected {n} variances, got shape {variances.shape}")
    if not (np.all(np.isfinite(variances)) and np.all(variances >= 0.0)):
        raise ValueError("variances must be finite and >= 0")
    for arr in (targets, variances):
        arr.setflags(write=False)
    return targets, variances


def _divided_difference_kernel(w: np.ndarray, expw: np.ndarray, pairs) -> np.ndarray:
    """Phi_ab of the ascending eigenvalues ``w`` at the index ``pairs`` (a,
    b) with a <= b. Evaluated as e^{w_b} expm1(d) / d with d = w_a - w_b <=
    0, i.e. with b the larger eigenvalue of the pair: no cancellation at
    small gaps and no overflow at large ones."""
    a, b = pairs
    d = w[a] - w[b]
    ratio = np.ones_like(d)
    np.divide(np.expm1(d), d, out=ratio, where=d != 0.0)
    return expw[b] * ratio


def _checked_multipliers(problem: MaxEntProblem, lambdas, what: str) -> np.ndarray:
    lam = np.array(lambdas, dtype=float)
    if lam.shape != (problem.n_constraints,):
        raise ValueError(f"expected {problem.n_constraints} {what}, got shape {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValueError(f"{what} must be finite")
    return lam


def rho_of_lambda(problem: MaxEntProblem, lambdas) -> np.ndarray:
    """The Gibbs state exp(sum lambda_i A_i + diag(w))/Z of the problem's
    operators and log weights w (none by default), in its own space."""
    lam = _checked_multipliers(problem, lambdas, "multipliers")
    return problem._gibbs(lam)[0]


def objective(problem: MaxEntProblem, lambdas) -> float:
    """f = ||r||^2, the squared gradient of the dual: the sum of squared
    constraint mismatches, each shifted by its variance times its
    multiplier."""
    lam = _checked_multipliers(problem, lambdas, "multipliers")
    return problem._evaluate(lam)[0]


def gradient(problem: MaxEntProblem, lambdas) -> np.ndarray:
    """Analytic gradient of :func:`objective`, df/dlambda = 2 (C + Sigma) r
    with C the susceptibility matrix and r the residuals."""
    lam = _checked_multipliers(problem, lambdas, "multipliers")
    _, g, r, state, _ = problem._evaluate(lam)
    return 2.0 * (problem._susceptibility(g, state) @ r + problem.variances * r)


def susceptibility(problem: MaxEntProblem, lambdas) -> np.ndarray:
    """Full matrix of expectation derivatives d<A_i>/dlambda_j."""
    lam = _checked_multipliers(problem, lambdas, "multipliers")
    _, g, _, state, _ = problem._evaluate(lam)
    return problem._susceptibility(g, state)


def solve(
    problem: MaxEntProblem, options: SolverOptions = SolverOptions(), lambda0=None
) -> MaxEntSolution:
    """Minimise the dual from ``lambda0`` (zeros when None) until the
    objective f = ||r||^2 drops below tolerance.

    Returns converged=False with the last accepted iterate when the dual
    proves exact targets infeasible, no acceptable step remains or the
    iteration budget runs out; ``stop_reason`` says which. A step descends
    the dual Phi, so f may rise along the way.
    """
    if lambda0 is None:
        lam = np.zeros(problem.n_constraints)
    else:
        lam = _checked_multipliers(problem, lambda0, "lambda0 entries")
    point = problem._evaluate(lam)
    iterations, n_evals = 0, 1
    exact = not problem.variances.any()

    while True:
        if point[0] < options.tolerance:
            stop_reason = "tolerance"
            break
        if exact and _proves_infeasible(point):
            stop_reason = "infeasible"
            break
        if iterations >= options.max_iterations:
            stop_reason = "budget"
            break
        moved, evals = _newton_step(problem, lam, point)
        n_evals += evals
        if moved is None:
            stop_reason = "no_descent"
            break
        lam, point = moved
        iterations += 1

    f, g, _, state, _ = point
    return MaxEntSolution(
        rho=state[0],
        lambdas=lam,
        objective=f,
        iterations=iterations,
        stop_reason=stop_reason,
        entropy=float(state[5] - lam @ g),
        n_evals=n_evals,
    )


def _proves_infeasible(point) -> bool:
    """Whether the dual at an evaluated point proves exact targets
    infeasible. A state sigma that meets them gives log Z >= lambda . a +
    S(sigma) (the Gibbs variational principle), so Phi >= S(sigma) >= 0
    everywhere. A negative dual leaves Phi unbounded below, and no
    maximum-entropy estimate exists."""
    return point[4] < -DUAL_ROUNDING * max(1.0, abs(point[3][5]))


def _newton_step(problem, lam, point):
    """One accepted damped Newton step on the dual as ((lambda, point),
    evaluations), or (None, evaluations) when no damping gives a step that
    passes the line search. The damping starts at DAMPING and the step
    length backtracks."""
    f, g, r, state, dual = point
    h = problem._susceptibility(g, state)
    h_diag = h.diagonal() + problem.variances
    scale = float(h_diag.sum()) / problem.n_constraints
    if not scale > 0.0:
        # C + Sigma = 0: the targets are exact and Phi falls linearly along
        # -r without bound; a step to Phi < 0 proves them infeasible
        lam_new = lam - (1.0 + abs(dual)) / float(r @ r) * r
        return (lam_new, problem._evaluate(lam_new)), 1
    np.fill_diagonal(h, h_diag)
    # half the gradient of f
    hr = h @ r
    mu, rounding = DAMPING, DUAL_ROUNDING * max(1.0, abs(dual))
    evals = 0
    for _ in range(DAMPING_TRIES):
        np.fill_diagonal(h, h_diag + mu * scale)
        try:
            # the Newton direction is delta = -step
            step = np.linalg.solve(h, r)
        except np.linalg.LinAlgError:
            mu *= 10.0
            continue
        # directional derivatives of the dual and of f along delta
        slope, descent = -float(r @ step), -2.0 * float(hr @ step)
        if not (slope < 0.0 and descent < 0.0):
            mu *= 10.0
            continue
        t = 1.0
        for _ in range(HALVINGS):
            lam_new = lam - t * step
            trial = problem._evaluate(lam_new)
            evals += 1
            if -t * slope > rounding:
                old, new, bound = dual, trial[4], t * slope
            else:
                old, new, bound = f, trial[0], t * descent
            # a decrease below the rounding of f or Phi passes the Armijo
            # test as no change; along a halved step that admits steps too
            # short to move, so the decrease must be strict
            if new <= old + ARMIJO_C * bound and new < old:
                return (lam_new, trial), evals
            t *= 0.5
        mu *= 10.0
    return None, evals
