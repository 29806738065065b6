"""Experiment orchestration: batch sampling, observable-count sweeps, solver
invocation with or without a declared symmetry, and CSV/JSON result files.

Protocol per state: draw a target from the configured family with white
noise mixed in (``states.sample``; the families are ``states.FAMILIES``),
order the canonical observable set (optionally shuffled per state), and
under a symmetry discard observables whose projections onto the commutant
are linearly dependent on those kept before them (measuring them would add
nothing the symmetry does not already pin down). Under
permutation symmetry that keeps the first member of each qubit-permutation
orbit, read off the observables' factor indices; under werner symmetry the
projections are filtered numerically. Acquire targets for the first max(r)
survivors, with their variances (zero for ideal data), in one pass: noisy
data takes the survivors' modes as one batch, computes every mode's
probability with one GEMM, draws every count from the state's one counts
stream in mode order and inverts all counts with array operations
(``measurement.simulate_counts``, ``measurement.estimate_expectations``).
Solve one maximum-entropy problem on them under the symmetry (the problem
``symmetry.compressed_problem`` builds on them, bit for bit: it constrains
their commutant projections, on the irrep blocks; a worker builds it once
for every canonical observable and each measured order gathers its
operators, below) that carries the variances (so a noisy target may miss by about its
standard deviation). At each distinct
k = min(r, survivors) solve its leading slice on the first k
(``MaxEntProblem.leading``) once, and record the fidelity of its full-space
estimate against the prepared (noisy) state for every sweep point r that
maps to k. A target that commutes with
the declared group (``symmetry.block_state``, a test on the target itself)
is scored on the irrep blocks: its block form M compress(rho), with its
square root, is built once per state, and each estimate rho' is scored as
F(M compress(rho), rho'), which equals the full-space value. Under
symmetry ``"none"`` every target commutes with the trivial group, and its
block form is its own matrix, with unit weights. Any other target is scored
against ``symmetry.full_estimate(rho')`` on the full space.

The distinct k are solved in ascending order, and each solve is seeded from
the one before: it starts from that solve's multipliers, padded with zeros
for the new constraints, when that solve stopped on ``tolerance`` and the
smallest eigenvalue of its full-space estimate exceeds sqrt(tolerance), the
residual scale the stop guarantees; for a target scored on the blocks it is
read off them, as the smallest eigenvalue of rho' / m. Otherwise it starts
from zeros, as the first k does. A full-rank estimate's multipliers are
finite and fixed by the data to within the tolerance, and Newton converges
fast from that nearby start (Boyd & Vandenberghe, Convex Optimization,
section 9.5.3). A rank-deficient estimate's multipliers run off along a
ray, and where they stop is set by the tolerance, not by the data, so they
seed nothing. A seeded record differs from a cold solve of the same prefix
only within the stop's slack; an unseeded one is that cold solve, bit for
bit.

Every random stream is derived from (seed, state_id, purpose), so results
are bit-identical across reruns and independent of worker scheduling.

A worker process computes once what depends only on (observable_kind,
n_qubits, symmetry) and shares it between the states it sweeps
(``_observable_context``): the canonical observable set; under permutation
symmetry, each observable's permutation orbit; under werner symmetry, the
commutant coordinates (``symmetry.coordinates``) and the norm of every
canonical observable, on whose rows a state runs the greedy test of
``symmetry.independent_projections`` in its own order; and the canonical
problem, one zero-target problem on all 4^n - 1 canonical observables,
compressed from their coordinates under a symmetry
(``symmetry.coordinate_problem``) and on the observables themselves under
``"none"``, and checked once. A state's measured order (the order before
filtering, max(r) and whether the data are noisy) is built once, whole,
and held until another order replaces it (``_ObservableContext.measured``):
the indices the filter kept from it and the state measures, for noisy
data their modes (one ``measurement.projector_modes`` call on their stack)
and the canonical problem's operators at those indices, in that order
(``MaxEntProblem.take``: a gather from one stack that was validated once,
which compresses and checks nothing again). Every state, the one that built its
order or a later one, shuffled or not, solves that problem with its own
targets and variances (``MaxEntProblem.with_targets``, which shares the
operators and checks only the new data). An unshuffled sweep builds its
one order once per worker; a shuffled state gathers its own. Each state
still samples its target, shuffles, draws and inverts its counts, and
solves. The shared values are what each state would compute itself, bit
for bit, so they change no result. (A lone kept operator is the one
exception: ``compressed_problem`` on it alone takes BLAS's matrix-vector
path, which rounds it differently from the gathered one.)
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, linalg, measurement, observables, states, symmetry
from .maxent import MaxEntProblem, SolverOptions, solve
from .measurement import NoiseConfig

THREADS_ENV_VAR = "SYMMAXENT_THREADS"

RESULT_CSV_HEADER = "state_id,r,fidelity,converged,iterations"
SUMMARY_CSV_HEADER = "r,mean_f,std_f,n_converged"


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    n_qubits: int = 3
    state_family: str = "haar_pure"
    dicke_excitations: int = 1
    observable_kind: str = "pauli"
    symmetry: str = "none"
    batch_size: int = 100
    r_values: tuple[int, ...] = ()
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    solver: SolverOptions = field(default_factory=SolverOptions)
    seed: int = 0
    shuffle_observables: bool = False

    def __post_init__(self):
        # a wrong type is caught here, not inside the first state: a string
        # shuffle flag would be truthy, a dict solver fail in the pool
        if not isinstance(self.shuffle_observables, (bool, np.bool_)):
            raise ValueError(
                f"shuffle_observables must be a bool, got {self.shuffle_observables!r}"
            )
        object.__setattr__(self, "shuffle_observables", bool(self.shuffle_observables))
        for name, cls in (("noise", NoiseConfig), ("solver", SolverOptions)):
            if not isinstance(getattr(self, name), cls):
                raise ValueError(f"{name} must be a {cls.__name__}, got {getattr(self, name)!r}")
        if isinstance(self.r_values, (str, bytes)) or not np.iterable(self.r_values):
            raise ValueError(f"r_values must be a sequence of integers, got {self.r_values!r}")
        # read once: a generator would be empty on the second pass below
        object.__setattr__(self, "r_values", tuple(self.r_values))
        # a float would truncate or fail far from here, a bool read as 0 or 1;
        # a numpy integer becomes an int, which the sweep and meta.json need
        names = ("n_qubits", "dicke_excitations", "batch_size", "seed")
        integers = [(name, getattr(self, name)) for name in names]
        for name, value in integers + [("r value", r) for r in self.r_values]:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name, value in integers:
            object.__setattr__(self, name, int(value))
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if self.state_family not in states.FAMILIES:
            raise ValueError(f"unknown state_family {self.state_family!r}")
        if self.observable_kind not in observables.KINDS:
            raise ValueError(f"unknown observable_kind {self.observable_kind!r}")
        if self.symmetry not in symmetry.KINDS:
            raise ValueError(f"unknown symmetry {self.symmetry!r}")
        # caught here, not inside the first state after a pool has started
        if self.n_qubits < 2 and self.symmetry == "permutation":
            raise ValueError("symmetry 'permutation' needs n_qubits >= 2")
        least = states.FAMILIES[self.state_family][0]
        if self.n_qubits < least:
            raise ValueError(f"state_family {self.state_family!r} needs n_qubits >= {least}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        n_total = 4**self.n_qubits - 1
        r_values = tuple(int(r) for r in self.r_values)
        if not r_values:
            r_values = tuple(range(1, n_total + 1))
        seen: set[int] = set()
        for r in r_values:
            if not 0 <= r <= n_total:
                raise ValueError(f"r value {r} outside [0, {n_total}]")
            if r in seen:
                raise ValueError(f"duplicate r value {r}")
            seen.add(r)
        object.__setattr__(self, "r_values", r_values)
        if not 0 <= self.dicke_excitations <= self.n_qubits:
            raise ValueError("dicke_excitations outside [0, n_qubits]")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True, slots=True)
class StateRunRecord:
    state_id: int
    r: int
    fidelity: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class SummaryRow:
    r: int
    mean_f: float
    std_f: float
    n_converged: int


@dataclass(frozen=True)
class SweepResult:
    records: tuple[StateRunRecord, ...]
    summary: tuple[SummaryRow, ...]
    metadata: dict


def _stream(seed: int, state_id: int, purpose: int) -> np.random.Generator:
    # the trailing 0 keeps every recorded stream: SeedSequence pads entropy
    # shorter than four words with zeros, but a seed of 2**32 or more takes
    # two words, and there dropping the 0 would change the stream
    return np.random.default_rng(np.random.SeedSequence([seed, state_id, purpose, 0]))


class _MeasuredOrder(NamedTuple):
    """What a state builds from its measured order alone, and every state
    that measures the same order shares (``_ObservableContext.measured``):
    the canonical indices of the observables it measures, the first max(r)
    that its symmetry filter keeps; for noisy data their read-only modes,
    else None; and the zero-target problem on their operators, gathered
    from the canonical problem (``MaxEntProblem.take``), which each state
    re-targets with its own data. Its operators are those that
    ``symmetry.compressed_problem`` stacks from the same observables, bit
    for bit, when there are two or more."""

    kept: tuple[int, ...]
    modes: measurement.Modes | None
    problem: MaxEntProblem


class _ObservableContext:
    """What every state of a sweep shares; see ``_observable_context``. Its
    arrays are read-only, so no state can change another state's inputs."""

    def __init__(self, kind: str, n_qubits: int, symmetry_kind: str):
        self.kind, self.n_qubits, self.symmetry = kind, n_qubits, symmetry_kind
        self.candidates = observables.canonical_set(kind, n_qubits)

    @functools.cached_property
    def orbits(self) -> np.ndarray:
        """Each canonical observable's qubit-permutation orbit, numbered by
        its key: the sorted tuple of the observable's per-qubit factor
        indices (``observables.factor_indices``)."""
        factors = observables.factor_indices(self.kind, self.n_qubits)
        _, orbits = np.unique(np.sort(factors, axis=1), axis=0, return_inverse=True)
        orbits = orbits.reshape(-1)
        orbits.setflags(write=False)
        return orbits

    @functools.cached_property
    def coordinates(self) -> np.ndarray:
        """The read-only commutant coordinates of the canonical set under the
        declared symmetry (``symmetry.coordinates``), whose rows the werner
        filter reads and from which ``problem`` is compressed."""
        return symmetry.coordinates(self.candidates, self.symmetry, self.n_qubits)

    @functools.cached_property
    def norms(self) -> np.ndarray:
        """The read-only Hilbert-Schmidt norm of each canonical observable,
        against which the werner filter measures a residual: taken
        ``symmetry.CHUNK`` observables at a time, as a norm of the whole set
        would square all of it into one temporary of its size."""
        flat = self.candidates.reshape(len(self.candidates), -1)
        norms = np.concatenate([np.linalg.norm(flat[i : i + symmetry.CHUNK], axis=1)
                                for i in range(0, len(flat), symmetry.CHUNK)])
        norms.setflags(write=False)
        return norms

    @functools.cached_property
    def problem(self) -> MaxEntProblem:
        """The canonical problem: one zero-target problem on every canonical
        observable, built and checked once. Under a symmetry it is compressed
        from the canonical set's coordinates, ``symmetry.CHUNK`` rows at a
        time and with no copy of the set (``symmetry.coordinate_problem``);
        under ``"none"`` its operators are the observables themselves, which
        ``canonical_set`` checked. A measured order gathers its operators
        from it (``MaxEntProblem.take``)."""
        if self.symmetry == "none":
            return MaxEntProblem._zero_targets(self.candidates)
        # the werner filter reads the coordinates on every state; under
        # permutation symmetry they serve this build alone and are not held
        if self.symmetry == "werner":
            coords = self.coordinates
        else:
            coords = symmetry.coordinates(self.candidates, self.symmetry, self.n_qubits)
        return symmetry.coordinate_problem(coords, self.symmetry, self.n_qubits)

    def independent(self, order) -> tuple[int, ...]:
        """The canonical indices in ``order`` that
        ``symmetry.independent_projections`` keeps on the operators in that
        order.

        Under permutation symmetry that is the first member of each orbit
        (``orbits``), read off the factor indices: P(A) = P(V_s A V_s^dagger)
        for every qubit permutation s, so an orbit's members share one
        projection, and symmetrised products of a local basis are linearly
        independent. Under werner symmetry it is the same greedy test on the
        rows of ``coordinates`` and ``norms`` in that order, which are the
        rows that call computes, bit for bit."""
        order = list(order)
        if self.symmetry == "permutation":
            _, first = np.unique(self.orbits[order], return_index=True)
            kept = np.sort(first)
        else:
            kept = linalg.independent_rows(self.coordinates[order], self.norms[order])
        return tuple(order[i] for i in kept)

    def measured(self, order, count: int, noisy: bool) -> _MeasuredOrder:
        """The ``_MeasuredOrder`` of a state that measures the first
        ``count`` observables its symmetry filter keeps from ``order``
        (canonical indices, before filtering), with modes when the data are
        ``noisy``. The one built last is held (``_measured_order``)."""
        return _measured_order(self, tuple(order), count, noisy)


@functools.lru_cache(maxsize=1)
def _measured_order(context: _ObservableContext, order: tuple[int, ...], count: int,
                    noisy: bool) -> _MeasuredOrder:
    """``_ObservableContext.measured``, built whole; an order, count or
    noisiness other than the last one's replaces it."""
    if context.symmetry != "none":
        order = context.independent(order)
    kept = tuple(order[:count])
    modes = None
    # an empty batch has no modes, and no targets either way
    if noisy and kept:
        modes = measurement.projector_modes(context.candidates[list(kept)])
        for arr in modes:
            arr.setflags(write=False)
    return _MeasuredOrder(kept, modes, context.problem.take(kept))


@functools.lru_cache(maxsize=8)
def _observable_context(kind: str, n_qubits: int, symmetry_kind: str) -> _ObservableContext:
    """Everything a sweep's states share, cached per worker process.

    Computed once per worker: the canonical observable set; on the first
    permutation-symmetric state, each canonical observable's orbit number,
    from its factor indices, so that a state keeps the first of each orbit
    in its order; on the first werner-symmetric state, the canonical set's
    commutant coordinates, on whose rows a state runs the greedy
    independence test in its own order; and on the first state, the
    canonical problem (``_ObservableContext.problem``), compressed and
    checked once, from which every measured order gathers its operators. The
    last measured order swept is held whole, with its modes and its problem
    (``_ObservableContext.measured``). Each state still samples its target,
    draws its shuffle and its counts, estimates, solves and scores.
    """
    return _ObservableContext(kind, n_qubits, symmetry_kind)


def _acquire(rho, context: _ObservableContext, measured: _MeasuredOrder,
             config: ExperimentConfig, state_id: int) -> tuple[np.ndarray, np.ndarray]:
    """(targets, variances) of the canonical observables ``measured.kept``,
    in their order, in one pass: without modes (ideal data, or nothing
    measured) targets are exact, with variance zero; noisy ones are drawn
    and inverted as one batch of the order's modes, every count from the
    state's one counts stream, in mode order."""
    if measured.modes is None:
        targets = [observables.expectation(rho, context.candidates[i]) for i in measured.kept]
        return np.array(targets, dtype=float), np.zeros(len(measured.kept))
    rng = _stream(config.seed, state_id, 2)
    counts = measurement.simulate_counts(rho, measured.modes, config.noise, rng)
    return measurement.estimate_expectations(counts, measured.modes, config.noise)


def _scorer(target: states.DensityMatrix, kind: str, n_qubits: int):
    """score(rho') -> (fidelity against ``target``, smallest eigenvalue) of
    the full-space estimate of a ``symmetry.compressed_problem``'s estimate
    rho'. Both are read on the irrep blocks when the target commutes with
    the group (``symmetry.block_state``), else on the full space. The
    trivial group of ``"none"`` commutes with every target: its block form
    is the target's own matrix, with unit weights."""
    if kind == "none":
        block_target, weights = target, 1.0
    else:
        block = symmetry.block_state(target.matrix, kind, n_qubits)
        if block is None:
            def score(rho):
                full = states.DensityMatrix(symmetry.full_estimate(rho, kind, n_qubits))
                return states.fidelity(target, full), full.min_eigenvalue
            return score
        block_target = states.DensityMatrix(block)
        weights = symmetry.block_weights(kind, n_qubits)[:, None]

    def score(rho):
        # a Gibbs state needs no check beyond this one: it is PSD with unit
        # trace by construction, and its full-space spectrum is that of its
        # blocks rho' / m, each repeated m times
        if not np.isfinite(rho).all():
            raise ValueError("estimate: non-finite entries")
        fid = states._fidelity_from_sqrt(block_target.sqrt, rho)
        return fid, float(np.linalg.eigvalsh(rho / weights)[0])
    return score


def run_single_state(config: ExperimentConfig, state_id: int) -> list[StateRunRecord]:
    """All sweep points for one state; used directly by the worker pool."""
    context = _observable_context(config.observable_kind, config.n_qubits, config.symmetry)
    rho_target = states.sample(
        config.state_family, config.n_qubits, _stream(config.seed, state_id, 0),
        config.noise.eta, config.dicke_excitations,
    )

    # canonical indices in measurement order
    order = list(range(len(context.candidates)))
    if config.shuffle_observables:
        _stream(config.seed, state_id, 1).shuffle(order)
    measured = context.measured(order, max(config.r_values), config.noise.mode != "ideal")
    targets, variances = _acquire(rho_target, context, measured, config, state_id)
    problem = measured.problem.with_targets(targets, variances)
    kept = len(measured.kept)  # max(r), or fewer if the filter keeps fewer
    score = _scorer(rho_target, config.symmetry, config.n_qubits)
    # every r past the kept count is the same k; each distinct k is solved
    # once, in ascending order, seeded by the rule in the module docstring
    points: dict[int, tuple[float, bool, int]] = {}
    lambda0 = None
    for k in sorted({min(r, kept) for r in config.r_values}):
        if lambda0 is not None:
            lambda0 = np.concatenate([lambda0, np.zeros(k - lambda0.size)])
        solution = solve(problem.leading(k), config.solver, lambda0)
        fid, min_eigenvalue = score(solution.rho)
        points[k] = fid, solution.converged, solution.iterations
        full_rank = min_eigenvalue > math.sqrt(config.solver.tolerance)
        lambda0 = solution.lambdas if solution.converged and full_rank else None
    return [StateRunRecord(state_id, r, *points[min(r, kept)]) for r in config.r_values]


def worker_count(batch_size: int) -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "")
    if raw.strip():
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(
                f"{THREADS_ENV_VAR} must be an integer >= 1, got {raw!r}"
            ) from None
        if n < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {raw!r}")
    else:
        n = os.cpu_count() or 1
    return max(1, min(n, batch_size))


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run the full batch; deterministic given config.seed regardless of the
    number of workers."""
    n_workers = worker_count(config.batch_size)
    if n_workers == 1:
        per_state = [run_single_state(config, s) for s in range(config.batch_size)]
    else:
        # imported here: one-worker sweeps never pay for the module
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            per_state = list(
                pool.map(
                    run_single_state,
                    itertools.repeat(config, config.batch_size),
                    range(config.batch_size),
                    chunksize=max(1, config.batch_size // (4 * n_workers)),
                )
            )
    records = tuple(rec for chunk in per_state for rec in chunk)
    records = tuple(sorted(records, key=lambda rec: (rec.state_id, rec.r)))
    return SweepResult(
        records=records,
        summary=tuple(summarize(records)),
        metadata=config_metadata(config),
    )


def summarize(records) -> list[SummaryRow]:
    """Per-r mean and population standard deviation of the fidelity, over all
    batch states including non-converged solves."""
    records = list(records)
    if not records:
        raise ValueError("no records to summarize")
    by_r: dict[int, list[StateRunRecord]] = {}
    for rec in records:
        by_r.setdefault(rec.r, []).append(rec)
    rows = []
    for r in sorted(by_r):
        fids = np.array([rec.fidelity for rec in by_r[r]])
        rows.append(
            SummaryRow(
                r=r,
                mean_f=float(fids.mean()),
                std_f=float(fids.std()),
                n_converged=sum(1 for rec in by_r[r] if rec.converged),
            )
        )
    return rows


def config_metadata(config: ExperimentConfig) -> dict:
    return {
        "artifact": "symmaxent",
        "version": __version__,
        "std_convention": "population",
        "config": dataclasses.asdict(config),
    }


def mean_fidelity_by_r(result: SweepResult) -> dict[int, float]:
    return {row.r: row.mean_f for row in result.summary}


def write_outputs(result: SweepResult, outdir) -> list[Path]:
    """Write a sweep's ``result.csv`` (one row per record), ``summary.csv``
    and ``meta.json`` into ``outdir``, created if missing; returns the three
    paths in that order."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [outdir / name for name in ("result.csv", "summary.csv", "meta.json")]
    with open(paths[0], "w") as fh:
        fh.write(RESULT_CSV_HEADER + "\n")
        for rec in result.records:
            fh.write(
                f"{rec.state_id},{rec.r},{rec.fidelity:.17g},"
                f"{'true' if rec.converged else 'false'},{rec.iterations}\n"
            )
    paths[1].write_text(summary_csv_text(result.summary))
    with open(paths[2], "w") as fh:
        json.dump(result.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def summary_csv_text(summary) -> str:
    lines = [SUMMARY_CSV_HEADER]
    for row in summary:
        lines.append(f"{row.r},{row.mean_f:.17g},{row.std_f:.17g},{row.n_converged}")
    return "\n".join(lines) + "\n"


def read_result_csv(path) -> list[StateRunRecord]:
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != RESULT_CSV_HEADER:
            raise ValueError(f"unexpected result header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 5:
                raise ValueError(f"line {lineno}: expected 5 fields, got {len(fields)}")
            state_id, r, fid, conv, iters = fields
            if conv not in ("true", "false"):
                raise ValueError(f"line {lineno}: converged must be true or false, got {conv!r}")
            try:
                record = StateRunRecord(int(state_id), int(r), float(fid), conv == "true", int(iters))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            # a nan would turn `summarize`'s mean into nan
            if not 0.0 <= record.fidelity <= 1.0:
                raise ValueError(f"line {lineno}: fidelity must lie in [0, 1], got {fid!r}")
            records.append(record)
    return records
