"""Spans around calls into symmaxent's public functions, recorded from outside.

:class:`Tracer` replaces module attributes with timing wrappers while it is
installed, so the program itself is unchanged: the harness looks up
``run_single_state``, ``solve``, ``states.fidelity`` and friends by name at
call time and finds the wrappers. Calls into ``numpy.linalg.eigh`` and
``numpy.linalg.solve`` are recorded only when made directly by a ``solve``
span, which is where the solver's Gibbs evaluations and Newton linear solves
happen. Spans stay in memory and are written out when the run ends.

:func:`layer_metrics` turns the spans into the per-layer metrics. Times are
per swept state (``s/state``) so that each reads directly as that layer's
share of ``1 / states_per_s``.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter

import numpy as np

from symmaxent import harness, linalg, measurement, observables, states

STATE = "harness.run_single_state"
SOLVE = "maxent.solve"
EIGH = "numpy.linalg.eigh"
LINSOLVE = "numpy.linalg.solve"
SAMPLE = "states.sample"
FIDELITY = "states.fidelity"
SUBSET = "linalg.linearly_independent_subset"
EXPECTATION = "observables.expectation"
PROJECTOR_MODES = "measurement.projector_modes"
SIMULATE = "measurement.simulate_counts"
ESTIMATE = "measurement.estimate_expectations"
ACQUIRE = (EXPECTATION, PROJECTOR_MODES, SIMULATE, ESTIMATE)

SAMPLERS = (
    "haar_pure",
    "haar_symmetric_pure",
    "random_permutation_invariant_mixed",
    "random_werner",
    "ghz",
    "dicke",
    "add_white_noise",
    "mix_with_identity",
)


def _solve_attrs(args, kwargs, solution):
    problem, options = args[0], args[1] if len(args) > 1 else kwargs["options"]
    return (
        problem.n_constraints,
        options.max_iterations,
        solution.iterations,
        bool(solution.converged),
    )


class Tracer:
    """Records spans ``[name, start, end, parent, root, attrs]``; ``parent``
    and ``root`` are span indices (-1 for none), and ``root`` is the state
    span that caused the call, so all spans of one state share it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, attrs=None, only_under=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if only_under is not None and not (stack and spans[stack[-1]][0] == only_under):
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, stack[0] if stack else idx, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, out)
            return out

        return wrapper

    def _targets(self):
        yield harness, "run_single_state", STATE, None, None
        yield harness, "solve", SOLVE, _solve_attrs, None
        for fn in SAMPLERS:
            yield states, fn, SAMPLE, None, None
        yield states, "fidelity", FIDELITY, None, None
        yield linalg, "linearly_independent_subset", SUBSET, None, None
        yield observables, "expectation", EXPECTATION, None, None
        yield measurement, "projector_modes", PROJECTOR_MODES, None, None
        yield measurement, "simulate_counts", SIMULATE, None, None
        yield measurement, "estimate_expectations", ESTIMATE, None, None
        yield np.linalg, "eigh", EIGH, None, SOLVE
        yield np.linalg, "solve", LINSOLVE, None, SOLVE

    def __enter__(self):
        for module, attr, name, attrs, only_under in self._targets():
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, attrs, only_under))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "root", "attrs"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def _percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def layer_metrics(spans) -> tuple[dict, dict]:
    """Per-layer metrics and their units from a list of spans, plus each
    layer's share of the time inside state spans."""
    by_name: dict[str, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def dur(span):
        return span[2] - span[1]

    def total(name, top_level_only=False):
        rows = by_name.get(name, [])
        if top_level_only:
            rows = [s for s in rows if s[3] >= 0 and spans[s[3]][0] == STATE]
        return sum(dur(s) for s in rows)

    state_times = [dur(s) for s in by_name.get(STATE, [])]
    n_states = len(state_times)
    if n_states == 0:
        raise ValueError("no state spans recorded")
    solves = by_name.get(SOLVE, [])
    n_solves = max(len(solves), 1)
    # eigh and solve spans exist only as direct children of solve spans
    child_of_solve = {EIGH: total(EIGH), LINSOLVE: total(LINSOLVE)}
    solve_self = total(SOLVE) - sum(child_of_solve.values())

    attrs = [s[5] for s in solves]
    iterations = sum(a[2] for a in attrs)
    n_linsolve = len(by_name.get(LINSOLVE, []))
    acquire_s = sum(total(name, top_level_only=True) for name in ACQUIRE)
    n_acquired = len(by_name.get(SIMULATE, [])) + len(by_name.get(EXPECTATION, []))

    per_state = {
        "states.sample_s": total(SAMPLE),
        "linalg.independent_subset_s": total(SUBSET),
        "measurement.acquire_s": acquire_s,
        "maxent.solve_s": solve_self,
        "maxent.eigh_s": child_of_solve[EIGH],
        "maxent.linsolve_s": child_of_solve[LINSOLVE],
        "states.fidelity_s": total(FIDELITY),
    }
    metrics = {name: (value / n_states, "s/state") for name, value in per_state.items()}
    metrics.update(
        {
            "harness.state_p50_s": (statistics.median(state_times), "s"),
            "harness.state_p90_s": (_percentile(state_times, 90), "s"),
            "harness.state_samples": (n_states, "count"),
            "states.fidelity_calls": (len(by_name.get(FIDELITY, [])) / n_states, "count/state"),
            "measurement.projector_modes_calls": (
                len(by_name.get(PROJECTOR_MODES, [])) / max(n_acquired, 1),
                "count/obs",
            ),
            "maxent.solve_p50_ms": (1e3 * statistics.median([dur(s) for s in solves]), "ms"),
            "maxent.solve_p90_ms": (1e3 * _percentile([dur(s) for s in solves], 90), "ms"),
            "maxent.iterations_per_solve": (iterations / n_solves, "count/solve"),
            "maxent.iter_cap_frac": (sum(a[2] >= a[1] for a in attrs) / n_solves, "fraction"),
            "maxent.unconverged_frac": (sum(not a[3] for a in attrs) / n_solves, "fraction"),
            "maxent.constraints_mean": (sum(a[0] for a in attrs) / n_solves, "count"),
            "maxent.eigh_calls_per_solve": (len(by_name.get(EIGH, [])) / n_solves, "count/solve"),
            "maxent.linsolve_calls_per_solve": (n_linsolve / n_solves, "count/solve"),
            "maxent.newton_accept_ratio": (iterations / max(n_linsolve, 1), "ratio"),
        }
    )

    in_states = sum(state_times)
    shares = {
        "states.sample": per_state["states.sample_s"],
        "linalg.independent_subset": per_state["linalg.independent_subset_s"],
        "measurement.acquire": acquire_s,
        "maxent.solve_self": solve_self,
        "maxent.eigh": child_of_solve[EIGH],
        "maxent.linsolve": child_of_solve[LINSOLVE],
        "states.fidelity": per_state["states.fidelity_s"],
    }
    shares = {k: v / in_states for k, v in shares.items()}
    shares["harness.other"] = 1.0 - sum(shares.values())
    return metrics, shares
