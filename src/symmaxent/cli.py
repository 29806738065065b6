"""Command-line interface.

Subcommands:

- ``symmaxent sweep --config cfg.txt [--out DIR]``: run a fidelity sweep and
  write result.csv, summary.csv, and meta.json.
- ``symmaxent summarize result.csv``: print per-r summary statistics.
- ``symmaxent solve --targets problem.json [--out FILE]``: one-shot
  estimation from explicit targets, each with an optional ``variance``,
  starting from the problem's optional ``lambda0`` list.

The sweep config is a flat ``key = value`` text file; nested solver and
noise fields use dotted keys (``solver.tolerance = 1e-12``). Unset keys
keep their defaults. ``r_values`` accepts comma-separated entries, each an
integer or an inclusive ``lo-hi`` range, e.g. ``r_values = 1-20,30,63``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import re
import sys
from pathlib import Path

from . import harness, linalg, observables, symmetry
from .harness import ExperimentConfig
from .maxent import SolverOptions, solve
from .measurement import NoiseConfig
from .states import DensityMatrix

_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOL_VALUES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _parse_r_values(raw: str) -> tuple[int, ...]:
    out: list[int] = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        match = re.fullmatch(r"(\d+)(?:\s*-\s*(\d+))?", token)
        if match is None:
            raise ValueError(f"r_values entry {token!r} is not an integer or a lo-hi range")
        lo, hi = int(match[1]), int(match[2] or match[1])
        if lo > hi:
            raise ValueError(f"r_values range {token!r} is empty (lo > hi)")
        out.extend(range(lo, hi + 1))
    return tuple(out)


def parse_config_text(text: str) -> ExperimentConfig:
    """Build an ExperimentConfig from flat key = value lines, each key once."""
    flat: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        pairs = [(key, value)]
        if key == "state_family" and value.startswith("dicke(") and value.endswith(")"):
            pairs = [(key, "dicke"), ("dicke_excitations", value[len("dicke("):-1])]
        for key, value in pairs:
            if key in flat:
                raise ValueError(f"config line {lineno}: {key!r} also set on line {flat[key][0]}")
            flat[key] = lineno, value

    top: dict[str, object] = {}
    noise_kwargs: dict[str, object] = {}
    solver_kwargs: dict[str, object] = {}

    top_fields = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    noise_fields = {f.name: f.type for f in dataclasses.fields(NoiseConfig)}
    solver_fields = {f.name: f.type for f in dataclasses.fields(SolverOptions)}

    def _convert(value: str, typename: str):
        if typename.startswith("bool"):
            return _parse_bool(value)
        if typename.startswith("int"):
            return int(value)
        if typename.startswith("float"):
            return float(value)
        return value

    # range checks of one field run over the defaults, so the error names the
    # line; checks that span fields (r_values and dicke_excitations against
    # n_qubits, a noise mode against its rates) run at the end, with no line
    for key, (lineno, value) in flat.items():
        try:
            if key.startswith("noise."):
                name = key[len("noise."):]
                if name not in noise_fields:
                    raise ValueError(f"unknown noise field {name!r}")
                noise_kwargs[name] = _convert(value, noise_fields[name])
                NoiseConfig(**{name: noise_kwargs[name]})
            elif key.startswith("solver."):
                name = key[len("solver."):]
                if name not in solver_fields:
                    raise ValueError(f"unknown solver field {name!r}")
                solver_kwargs[name] = _convert(value, solver_fields[name])
                SolverOptions(**{name: solver_kwargs[name]})
            elif key == "r_values":
                top["r_values"] = _parse_r_values(value)
            elif key in top_fields and key not in ("noise", "solver"):
                top[key] = _convert(value, top_fields[key])
                # over one r value: the default grid of 4^n - 1 would not fit at large n
                if key != "dicke_excitations":
                    ExperimentConfig(**{"r_values": (0,), key: top[key]})
            else:
                raise ValueError("unknown config key")
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {key!r}: {exc}") from None

    return ExperimentConfig(
        noise=NoiseConfig(**noise_kwargs),
        solver=SolverOptions(**solver_kwargs),
        **top,
    )


def _cmd_sweep(args) -> int:
    config = parse_config_text(Path(args.config).read_text())
    result = harness.run_sweep(config)
    for path in harness.write_outputs(result, args.out):
        print(f"wrote {path}")
    return 0


def _cmd_summarize(args) -> int:
    records = harness.read_result_csv(args.result)
    rows = harness.summarize(records)
    sys.stdout.write(harness.summary_csv_text(rows))
    return 0


def _reject_unknown_keys(entry: dict, known: set[str], what: str) -> None:
    unknown = sorted(set(entry) - known)
    if unknown:
        raise ValueError(f"unknown {what} {', '.join(map(repr, unknown))}")


_MISSING = object()
_JSON_TYPE_NAMES = {
    dict: "a JSON object",
    list: "a JSON list",
    str: "a string",
    numbers.Integral: "an integer",
    numbers.Real: "a number",
}


def _expect(value, json_type, what: str):
    """``value`` if it is a ``json_type``, else a ValueError that says ``what``
    is missing (``_MISSING``) or of the wrong type; a bool is no number."""
    if value is _MISSING:
        raise ValueError(f"{what} is missing")
    if isinstance(value, bool) or not isinstance(value, json_type):
        raise ValueError(f"{what} must be {_JSON_TYPE_NAMES[json_type]}, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """``value`` as a float, if it is a JSON number within float range; else
    a ValueError that names ``what``."""
    number = _expect(value, numbers.Real, what)
    try:
        return float(number)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


def _solve_problem_from_json(data) -> dict:
    _expect(data, dict, "a solve problem")
    problem_keys = {"n_qubits", "observables", "symmetry", "measured", "solver", "lambda0"}
    _reject_unknown_keys(data, problem_keys, "problem key")
    n_qubits = _expect(data.get("n_qubits", _MISSING), numbers.Integral, "n_qubits")
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    kind = data.get("observables")
    symmetry_kind = _expect(data.get("symmetry", "none"), str, "symmetry")

    if "observables" in data and kind not in observables.KINDS:
        raise ValueError(f"unknown observables kind {kind!r}, not one of {observables.KINDS}")

    measured, variances = [], []
    for entry in _expect(data.get("measured", _MISSING), list, "measured"):
        where = f"measured entry {len(measured)}"
        _expect(entry, dict, where)
        _reject_unknown_keys(entry, {"label", "matrix", "target", "variance"}, f"{where} key")
        target = _number(entry.get("target", _MISSING), f"{where} target")
        variance = _number(entry.get("variance", 0.0), f"{where} variance")
        if not 0.0 <= variance < math.inf:
            raise ValueError(f"{where} variance must be finite and >= 0, got {variance!r}")
        if "matrix" in entry:
            # the label names the matrix in error messages only
            label = entry.get("label", f"custom-{len(measured)}")
            try:
                matrix = observables.matrix_from_jsonable(entry["matrix"])
                op = linalg.hermitian(matrix, f"operator {label!r}")
            except ValueError as exc:
                raise ValueError(f"{where} matrix: {exc}") from None
        elif "label" in entry:
            label = _expect(entry["label"], str, f"{where} label")
            if "observables" not in data:
                raise ValueError(f"{where} label {label!r} needs the problem's observables kind")
            op = observables.canonical_operator(kind, n_qubits, label)
        else:
            raise ValueError(f"{where} has neither a label nor a matrix")
        measured.append((op, target))
        variances.append(variance)

    solver_kwargs = _expect(data.get("solver", {}), dict, "solver")
    solver_fields = {f.name for f in dataclasses.fields(SolverOptions)}
    _reject_unknown_keys(solver_kwargs, solver_fields, "solver field")
    lambda0 = data.get("lambda0")
    if lambda0 is not None:
        lambda0 = [
            _number(x, f"lambda0 entry {i}")
            for i, x in enumerate(_expect(lambda0, list, "lambda0"))
        ]
    problem = symmetry.compressed_problem(tuple(measured), symmetry_kind, n_qubits, variances)
    solution = solve(problem, SolverOptions(**solver_kwargs), lambda0=lambda0)
    # no state is the estimate of an infeasible solve; the multipliers stay
    # as the proof
    rho = entropy = None
    if solution.stop_reason != "infeasible":
        full = symmetry.full_estimate(solution.rho, symmetry_kind, n_qubits)
        rho = observables.matrix_to_jsonable(DensityMatrix(full).matrix)
        entropy = float(solution.entropy)
    return {
        "rho": rho,
        "lambdas": [float(x) for x in solution.lambdas],
        "objective": float(solution.objective),
        "iterations": int(solution.iterations),
        "converged": bool(solution.converged),
        "stop_reason": solution.stop_reason,
        "entropy": entropy,
        "n_evals": int(solution.n_evals),
    }


def _cmd_solve(args) -> int:
    data = json.loads(Path(args.targets).read_text())
    payload = _solve_problem_from_json(data)
    if payload["stop_reason"] == "infeasible":
        print(
            "symmaxent solve: no state meets these exact targets; "
            'a "variance" on each measured entry gives an estimate',
            file=sys.stderr,
        )
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symmaxent",
        description="Maximum-entropy quantum state estimation with symmetry constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a fidelity-vs-r sweep from a config file")
    p_sweep.add_argument("--config", required=True, help="flat key = value config file")
    p_sweep.add_argument("--out", default=".", help="output directory (default: .)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sum = sub.add_parser("summarize", help="summarize a result.csv")
    p_sum.add_argument("result", help="path to result.csv")
    p_sum.set_defaults(func=_cmd_summarize)

    p_solve = sub.add_parser("solve", help="one-shot estimation from a targets JSON file")
    p_solve.add_argument("--targets", required=True, help="JSON problem description")
    p_solve.add_argument("--out", default="", help="output JSON path (default: stdout)")
    p_solve.set_defaults(func=_cmd_solve)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; an input error (a ValueError, a JSON error among
    them, or an OSError) prints one line on stderr and returns 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"symmaxent {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
