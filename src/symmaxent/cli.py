"""Command-line interface.

Subcommands:

- ``symmaxent sweep --config cfg.txt [--out DIR]``: run a fidelity sweep and
  write result.csv, summary.csv, and meta.json.
- ``symmaxent summarize result.csv``: print per-r summary statistics.
- ``symmaxent solve --targets problem.json [--out FILE]``: one-shot
  estimation from explicit targets, starting from the problem's optional
  ``lambda0`` list.

The sweep config is a flat ``key = value`` text file; nested solver and
noise fields use dotted keys (``solver.tolerance = 1e-12``). Unset keys
keep their defaults. ``r_values`` accepts comma-separated entries, each an
integer or an inclusive ``lo-hi`` range, e.g. ``r_values = 1-20,30,63``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import numbers
import re
import sys
from pathlib import Path

from . import harness, observables
from .harness import ExperimentConfig
from .linalg import HermitianOperator
from .maxent import MaxEntProblem, SolverOptions, solve
from .measurement import NoiseConfig

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
                if key != "dicke_excitations":
                    ExperimentConfig(**{key: top[key]})
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


def _solve_problem_from_json(data) -> dict:
    _expect(data, dict, "a solve problem")
    problem_keys = {"n_qubits", "observables", "symmetry", "measured", "solver", "lambda0"}
    _reject_unknown_keys(data, problem_keys, "problem key")
    n_qubits = _expect(data.get("n_qubits", _MISSING), numbers.Integral, "n_qubits")
    dim = 2**n_qubits
    kind = data.get("observables")
    symmetry_kind = data.get("symmetry", "none")

    by_label = {}
    if "observables" in data:
        if kind not in observables.KINDS:
            raise ValueError(f"unknown observables kind {kind!r}, not one of {observables.KINDS}")
        by_label = {op.label: op for op in observables.canonical_set(kind, n_qubits)}

    measured = []
    for entry in _expect(data.get("measured", _MISSING), list, "measured"):
        where = f"measured entry {len(measured)}"
        _expect(entry, dict, where)
        _reject_unknown_keys(entry, {"label", "matrix", "target"}, f"{where} key")
        target = _expect(entry.get("target", _MISSING), numbers.Real, f"{where} target")
        if "matrix" in entry:
            op = HermitianOperator(
                observables.matrix_from_jsonable(entry["matrix"]),
                entry.get("label", f"custom-{len(measured)}"),
            )
        elif "label" in entry:
            label = _expect(entry["label"], str, f"{where} label")
            if label not in by_label:
                raise ValueError(f"unknown observable label {label!r} for kind {kind!r}")
            op = by_label[label]
        else:
            raise ValueError(f"{where} has neither a label nor a matrix")
        measured.append((op, float(target)))

    solver_kwargs = _expect(data.get("solver", {}), dict, "solver")
    solver_fields = {f.name for f in dataclasses.fields(SolverOptions)}
    _reject_unknown_keys(solver_kwargs, solver_fields, "solver field")
    solution = solve(
        MaxEntProblem(tuple(measured), (), dim, symmetry_kind),
        SolverOptions(**solver_kwargs),
        lambda0=data.get("lambda0"),
    )
    return solution.to_jsonable()


def _cmd_solve(args) -> int:
    data = json.loads(Path(args.targets).read_text())
    payload = _solve_problem_from_json(data)
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
