#!/usr/bin/env python3
"""In-process A/B of the working tree's sweep against a git revision's.

Run from the root of a checkout:

    python scripts/bench.py --base HEAD~1 --states 150 --out BENCH.json

``git archive REV src`` unpacks the revision's package into a temporary
directory, where it is imported as ``symmaxent_base``; the working tree's
``src/symmaxent`` is imported as ``symmaxent``. Both run in this one
process, so they share the interpreter, the BLAS and the host's load, and
each keeps its own per-worker caches (module globals). A self-A/B
(``--base HEAD`` on a clean tree) measures the method's noise.

For each workload of ``perfbench/workloads.py`` both trees sweep the same
one-state chunks: chunk c is ``run_sweep`` on the workload's one-state
config at sweep seed ``chunk_seed(7, c)``, as in the benchmark. The
trees alternate which runs first, chunk by chunk. Each tree first sweeps
one untimed warm-up chunk, which builds its cached canonical set and
problem. Per workload it reports the per-state time ratio working / base
(median and quartiles), the ratio of the summed times, each side's states
per second and how many chunks gave bit-identical records; with them, the
environment. The run is printed as one JSON object; ``--out`` appends it
to the ``runs`` list of a JSON file. ``--require-identical`` ends with
status 1 unless every chunk's records are identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

BASE_PACKAGE = "symmaxent_base"
# the workload seed of the chunks: chunk c sweeps at chunk_seed(SEED, c)
SEED = 7
# a chunk index no measured chunk reaches, as in the benchmark's warm-up
WARMUP_CHUNK = 2**31 - 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--states", type=int, default=40, help="chunks per workload")
    ap.add_argument("--out", type=Path, help="JSON file whose runs list the run is appended to")
    ap.add_argument("--require-identical", action="store_true",
                    help="exit 1 unless every chunk's records are identical")
    args = ap.parse_args(argv)
    if args.states < 1:
        ap.error("--states must be >= 1")
    return args


def git(*argv) -> bytes:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True).stdout


def load_module(name: str, path: Path, package_dir: Path | None = None):
    """The module (or, with ``package_dir``, package) at ``path``,
    registered as ``name`` before it runs: a dataclass looks its module up
    while it is defined."""
    locations = None if package_dir is None else [str(package_dir)]
    spec = importlib.util.spec_from_file_location(name, path,
                                                  submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def import_base(rev: str, tmp: Path):
    """``symmaxent_base.harness``, imported from ``git archive rev src``
    unpacked under ``tmp``. Every import inside the package is relative, so
    its modules resolve to one another under the new name."""
    archive = tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev, "src")))
    extract = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    archive.extractall(tmp, **extract)
    package = tmp / "src" / "symmaxent"
    load_module(BASE_PACKAGE, package / "__init__.py", package)
    return importlib.import_module(f"{BASE_PACKAGE}.harness")


def translated(config, harness):
    """``config``, a working-tree ``ExperimentConfig``, rebuilt from
    ``harness``'s own classes, field by field."""
    fields = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    fields["noise"] = harness.NoiseConfig(**dataclasses.asdict(config.noise))
    fields["solver"] = harness.SolverOptions(**dataclasses.asdict(config.solver))
    return harness.ExperimentConfig(**fields)


def record_keys(records) -> list[tuple]:
    return [(rec.state_id, rec.r, rec.fidelity.hex(), rec.converged, rec.iterations)
            for rec in records]


def timed(harness, config) -> tuple[float, list[tuple]]:
    t0 = time.perf_counter()
    records = harness.run_sweep(config).records
    return time.perf_counter() - t0, record_keys(records)


def quartiles(x) -> dict:
    q1, q2, q3 = np.percentile(x, [25, 50, 75])
    return {"median": float(q2), "q1": float(q1), "q3": float(q3)}


def compare(workload, sides: dict, states: int) -> dict:
    """Both trees' sweep times and records on ``states`` chunks of
    ``workload``; ``sides`` maps "base" and "working" to a harness."""
    configs = {
        name: [translated(workload.config(workload.chunk_seed(SEED, c)), harness)
               for c in (WARMUP_CHUNK, *range(states))]
        for name, harness in sides.items()
    }
    for name, harness in sides.items():
        timed(harness, configs[name][0])
    seconds = {name: [] for name in sides}
    identical = 0
    for c in range(states):
        order = ("base", "working") if c % 2 == 0 else ("working", "base")
        records = {}
        for name in order:
            elapsed, records[name] = timed(sides[name], configs[name][c + 1])
            seconds[name].append(elapsed)
        identical += records["base"] == records["working"]
    base, work = np.array(seconds["base"]), np.array(seconds["working"])
    return {
        "states": states,
        "time_ratio": quartiles(work / base),
        "ratio_of_sums": float(work.sum() / base.sum()),
        "states_per_s": {"base": float(states / base.sum()),
                         "working": float(states / work.sum())},
        "identical_records": identical,
    }


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SYMMAXENT_THREADS")},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_module("perfbench_workloads", ROOT / "perfbench" / "workloads.py").WORKLOADS
    base_rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}").decode().strip()
    dirty = bool(git("status", "--porcelain", "--", "src").strip())
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": import_base(base_rev, Path(tmp)),
                 "working": importlib.import_module("symmaxent.harness")}
        results = {}
        for name, workload in workloads.items():
            results[name] = compare(workload, sides, args.states)
            r = results[name]
            print(f"{name}: time ratio {r['time_ratio']['median']:.3f} "
                  f"[{r['time_ratio']['q1']:.3f}-{r['time_ratio']['q3']:.3f}], "
                  f"ratio of sums {r['ratio_of_sums']:.3f}, states/s "
                  f"{r['states_per_s']['base']:.1f} -> {r['states_per_s']['working']:.1f}, "
                  f"identical records {r['identical_records']}/{args.states}", file=sys.stderr)
    run = {
        "base": base_rev,
        "working": {"head": git("rev-parse", "HEAD").decode().strip(), "src_modified": dirty},
        "seed": SEED,
        "workloads": results,
        "environment": environment(),
    }
    print(json.dumps(run, indent=2))
    if args.out is not None:
        log = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
        log["runs"].append(run)
        args.out.write_text(json.dumps(log, indent=2) + "\n")
    if args.require_identical and any(r["identical_records"] != args.states
                                      for r in results.values()):
        print("records differ between the trees", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
