#!/usr/bin/env python3
"""Sweep benchmark for symmaxent.

Run from the root of a checkout:

    python3 perfbench/run.py --workload unbiased_sic --seed 1 --seconds 30 --trace 0

Each run drives ``harness.run_sweep``, the path behind ``symmaxent sweep``
and ``scripts/``, on one named workload (see ``workloads.py``) with inputs
derived from ``--seed``, for at least ``--seconds`` seconds of sweeping.

``--trace 0`` measures the end-to-end metrics with tracing off:
``states_per_s`` (states swept over the summed sweep time of the one-state
chunks, each sweep time scaled to the nominal host speed by
``hostspeed.py``), ``setup_s`` (median over fresh processes),
``peak_rss_mb`` and ``fidelity_mean``. The share of failed solves
(``error_frac``) is the result line's ``failed / attempted``.

``--trace 1`` is a separate run that reports the per-layer metrics: spans
around calls into each module's public functions (``tracing.py``), pool
worker threads and efficiency, set-up layer timings, kernel micro-timings
(``kernels.py``) and the tracing overhead, measured as the drop in
``states_per_s`` between untraced and traced sweeps of the same chunks.

Both modes check the outputs (``checks.py``) and print the environment.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every check passed. Full results, and the spans of a traced run,
are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

MIN_CHUNKS = 10
RECHECKS = 4
SETUP_SAMPLES = 9
LAYER_SETUP_SAMPLES = 3
POOL_STATES = 4
WARMUP_CHUNK = 2**31 - 1
POOL_CHUNK = 2**31 - 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int, workers: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "SYMMAXENT_THREADS": os.environ.get("SYMMAXENT_THREADS"),
        "nproc": os.cpu_count(),
        "workers": workers,
        "machine": platform.machine(),
        "commit": git_commit(),
        "seed": seed,
    }


def timed_sweep(harness, config):
    """(wall seconds, records) of one ``run_sweep``; records are None when
    it raised."""
    t0 = time.perf_counter()
    try:
        records = harness.run_sweep(config).records
    except Exception:
        traceback.print_exc()
        records = None
    return time.perf_counter() - t0, records


def setup_times(workload, samples: int) -> list[float]:
    """Seconds from starting a fresh process to it being ready to sweep."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(PROBE), workload.observable_kind,
             str(workload.n_qubits), workload.symmetry],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


class Tally:
    """Solves attempted and failed, plus the problems found by the checks."""

    def __init__(self, checks):
        self.checks = checks
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, what: str, records, n_solves: int) -> None:
        self.attempted += n_solves
        if records is None:
            self.failed += n_solves
            self.problems.append(f"{what} raised")
            return
        bad = sum(self.checks.bad_fidelity(rec.fidelity) for rec in records)
        self.failed += bad
        if bad:
            self.problems.append(f"{what}: {bad} fidelities non-finite or outside [0, 1]")

    def same(self, what: str, first, again) -> None:
        if first is None or again is None:
            return
        key = self.checks.record_key
        if [key(r) for r in first] != [key(r) for r in again]:
            self.problems.append(f"{what}: records are not bit-identical to the first sweep")


class Chunk:
    """A one-state sweep, its first-sweep records and, per mode
    (``untraced``, ``traced``), its wall time and the host slowdown factor
    around it."""

    def __init__(self, index: int, config):
        self.index = index
        self.config = config
        self.records = None
        self.seconds: dict[str, float] = {}
        self.speed: dict[str, float] = {}

    def sweep(self, harness, mode: str, tally, clock, tracer=None) -> None:
        if tracer is None:
            seconds, records = timed_sweep(harness, self.config)
        else:
            with tracer:
                seconds, records = timed_sweep(harness, self.config)
        speed = clock.speed()
        what = f"chunk {self.index} ({mode})"
        tally.add(what, records, len(self.config.r_values))
        if self.records is None:
            self.records = records
        else:
            tally.same(what, self.records, records)
        if records is not None:
            self.seconds[mode], self.speed[mode] = seconds, speed


def sweep_chunks(harness, workload, seed, seconds, min_chunks, rechecks, tally, clock,
                 tracer=None):
    """Sweeps fresh one-state chunks 0, 1, ... until ``seconds`` are up and
    at least ``min_chunks`` ran. With a tracer, every chunk is swept
    untraced and then traced. ``clock`` probes the host speed after every
    sweep. Then the first ``rechecks`` chunks are swept again, untimed, and
    must reproduce their first sweep bit for bit.
    """
    chunks = []
    start = time.perf_counter()
    while len(chunks) < min_chunks or time.perf_counter() - start < seconds:
        chunk = Chunk(len(chunks), workload.config(workload.chunk_seed(seed, len(chunks))))
        chunk.sweep(harness, "untraced", tally, clock)
        if tracer is not None:
            chunk.sweep(harness, "traced", tally, clock, tracer)
        chunks.append(chunk)
    for chunk in chunks[:rechecks]:
        _, records = timed_sweep(harness, chunk.config)
        what = f"chunk {chunk.index} (re-sweep)"
        tally.add(what, records, len(chunk.config.r_values))
        tally.same(what, chunk.records, records)
    return chunks


def states_per_s(chunks, mode: str = "untraced", nominal: bool = True) -> float:
    """States swept per second: the chunk count over the sum of their sweep
    times, so that every state counts, slow ones too. With ``nominal`` each
    sweep time is first divided by the host's slowdown factor around it;
    without, it is the raw wall time."""
    times = [c.seconds[mode] / (c.speed[mode] if nominal else 1.0)
             for c in chunks if mode in c.seconds]
    return len(times) / math.fsum(times)


def all_records(chunks):
    return [rec for c in chunks if c.records is not None for rec in c.records]


def digest(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident set of this process, which runs the whole one-worker
    sweep (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PoolSampler(threading.Thread):
    """Samples the OS thread count of each pool worker until stopped."""

    def __init__(self, period_s: float = 0.02):
        super().__init__(daemon=True)
        self.period_s = period_s
        self.threads: dict[int, int] = {}
        self._done = threading.Event()

    def run(self):
        while not self._done.is_set():
            for pid in (p.pid for p in multiprocessing.active_children()):
                try:
                    n = len(os.listdir(f"/proc/{pid}/task"))
                except OSError:
                    continue
                self.threads[pid] = max(self.threads.get(pid, 0), n)
            self._done.wait(self.period_s)

    def stop(self):
        self._done.set()
        self.join(timeout=10)


def pool_pass(harness, workload, seed, states: int, tally):
    """Sweeps one batch with one worker, then again at the default worker
    count; returns (workers, OS threads per worker, serial seconds, pooled
    seconds). With one worker the sweep runs in this process, whose threads
    are counted instead."""
    config = workload.config(workload.chunk_seed(seed, POOL_CHUNK), states)
    n_solves = states * len(config.r_values)
    serial_s, serial = timed_sweep(harness, config)
    tally.add("pool batch (one worker)", serial, n_solves)
    saved = os.environ.pop(harness.THREADS_ENV_VAR, None)
    try:
        workers = harness.worker_count(states)
        sampler = PoolSampler()
        sampler.start()
        try:
            pooled_s, pooled = timed_sweep(harness, config)
        finally:
            sampler.stop()
    finally:
        if saved is not None:
            os.environ[harness.THREADS_ENV_VAR] = saved
    tally.add("pool batch (pooled)", pooled, n_solves)
    tally.same("pool batch (pooled)", serial, pooled)
    if workers == 1:
        threads = len(os.listdir("/proc/self/task"))
    else:
        threads = max(sampler.threads.values(), default=0)
    return workers, threads, serial_s, pooled_s


def layer_setup_metrics(observables, symmetry, workload, samples: int) -> dict:
    def timed(fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        return time.perf_counter() - t0, out

    canonical = [timed(observables.canonical_set, workload.observable_kind, workload.n_qubits)[0]
                 for _ in range(samples)]
    build = []
    for _ in range(samples):
        symmetry.build_symmetry.cache_clear()
        seconds, spec = timed(symmetry.build_symmetry, workload.symmetry, workload.n_qubits)
        build.append(seconds)
    return {
        "symmetry.build_s": (statistics.median(build), "s"),
        "symmetry.aux_count": (len(spec.auxiliary), "count"),
        "observables.canonical_set_s": (statistics.median(canonical), "s"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "symmaxent" / "__init__.py").is_file():
        print(f"perfbench: no symmaxent package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import checks
    import hostspeed
    from symmaxent import harness, observables, symmetry
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # every kept workload sweeps with one worker; BLAS threading stays at its default
    os.environ[harness.THREADS_ENV_VAR] = "1"
    env = environment(args.seed, harness.worker_count(1))

    tally = Tally(checks)
    harness.run_sweep(workload.config(workload.chunk_seed(args.seed, WARMUP_CHUNK), 1))
    metrics: dict[str, tuple[float, str]] = {}
    info: dict = {"workload": workload.name, "trace": args.trace, "env": env}
    OUT_DIR.mkdir(exist_ok=True)

    if args.trace == 0:
        # set-up samples before and after the sweep, so that their median
        # spans the run rather than one moment of the host's load
        setup = setup_times(workload, (SETUP_SAMPLES + 1) // 2)
        chunks = sweep_chunks(harness, workload, args.seed, args.seconds, MIN_CHUNKS,
                              RECHECKS, tally, hostspeed.HostClock())
        setup += setup_times(workload, SETUP_SAMPLES // 2)
        records = all_records(chunks)
        metrics.update({
            "states_per_s": (states_per_s(chunks), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "fidelity_mean": (statistics.fmean(r.fidelity for r in records), "fidelity"),
        })
        info.update(setup_samples_s=setup, wall_states_per_s=states_per_s(chunks, nominal=False))
    else:
        import kernels
        import tracing

        metrics.update(layer_setup_metrics(observables, symmetry, workload, LAYER_SETUP_SAMPLES))
        tracer = tracing.Tracer()
        chunks = sweep_chunks(harness, workload, args.seed, args.seconds, MIN_CHUNKS,
                              RECHECKS, tally, hostspeed.HostClock(), tracer)
        records = all_records(chunks)
        workers, threads, serial_s, pooled_s = pool_pass(
            harness, workload, args.seed, POOL_STATES, tally)
        untraced_sps, traced_sps = states_per_s(chunks), states_per_s(chunks, "traced")
        layers, shares = tracing.layer_metrics(tracer.spans)
        metrics.update(layers)
        metrics.update({
            "harness.worker_threads": (threads, "count"),
            "harness.pool_efficiency": (serial_s / (workers * pooled_s), "ratio"),
            "trace.overhead_states_per_s": (untraced_sps - traced_sps, "1/s"),
            "trace.overhead_frac": (1.0 - traced_sps / untraced_sps, "fraction"),
        })
        metrics.update(kernels.kernel_metrics())
        info.update(layer_shares=shares, pool_workers=workers,
                    states_per_s_untraced=untraced_sps, states_per_s_traced=traced_sps)
        tracer.dump(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json")

    tally.problems += checks.reference_problems(workload, records, checks.load_reference())
    info.update(
        chunks=len(chunks),
        batch_size=chunks[0].config.batch_size,
        rechecks=min(RECHECKS, len(chunks)),
        chunk_seconds=[c.seconds for c in chunks],
        chunk_speeds=[c.speed for c in chunks],
        host_speed_median=statistics.median(f for c in chunks for f in c.speed.values()),
        error_frac=tally.failed / tally.attempted,
        inputs_digest=digest(c.config for c in chunks),
        records_digest=digest(checks.record_key(r) for r in records),
        problems=tally.problems,
    )
    result = {
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**info, **result}, fh, indent=1)
        fh.write("\n")

    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{workload.name}: {info['chunks']} one-state chunks, "
          f"error_frac {info['error_frac']:.6g} ({tally.failed} of {tally.attempted} solves), "
          f"median host slowdown {info['host_speed_median']:.3f}")
    if "wall_states_per_s" in info:
        print(f"  wall-clock states_per_s (not scaled to nominal host speed) "
              f"{info['wall_states_per_s']:.6g} 1/s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
