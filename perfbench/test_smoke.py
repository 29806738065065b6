"""Smoke test of the benchmark itself, on a one-state batch of each workload.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that a different seed changes the inputs but not the metric names,
that the reference check fails on a loss of 1e-6 in fidelity at the top r
of the sharp workloads, and that the benchmark fails without printing a
result when the program's sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import kernels  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def tiny_run(monkeypatch, tmp_path, capsys):
    """Runs ``run.main`` in this process with as little work as it allows
    and returns (result line, saved result file)."""
    for name, value in (("MIN_CHUNKS", 1), ("RECHECKS", 1), ("SETUP_SAMPLES", 1),
                        ("LAYER_SETUP_SAMPLES", 1), ("POOL_STATES", 2),
                        ("OUT_DIR", tmp_path)):
        monkeypatch.setattr(run, name, value)
    monkeypatch.setattr(kernels, "MIN_BATCH_S", 0.002)
    monkeypatch.setattr(kernels, "BATCHES", 1)
    monkeypatch.setenv("SYMMAXENT_THREADS", "1")

    def go(workload: str, seed: int, trace: int):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0.1", "--trace", str(trace)])
        out, err = capsys.readouterr()
        assert code == 0, err
        result = json.loads(out.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        saved = tmp_path / f"result-{workload}-seed{seed}-trace{trace}.json"
        return result, json.loads(saved.read_text())

    return go


def units(spec_metrics):
    return {m["name"]: m["unit"] for m in spec_metrics}


def emitted_units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_workloads_match_spec():
    assert list(WORKLOADS) == NAMES


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics_and_seed(tiny_run, workload):
    first, first_info = tiny_run(workload, 1, 0)
    second, second_info = tiny_run(workload, 2, 0)
    assert emitted_units(first) == units(SPEC["end_to_end"])
    assert emitted_units(second) == emitted_units(first)
    for name, metric in first["metrics"].items():
        assert metric["value"] > 0, name
    assert first_info["inputs_digest"] != second_info["inputs_digest"]
    assert first_info["records_digest"] != second_info["records_digest"]
    for key in ("python", "numpy", "blas", "nproc", "workers", "commit", "seed"):
        assert key in first_info["env"]


@pytest.mark.parametrize("workload", NAMES)
def test_per_layer_metrics(tiny_run, tmp_path, workload):
    result, info = tiny_run(workload, 1, 1)
    assert emitted_units(result) == units(SPEC["per_layer"])
    assert (tmp_path / f"spans-{workload}-seed1.json").is_file()
    assert abs(sum(info["layer_shares"].values()) - 1.0) < 1e-9


@pytest.mark.parametrize("workload", ["unbiased_sic", "symmetric_n4"])
def test_reference_check_fails_on_small_fidelity_loss(workload):
    by_r = checks.load_reference()[workload]["by_r"]
    median = checks.LEVELS.index(50)
    top = max(by_r, key=int)

    def records(loss):
        return [SimpleNamespace(r=int(r), fidelity=ref["quantiles"][median] - (loss if r == top else 0))
                for r, ref in by_r.items() for _ in range(10)]

    assert checks.reference_problems(WORKLOADS[workload], records(0.0), checks.load_reference()) == []
    problems = checks.reference_problems(WORKLOADS[workload], records(1e-6), checks.load_reference())
    assert len(problems) == 1 and problems[0].startswith(f"r = {top}:")


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
