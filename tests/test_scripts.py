"""The experiment table of ``scripts/run_curves.py`` and one short run of it."""

import importlib.util
from pathlib import Path

import pytest

from symmaxent.harness import ExperimentConfig

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_curves.py"


@pytest.fixture(scope="module")
def run_curves():
    spec = importlib.util.spec_from_file_location("run_curves", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_builds_a_config(run_curves):
    for batch_size, runs in run_curves.EXPERIMENTS.values():
        for fields in runs.values():
            ExperimentConfig(**fields, batch_size=batch_size)


def test_output_subdirectories_are_unique(run_curves):
    # each table is built by a comprehension, so a repeated name would drop
    # a run silently rather than fail; the counts are the runs each produces
    counts = {name: len(runs) for name, (_, runs) in run_curves.EXPERIMENTS.items()}
    assert counts == {"unbiased": 2, "symmetry": 4, "noise": 6}
    for _, runs in run_curves.EXPERIMENTS.values():
        for a in runs:
            # one run's output inside another's directory would mix the two
            assert not any(b.startswith(a + "/") for b in runs), a


def test_noise_run_writes_every_panel(run_curves, tmp_path, capsys):
    run_curves.main(["noise", "--batch-size", "1", "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    for panel in ("pure_dc2e-4", "purity097_dc5e-4"):
        for trials in (10_000, 30_000, 50_000):
            outdir = tmp_path / panel / f"trials_{trials}"
            for name in ("result.csv", "summary.csv", "meta.json"):
                assert (outdir / name).is_file(), outdir / name
            assert any(line.startswith(f"{panel}/trials_{trials}: ") for line in lines)
