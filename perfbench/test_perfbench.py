"""Tiny-size checks of the layer-ledger benchmark.

Run from the repository root::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import episode  # noqa: E402
import run  # noqa: E402
from ledger import LAYER_METHODS, Ledger, _router_targets  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
TINY = 120


@pytest.fixture(autouse=True)
def tiny_sizes(monkeypatch):
    """Every workload at a tiny size, under its benchmark name."""
    monkeypatch.setattr(episode, "SIZES", {name: TINY for name in episode.SIZES})


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit_and_passes_audit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    *_, record_line, result_line = capsys.readouterr().out.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    record = json.loads(record_line)
    assert record["seed"] == 3 and record["n_jobs"] == TINY
    assert {"cpu_count", "python", "platform", "git_rev", "src_sha256"} <= set(record["host"])


def test_untraced_run_repeats_the_seed_stream(capsys):
    def record(seed: int) -> dict:
        argv = ["--workload", "gateway-flash", "--seed", str(seed), "--seconds", "0"]
        assert run.main([*argv, "--trace", "0"]) == 0
        return json.loads(capsys.readouterr().out.splitlines()[-2])

    first, again, other = record(3), record(3), record(4)
    assert first["episodes"] == again["episodes"] == run.MIN_REPEATS
    assert first["fingerprint"] == again["fingerprint"] != other["fingerprint"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_segments_cover_the_whole_run(workload):
    ep = episode.run_episode(episode.load_workload(workload, 5))
    parts = ep.segments_s(20)
    assert len(parts) == 20 and min(parts) >= 0.0
    assert sum(parts) == pytest.approx(ep.run_s)
    assert ep.segments_s(1) == [pytest.approx(ep.run_s)]


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    out = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
            "--seed", "3", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_predictions_cover_every_per_layer_metric():
    predictions = json.loads((HERE / "predictions.json").read_text())["layers"]
    assert set(predictions) == {m["name"] for m in BENCH["per_layer"]}
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for entry in predictions.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= set(WORKLOADS)


def _targets() -> list:
    found = []
    for module, owner, attr, _ in (*LAYER_METHODS, *_router_targets()):
        target = importlib.import_module(module)
        found.append(vars(getattr(target, owner) if owner else target)[attr])
    return found


def test_traced_run_matches_untraced_and_unwraps_afterwards():
    spec = episode.load_workload("gateway-flash", 5)
    originals = _targets()
    ledger = Ledger()
    with ledger:
        assert not any(a is b for a, b in zip(_targets(), originals))
        traced = episode.run_episode(spec)
    assert all(a is b for a, b in zip(_targets(), originals))
    spans = len(ledger)
    assert spans > 0
    assert ledger.self_times()["scenarios.setup"][1] == 1
    assert sum(s for s, _ in ledger.self_times().values()) == pytest.approx(
        ledger.root_seconds()
    )
    plain = episode.run_episode(spec)
    assert len(ledger) == spans, "a run after the traced run was still traced"
    assert plain.fingerprint == traced.fingerprint
    assert plain.violations == traced.violations == []


def test_same_seed_same_fingerprint_and_batch_cross_check():
    spec = episode.load_workload("stream-service", 5)
    first = episode.run_episode(spec, cross_check=True)
    assert first.violations == []
    assert episode.run_episode(spec).fingerprint == first.fingerprint
    other = episode.run_episode(episode.load_workload("stream-service", 6))
    assert other.fingerprint != first.fingerprint


def test_audit_catches_a_wrong_profit_and_a_lost_job():
    ep = episode.run_episode(episode.load_workload("stream-service", 5))
    records = ep.result.raw.result.records
    job_id = next(j for j, rec in records.items() if rec.on_time)
    records[job_id].profit += 1.0
    assert any(f"record {job_id} earned" in v for v in episode.audit(ep))
    del records[job_id]
    assert any(v.startswith(f"conservation job={job_id}") for v in episode.audit(ep))


def test_growth_reads_above_one_on_a_growing_series():
    assert run.growth([float(i) for i in range(1, 401)]) > 1.0
    assert run.growth([5.0] * 400) == 1.0
    assert run.growth([1.0, 2.0]) == 1.0  # too short to have quarters


def test_percentile_is_nearest_rank():
    values = [float(i) for i in range(1, 101)]
    assert run.percentile(values, 50) == 50.0
    assert run.percentile(values, 99) == 99.0
    assert run.percentile([], 99) == 0.0
