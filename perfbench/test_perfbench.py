"""Tests of the benchmark itself, on the reduced grids.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import worker
from fanofib import errors, pipeline, solvers

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload, trace, listed", [
    ("refine_ladder", "0", "end_to_end"),
    ("long_fibers", "1", "per_layer"),
])
def test_reduced_run_emits_every_metric(workload, trace, listed):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", trace, "--reduced")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC[listed]}
    assert "known defect einstein_c_ne_1: present" in proc.stdout
    if trace == "1":
        assert result["metrics"]["solvers.newton.solves"]["value"] > 0
        assert result["metrics"]["pipeline.calls"]["value"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for src in HERE.glob("*.py"):
        shutil.copy(src, tmp_path / "perfbench")
    proc = _bench("--workload", "many_fibers", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def reduced_config():
    return pipeline.config_from_mapping(run.workload_mapping(run.REDUCED["refine_ladder"], 0.2))


@pytest.fixture
def reference(reduced_config, tmp_path):
    _, _, rep, files, failure = worker.run_pass(reduced_config, tmp_path, None)
    assert failure is None and rep.passed
    return files


def test_pass_check_flags_a_failed_record(reduced_config, reference, tmp_path, monkeypatch):
    original = pipeline.run_pipeline

    def flipped(config):
        rep = original(config)
        rep.records[3].passed = False
        return rep

    monkeypatch.setattr(pipeline, "run_pipeline", flipped)
    failure = worker.run_pass(reduced_config, tmp_path, reference)[4]
    assert failure["stage"] == "gates" and failure["type"] == "CheckFailed"


def test_pass_check_flags_a_changed_byte(reduced_config, reference, tmp_path, monkeypatch):
    original = worker.report_mod.emit_report

    def corrupting(rep, out_dir):
        paths = original(rep, out_dir)
        data = bytearray(paths[0].read_bytes())
        data[len(data) // 2] ^= 1
        paths[0].write_bytes(bytes(data))
        return paths

    monkeypatch.setattr(worker.report_mod, "emit_report", corrupting)
    failure = worker.run_pass(reduced_config, tmp_path, reference)[4]
    assert failure["type"] == "OutputMismatch" and "report.json" in failure["message"]


def test_pass_check_records_a_raising_stage(reduced_config, tmp_path, monkeypatch):
    def raising(*args, **kwargs):
        raise errors.NonConvergence("injected", [])

    monkeypatch.setattr(pipeline, "solve_base_ma", raising)
    failure = worker.run_pass(reduced_config, tmp_path, None)[4]
    assert failure["stage"] == "grid (32, 32) / spr"
    assert failure["type"] == "NonConvergence"


def test_order_loss_defect_reads_the_last_rung():
    grids = run.WORKLOADS["refine_ladder"]
    lost = {f"volume_identity[{k}]": [1.93, 1.95, 1.1 + 0.1 * k] for k in (1, 2, 3, 4)}
    kept = {k: [1.93, 1.95, 1.97] for k in lost}
    assert run.order_loss_defect(grids, lost)["status"] == "present"
    assert run.order_loss_defect(grids, kept)["status"] == "fixed"
    assert run.order_loss_defect(("32x256",), kept)["status"].startswith("not measured")


def test_tracer_rebinds_counts_errors_and_restores():
    original = solvers.newton_semilinear
    tracer = spans.Tracer()
    tracer.install()
    try:
        import fanofib.basespace as basespace
        import fanofib.fiberwise as fiberwise
        assert solvers.newton_semilinear is not original
        assert basespace.newton_semilinear is solvers.newton_semilinear
        assert fiberwise.newton_semilinear is solvers.newton_semilinear
        solvers.newton_semilinear(lambda x: 0.0 * x, lambda x: [[1.0]], [0.0], probe=False)
        with pytest.raises(errors.NonConvergence):
            solvers.newton_semilinear(lambda x: x * 0 + 1.0, lambda x: [[0.0]], [0.0],
                                      probe=False)
    finally:
        tracer.uninstall()
    assert solvers.newton_semilinear is original
    m = tracer.metrics()
    assert m["solvers.errors"] == 1
    assert m["solvers.newton_semilinear.calls"] == 2
    assert m["solvers.newton.solves"] == 1 and m["solvers.newton.zero_iter_share"] == 1.0
    assert sum(tracer.self_times()) == pytest.approx(
        sum(e - s for s, e, p in zip(tracer.starts, tracer.ends, tracer.parents) if p < 0))
