"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q reebbench/test_smoke.py

Checks that every workload prints every metric, that a corrupted program
output is counted as a failed op, that traced self times add up to the op
wall time and that traced counts repeat for a seed.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

import spans  # noqa: E402
from reebforge import cli, export, reeb  # noqa: E402
from reebforge.reeb import ReebGraph  # noqa: E402

TINY = {
    "sweep-sphere": {"level": 2},
    "realize-certify": {"max_nodes": 5, "surface_sizes": (20, 40)},
    "cli-crosscheck": {"pool": 4, "sizes": (20, 60)},
}

# layers that do work in each workload, and one count each must report
ACTIVE = {
    "sweep-sphere": {
        "fields": "fields.values_checked",
        "reeb": "reeb.vertices_swept",
        "export": "export.bytes_out",
    },
    "realize-certify": {
        "simplicial": "simplicial.triangles_built",
        "fields": "fields.values_checked",
        "levels": "levels.component_calls",
        "reeb": "reeb.nodes_out",
        "certify": "certify.cuts_walked",
        "oracle": "oracle.cuts_sliced",
        "gallery": "gallery.vertices_generated",
    },
    "cli-crosscheck": {
        "simplicial": "simplicial.triangles_built",
        "fields": "fields.values_checked",
        "reeb": "reeb.arcs_out",
        "oracle": "oracle.cuts_sliced",
        "export": "export.bytes_out",
        "cli": "cli.self_ms",
    },
}


def tiny_run(name, state_dir, trace=0, seconds=1):
    return run.run_benchmark(name, 7, seconds, trace, str(state_dir), TINY[name])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result, details = tiny_run(name, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert details["fail_frac"] == 0.0
    assert set(result["metrics"]) == {metric for metric, _ in run.END_TO_END}
    assert all(value > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_self_times_add_up_and_counts_repeat(name, tmp_path):
    result, details = tiny_run(name, tmp_path, trace=1, seconds=4)
    metrics = result["metrics"]
    assert result["correct"]
    assert set(metrics) == {metric for metric, _, _ in spans.PER_LAYER_METRICS}
    for layer, count in ACTIVE[name].items():
        assert metrics[f"{layer}.self_ms"] > 0, layer
        assert metrics[count] > 0, count

    # self times account for the whole traced op, up to the root span's own
    # bookkeeping; the overhead compares both passes at reference core speed
    self_ms = sum(metrics[f"{layer}.self_ms"] for layer in spans.LAYERS + ("harness",))
    op_ms = 1000 * details["traced_wall_s"] / details["ops"]
    assert self_ms == pytest.approx(op_ms, rel=0.01, abs=0.1)
    assert metrics["trace.overhead_frac"] == pytest.approx(
        details["traced_ref_s"] / details["plain_ref_s"] - 1
    )
    if name == "realize-certify":
        # below 1: star-like stubs re-walk cuts the cylinder walks already sliced
        assert 0 < metrics["levels.distinct_component_frac"] < 1

    again, _ = tiny_run(name, tmp_path, trace=1, seconds=4)
    for metric, unit, _ in spans.PER_LAYER_METRICS:
        if unit in ("count", "B") or metric == "levels.distinct_component_frac":
            assert again["metrics"][metric] == metrics[metric], metric


def drop_last_arc(compute):
    def corrupted(c, field):
        g = compute(c, field)
        return ReebGraph(g.nodes, g.arcs[:-1], g.vertex_map)

    return corrupted


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_graph_with_a_dropped_arc_fails_every_op(name, tmp_path, monkeypatch):
    corrupted = drop_last_arc(reeb.compute_reeb)
    monkeypatch.setattr(reeb, "compute_reeb", corrupted)
    monkeypatch.setattr(cli, "compute_reeb", corrupted)
    result, details = tiny_run(name, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert details["fail_frac"] == 1.0


@pytest.mark.parametrize("name", ["sweep-sphere", "cli-crosscheck"])
def test_output_bytes_must_repeat_across_runs(name, tmp_path, monkeypatch):
    first, _ = tiny_run(name, tmp_path)
    assert first["correct"]
    original = export.graph_to_json_bytes
    monkeypatch.setattr(export, "graph_to_json_bytes", lambda g: original(g) + b" ")
    monkeypatch.setattr(cli, "graph_to_json_bytes", export.graph_to_json_bytes)
    result, _ = tiny_run(name, tmp_path)
    # every op whose input the first run saw must fail; the CLI pool repeats
    seen = result["attempted"] if name == "cli-crosscheck" else first["attempted"]
    assert result["failed"] == min(result["attempted"], seen) >= 1


def test_main_prints_environment_and_result_line(capsys):
    assert run.main(["--workload", "sweep-sphere", "--seed", "3", "--seconds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    env = json.loads(lines[0])["env"]
    assert env["seed"] == 3 and env["nproc"] >= 1 and env["python"] and env["cpu_model"]
    assert env["load"] == "closed loop, 1 client, no threads"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(run.END_TO_END)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "reebbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "reebbench/run.py", "--workload", "sweep-sphere", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
