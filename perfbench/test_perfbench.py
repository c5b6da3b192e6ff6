"""Tests of the benchmark itself: inputs, checks, tracing, refusal to run.

    PYTHONPATH=src python3 -m pytest -q perfbench

Workloads run here on small meshes, in this process.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import run as bench  # noqa: E402
import worker  # noqa: E402
from spans import WRAP_POINTS, Tracer, layer_metrics, self_times, span_name  # noqa: E402
from rodwave import cli  # noqa: E402


def _run(spec, root, tracer=None):
    worker.prepare(spec, str(root))
    return worker.run_workload(cli, spec, str(root), tracer)


def small_batch(seed=7, states=2):
    spec = bench.make_spec("state-batch", seed)
    spec["config"] = dict(spec["config"], N=3, M=3, P=33)
    spec["states"] = spec["states"][:states]
    return spec


def small_sweep():
    spec = bench.make_spec("mesh-sweep", 0)
    spec["m_range"], spec["n_range"] = [2, 3], [2, 3]
    return spec


def test_inputs_come_from_the_seed():
    assert bench.make_spec("state-batch", 5) == bench.make_spec("state-batch", 5)
    assert bench.make_spec("state-batch", 5)["states"] != bench.make_spec("state-batch", 6)["states"]
    assert [bench.solves_in(bench.make_spec(w, 0)) for w in bench.WORKLOADS] == [1, 12, 49]


def test_batch_passes_its_checks(tmp_path):
    result = _run(small_batch(), tmp_path)
    assert (result["attempted"], result["failed"]) == (2, 0)
    assert 0 < result["first_solve_s"] <= result["wall_s"]


def test_failing_check_raises_error_rate(tmp_path):
    spec = small_batch()
    spec["tolerances"] = dict(spec["tolerances"], terminal_sup=-1.0)
    result = _run(spec, tmp_path)
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert all("terminal sup" in f for f in result["failures"])


def test_failed_solve_raises_error_rate(tmp_path):
    spec = small_batch()
    spec["states"][1] = {"v0": "not a profile"}
    result = _run(spec, tmp_path)
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["failures"][0].startswith("state 1:")


def test_wrong_sweep_reference_raises_error_rate(tmp_path):
    spec = small_sweep()
    assert _run(spec, tmp_path / "good")["failed"] == 0
    spec["reference_TE"] = dict(spec["reference_TE"])
    spec["reference_TE"]["3,2"] *= 1 + 1e-6
    result = _run(spec, tmp_path / "bad")
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert result["failures"][0].startswith("cell 3,2 T*E against reference")


def test_wrong_solve_reference_raises_error_rate(tmp_path):
    spec = bench.make_spec("solve-n12", 0)
    spec["config"] = dict(spec["config"], N=4, M=4, P=65)
    spec["reference_E"] = 1.0
    result = _run(spec, tmp_path)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert result["failures"][0].startswith("E against reference")


def test_traced_run_survives_a_missing_name(tmp_path, monkeypatch):
    monkeypatch.delattr(cli, "assemble_qp")
    spec = small_batch()
    spec["config"] = dict(spec["config"], solver="el")
    original = cli.boundary_matrices
    with Tracer() as tracer:
        assert cli.boundary_matrices is not original
        result = _run(spec, tmp_path, tracer)
    assert cli.boundary_matrices is original
    assert result["failed"] == 0
    assert tracer.missing == ["rodwave.cli.assemble_qp"]
    layers = result["layers"]
    assert "energy.assemble_qp_s" not in layers
    assert layers["oracle.simulate_calls"] == 0 and layers["oracle.simulate_s"] == 0.0
    assert layers["oracle.self_s"] == 0.0 and layers["oracle.cell_steps"] == 0
    assert layers["edge.boundary_matrices_calls"] == 2
    assert layers["solver.solve_euler_lagrange_calls"] == 2
    assert 0 < layers["edge.boundary_keep_ratio"] < 1
    assert layers["trace.spans"] == len(result["spans"])


def test_self_time_subtracts_direct_children():
    spans = [{"start": 0.0, "end": 10.0, "parent": None},
             {"start": 1.0, "end": 4.0, "parent": 0},
             {"start": 2.0, "end": 3.0, "parent": 1},
             {"start": 5.0, "end": 9.0, "parent": 0}]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_benchmark_json_lists_every_metric_with_its_unit():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert end_to_end == bench.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    added_by_run = {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}
    one_call_each = [{"name": span_name(layer, attr), "start": 0.0, "end": 1.0, "parent": None}
                     for _, attr, layer, _ in WRAP_POINTS]
    # every workload reports every name, also for the layers it never calls
    for spans in (one_call_each, []):
        emitted = set(layer_metrics(spans, WRAP_POINTS, [], {}, set(), 0))
        assert set(per_layer) == emitted | added_by_run
    assert all(unit == bench.layer_unit(name) for name, unit in per_layer.items())
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mesh-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
