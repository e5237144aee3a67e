"""Timing-free checks of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (first: puts the checkout's src/ on sys.path)
import checks  # noqa: E402
import scenarios  # noqa: E402
from gridconsensus import default_config_path, export_record, load_config, parse_config  # noqa: E402
from gridconsensus import run as simulate  # noqa: E402
from spans import TraceError, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("mode", ["with", "without"])
@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_shipped_configs_report_every_metric_and_no_failures(mode, trace, kind, tmp_path):
    text = default_config_path(mode).read_text(encoding="utf-8")
    result = bench.measure(text, seconds=0, trace=trace, out_dir=tmp_path)
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    scenarios_run = 2 * bench.MIN_SAMPLES if trace else bench.MIN_SAMPLES
    assert result["attempted"] >= scenarios_run * 50
    assert result["failed"] / result["attempted"] == 0
    assert result["correct"]


def test_workload_names_match_the_spec():
    assert sorted(bench.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_workload_documents_are_seeded_and_valid(workload):
    text = scenarios.workload_text(workload, 5, 1)
    assert text == scenarios.workload_text(workload, 5, 1)
    assert text != scenarios.workload_text(workload, 6, 1)
    config = parse_config(json.loads(text))
    n = scenarios.FEEDER_NODES if workload.startswith("feeder") else scenarios.MESH_NODES
    assert config.topology.n == n
    if workload.startswith("feeder"):
        assert len(config.topology.edges) == n - 1  # connected with n-1 edges: a tree


@pytest.mark.parametrize("mode", ["with", "without"])
def test_checks_catch_a_perturbed_record(mode):
    config = dataclasses.replace(load_config(default_config_path(mode)), horizon=3)
    record = simulate(config)
    assert checks.failed_steps(config, record) == 0
    field = "p_d" if mode == "with" else "delta"
    bad = getattr(record, field).copy()
    bad[1, 0] += 1e-6
    assert checks.failed_steps(config, dataclasses.replace(record, **{field: bad})) == 1


def test_trace_fails_loudly_on_missing_spans_or_rounds(tmp_path):
    text = default_config_path("without").read_text(encoding="utf-8")
    tracer = Tracer()
    with tracer.installed():
        record = tracer.call("simulation.run", simulate, (parse_config(json.loads(text)),))
    with pytest.raises(TraceError, match="no calls"):
        tracer.check(record)  # the export spans never fired

    tracer = Tracer()
    with tracer.installed():
        config = tracer.call("config.parse", parse_config, (json.loads(text),))
        record = tracer.call("simulation.run", simulate, (config,))
        tracer.call("export.record", export_record, (record, tmp_path))
    tracer.check(record)
    with pytest.raises(TraceError, match="rounds"):
        tracer.check(dataclasses.replace(record, flow_iters=record.flow_iters + 1))


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mesh-with",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
