"""Tests of the benchmark itself, in smoke mode (tiny replication counts).

    python3 -m pytest perfbench -q

Every workload is run untraced and traced; each run must pass its own
output checks and emit every metric BENCHMARK.json names, with its unit.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SWEEPS = [w for w in WORKLOADS if w != "asymptote_grid"]

# per-layer metrics by the layer they measure; the traced run must have
# samples for every metric of each layer the workload enters
SWEEP_LAYER_METRICS = [
    m["name"] for m in SPEC["per_layer"]
    if m["name"].split(".")[0] in ("montecarlo", "pointproc", "mmse", "cli")
]
GRID_LAYER_METRICS = [
    m["name"] for m in SPEC["per_layer"] if m["name"].startswith("asymptotics.")
]


def _run(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    return json.loads(lines[-2])["facts"], json.loads(lines[-1])


def _assert_metrics(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in spec_metrics]
    for m in spec_metrics:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    facts, result = _result(_run(workload, 0))
    _assert_metrics(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0.0, m["name"]
        assert facts["sample_counts"][m["name"]] >= 1
    for key in ("git_commit", "src_sha256", "cpu_count", "python", "numpy", "scipy",
                "seed", "failed_frac"):
        assert key in facts
    for key in ("wall_s", "items_per_s", "reference_s"):
        assert facts[key] > 0.0
    if workload in SWEEPS:
        assert re.fullmatch(r"[0-9a-f]{64}", facts["csv_sha256"])
        assert facts["workers"] >= 1 and facts["replications"] >= 1
        assert facts["redraw_frac"] >= 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    facts, result = _result(_run(workload, 1))
    _assert_metrics(result, SPEC["per_layer"])
    applies = SWEEP_LAYER_METRICS if workload in SWEEPS else GRID_LAYER_METRICS
    for name in applies + ["trace_overhead_frac"]:
        assert facts["sample_counts"][name] >= 1, name
    spans = (ROOT / facts["trace_file"]).read_text().strip().split("\n")
    assert spans[0] == "span_id,parent_id,unit_id,name,start_ns,end_ns"
    assert len(spans) - 1 == facts["spans"]


def test_same_seed_gives_same_csv():
    a, _ = _result(_run("large_array", 0, seed=11))
    b, _ = _result(_run("large_array", 0, seed=11))
    c, _ = _result(_run("large_array", 0, seed=12))
    assert a["csv_sha256"] == b["csv_sha256"] != c["csv_sha256"]


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "results"))
    proc = _run("hc_figure", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_child_spans():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import spans

    tr = spans.Tracer()
    root = tr.open_root(0, "montecarlo.run_realization", 0)
    tr.add(root, 0, "montecarlo.derive_seed", 0, 10_000)
    tr.add(root, 0, "pointproc.realize", 10_000, 50_000)
    tr.add(root, 0, "mmse.mmse_sir", 60_000, 90_000)
    tr.close_root(root, 100_000)
    metrics, samples = spans.realization_metrics(tr.spans, [5], [4])
    assert metrics["montecarlo.glue_us"] == pytest.approx(20.0)
    assert metrics["pointproc.realize_us"] == pytest.approx(40.0)
    assert metrics["pointproc.realize_share"] == pytest.approx(0.4)
    assert metrics["mmse.interference_covariance_us"] == 0.0
    assert metrics["montecarlo.redraws_per_1k"] == 0.0
    assert samples["pointproc.realize_us"] == 1


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["bound"] <= setup["bound"]
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m["unit"]
