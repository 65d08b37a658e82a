"""Tests of the benchmark itself: metric catalog, exact counts, and the refusal to run without sources.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(workload: str, seed: int, seconds: float, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_catalog_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
    for entries, catalog in ((spec["end_to_end"], run.END_TO_END), (spec["per_layer"], spans.PER_LAYER)):
        assert {e["name"]: (e["unit"], e["better"]) for e in entries} == catalog
        assert [e["name"] for e in entries] == list(catalog)
    names = [e["name"] for e in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names))
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(entry["name"]), entry["name"]
        assert UNIT.fullmatch(entry["unit"]), entry["unit"]
    for entry in spec["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload):
    a, b = (last_json(bench(workload, seed=7, seconds=1, trace=1)) for _ in range(2))
    for result in (a, b):
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == list(spans.PER_LAYER)
        for name in result["metrics"]:
            if name.endswith(("self_s", "busy_s")):
                assert result["metrics"][name]["value"] >= 0.0, name
    for name in spans.EXACT_COUNTS:
        assert a["metrics"][name] == b["metrics"][name], name


def test_untraced_run_reports_end_to_end_metrics():
    result = last_json(bench("mc_low", seed=3, seconds=0.5, trace=0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("mc_low", seed=1, seconds=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
