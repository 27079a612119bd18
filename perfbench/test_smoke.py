"""Smoke test of the benchmark: a few rounds of every workload.

    python3 -m pytest perfbench/test_smoke.py

Checks that one `--smoke` run passes its correctness gate, emits every
metric that BENCHMARK.json names, with the unit named there, for every
workload, and writes spans that nest: each child span lies inside its
parent, in the same round.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import DEFAULT_SEED, SMOKE_ROUNDS, WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), out


def test_spec_matches_benchmark_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == run.PER_LAYER_UNITS


def test_every_metric_is_emitted_with_its_unit(smoke):
    result, _ = smoke
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * SMOKE_ROUNDS * len(WORKLOADS)
    for workload in WORKLOADS:
        for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
            got = result["metrics"][f"{workload}/{spec['name']}"]
            assert got["unit"] == spec["unit"]
            assert isinstance(got["value"], (int, float))
        for spec in SPEC["end_to_end"]:
            assert result["metrics"][f"{workload}/{spec['name']}"][
                "value"] > 0


def test_spans_nest(smoke):
    _, out = smoke
    for workload in WORKLOADS:
        path = out / f"trace-{workload}-seed{DEFAULT_SEED}.jsonl"
        lines = path.read_text().splitlines()
        fields = json.loads(lines[0])["fields"]
        spans = [dict(zip(fields, json.loads(line))) for line in lines[1:]]
        by_id = {s["id"]: s for s in spans}
        rounds = [s for s in spans if s["name"] == "simnet.round"]
        assert len(rounds) == SMOKE_ROUNDS
        for s in spans:
            assert s["start"] <= s["end"]
            if s["parent"] is None:
                continue
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
            assert parent["round"] == s["round"]


def test_gate_rejects_unrepeatable_runs():
    good = {"ok": True, "failed_rounds": 0, "violations": [],
            "log_sha256": "a", "lambda": 1.0}
    assert run.gate([(False, 0, good), (True, 0, good),
                     (False, 1, {**good, "log_sha256": "b"})]) == []
    assert run.gate([(False, 0, good),
                     (False, 0, {**good, "log_sha256": "b"})])
    assert run.gate([(False, 0, good), (False, 0, {**good, "lambda": 2.0})])
    assert run.gate([(False, 0, {**good, "failed_rounds": 1})])
