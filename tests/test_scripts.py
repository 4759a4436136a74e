"""The scripts under scripts/ run to completion against the current API."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        env=env, capture_output=True, text=True, timeout=300)


def test_worked_examples_narrate_every_reallocation_kind():
    proc = run_script("worked_examples.py")
    assert proc.returncode == 0, proc.stderr
    for kind in ("bundle_swap", "swap", "move"):
        assert f", {kind}, agents" in proc.stdout


def test_bench_pairs_writes_one_alternating_pair(tmp_path):
    head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode != 0:
        pytest.skip("needs a git checkout with a commit")
    out = tmp_path / "pairs.json"
    proc = run_script("bench_pairs.py", "--parent", "HEAD", "--seconds", "1",
                      "--out", str(out), "ground-truth:111:1")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert list(doc) == ["parent", "command", "host", "note", "runs"]
    assert doc["parent"] == head.stdout.strip()
    assert doc["command"] == ("python3 bench/run.py --workload WORKLOAD "
                              "--seed SEED --seconds 1 --trace TRACE")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"] for m in json.load(fh)["end_to_end"]}
    assert [run.pop("side") for run in doc["runs"]] == ["parent", "change"]
    for order, run in enumerate(doc["runs"], 1):
        result = run.pop("result")
        assert run == {"order": order, "workload": "ground-truth",
                       "seed": 111, "seconds": 1, "trace": 0}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == metrics
