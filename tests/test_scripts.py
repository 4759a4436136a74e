"""The scripts under scripts/ run to completion against the current API."""

import importlib.util
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
    assert list(doc) == ["parent", "command", "host", "note", "runs",
                         "summary"]
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
    summary = doc["summary"]["ground-truth:111"]
    assert summary.pop("pairs") == 1 and set(summary) == metrics


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_reads_off_the_claim_rule():
    def run(workload, side, trace, time_ms, rate):
        return {"workload": workload, "seed": 111, "trace": trace,
                "side": side, "result": {"metrics": {
                    "time": {"value": time_ms}, "rate": {"value": rate}}}}

    # five pairs, each side alternately first: the change is faster in
    # four and ties one, and has the higher rate in three and ties one
    sides = [("parent", "change"), ("change", "parent")] * 3
    times = [(10, 8), (11, 9), (12, 9), (9, 9), (11, 7)]
    rates = [(5, 6), (6, 7), (5, 4), (7, 7), (4, 5)]
    runs = []
    for order, (t, r) in zip(sides, zip(times, rates)):
        values = {"parent": (t[0], r[0]), "change": (t[1], r[1])}
        runs += [run("dense", side, 0, *values[side]) for side in order]
    runs.append(run("dense", "parent", 1, 100, 0))  # traced: its own group
    runs.append(run("dense", "change", 0, 1, 100))  # no partner yet
    runs.insert(3, run("other", "parent", 0, 50, 1))  # another group
    # two pairs: the change halves the time and loses 30% of the rate
    for t, r in (((10, 5), (10, 7)), ((12, 6), (10, 7))):
        runs += [run("fast", "parent", 0, t[0], r[0]),
                 run("fast", "change", 0, t[1], r[1])]
    summary = load_bench_pairs().summarize(
        runs, {"time": "lower", "rate": "higher"}, {"rate": "higher"},
        {"time": 0.25, "rate": 0.25})
    assert set(summary) == {"dense:111", "other:111", "fast:111",
                            "dense:111:traced"}
    # a traced row reads no claim
    assert summary["dense:111:traced"] == {
        "pairs": 0, "rate": {"parent": {"median": 0, "q1": 0, "q3": 0},
                             "wins": 0, "ties": 0}}
    assert summary["other:111"]["pairs"] == 0
    assert summary["other:111"]["time"] == {
        "parent": {"median": 50, "q1": 50, "q3": 50}, "wins": 0, "ties": 0,
        "gain": False, "within_bound": False}
    dense = summary["dense:111"]
    assert dense["pairs"] == 5
    # parent times 9, 10, 11, 11, 12; change 1, 7, 8, 9, 9, 9: the median
    # gap 2.5 beats the parent's IQR 2, but 4 wins of 5 are short of 9/10
    assert dense["time"] == {
        "parent": {"median": 11, "q1": 9.5, "q3": 11.5},
        "change": {"median": 8.5, "q1": 5.5, "q3": 9},
        "wins": 4, "ties": 1, "gain": False, "within_bound": True}
    assert (dense["rate"]["wins"], dense["rate"]["ties"]) == (3, 1)
    # parent times 10, 12 (IQR 3) against change 5, 6: a gain; rate 10
    # against 7 is 30% worse, past the 0.25 bound
    fast = summary["fast:111"]
    assert (fast["time"]["gain"], fast["time"]["within_bound"]) == \
        (True, True)
    assert (fast["rate"]["gain"], fast["rate"]["within_bound"]) == \
        (False, False)


def test_bench_pairs_summarizes_traced_pairs_per_layer(tmp_path,
                                                      monkeypatch):
    module = load_bench_pairs()
    spec = module.benchmark()
    better = {kind: {m["name"]: m["better"] for m in spec[kind]}
              for kind in ("end_to_end", "per_layer")}

    def bench(root, workload, seed, seconds, trace):
        # the change reads 1 below the parent on every metric
        value = 10.0 - (root == module.ROOT)
        names = better["per_layer" if trace else "end_to_end"]
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {name: {"value": value} for name in names}}

    monkeypatch.setattr(module, "git", lambda *args: b"f" * 40 + b"\n")
    monkeypatch.setattr(module, "extract", lambda commit, into: None)
    monkeypatch.setattr(module, "bench", bench)
    out = tmp_path / "pairs.json"
    assert module.main(["--parent", "HEAD", "--seconds", "1", "--out",
                        str(out), "ground-truth:111:3:1",
                        "ground-truth:111:1"]) == 0
    summary = json.loads(out.read_text())["summary"]
    assert list(summary) == ["ground-truth:111:traced", "ground-truth:111"]
    for group, kind, pairs in (("ground-truth:111:traced", "per_layer", 3),
                               ("ground-truth:111", "end_to_end", 1)):
        rows = summary[group]
        assert rows.pop("pairs") == pairs
        assert list(rows) == list(better[kind])
        for name, row in rows.items():
            wins = pairs if better[kind][name] == "lower" else 0
            assert row["change"]["median"] == 9.0
            assert (row["wins"], row["ties"]) == (wins, 0)


@pytest.mark.parametrize("wrong", [{"correct": False, "failed": 0},
                                   {"correct": True, "failed": 2}])
def test_bench_pairs_stops_on_a_wrong_run_after_writing_it(
        tmp_path, monkeypatch, wrong):
    module = load_bench_pairs()
    results = [{"correct": True, "attempted": 3, "failed": 0},
               dict(wrong, attempted=3)]
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in module.benchmark()["end_to_end"]}
    for result in results:
        result["metrics"] = metrics
    calls = []

    def bench(root, workload, seed, seconds, trace):
        calls.append(root)
        return results[len(calls) - 1]

    monkeypatch.setattr(module, "git", lambda *args: b"f" * 40 + b"\n")
    monkeypatch.setattr(module, "extract", lambda commit, into: None)
    monkeypatch.setattr(module, "bench", bench)
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit) as stop:
        module.main(["--parent", "HEAD", "--seconds", "1", "--out", str(out),
                     "owned-rounds:444:2"])
    # the first pair runs the parent first, so the wrong run is the change's
    assert str(stop.value) == (
        f"bench_pairs: run 2: owned-rounds seed 444 trace 0 change is wrong "
        f"(correct {wrong['correct']}, {wrong['failed']} failed); "
        f"kept in {out}")
    assert len(calls) == 2
    runs = json.loads(out.read_text())["runs"]
    assert [(r["side"], r["result"]) for r in runs] == [
        ("parent", results[0]), ("change", results[1])]


def test_bench_pairs_runs_read_no_bytecode_cache(tmp_path):
    # a stand-in bench/run.py that reports its interpreter's cache settings
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json, sys\n"
        "print(json.dumps({'prefix': sys.pycache_prefix,\n"
        "                  'no_write': sys.dont_write_bytecode}))\n")
    result = load_bench_pairs().bench(str(tmp_path), "owned-rounds", 1, 1, 0)
    assert result["no_write"] is True
    # the cache is looked for in an empty directory outside the tree
    assert result["prefix"] and not result["prefix"].startswith(str(tmp_path))
