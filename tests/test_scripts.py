"""The scripts under scripts/ run to completion against the current API."""

import os
import subprocess
import sys

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


def test_bench_grid_writes_a_tiny_grid(tmp_path):
    out = tmp_path / "grid.csv"
    proc = run_script("bench_grid.py", "--max-n", "3", "--max-m", "4",
                      "--repeats", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = out.read_text().splitlines()
    assert any(row.startswith("aggregate") for row in rows)
