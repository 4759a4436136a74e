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

