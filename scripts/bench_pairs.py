"""Benchmark a parent revision against the working tree in alternating pairs.

    python3 scripts/bench_pairs.py --parent REV --seconds 40 \\
        --out BENCH_PR<n>.json GROUP [GROUP ...]

Each GROUP is WORKLOAD:SEED:PAIRS or WORKLOAD:SEED:PAIRS:TRACE (TRACE is 0
or 1, 0 when left out), for example `random-dense:111:10` for ten untraced
pairs of random-dense seed 111.  The parent is extracted with `git archive`
into a temporary directory, so the repository's .git is only read.  Each
pair runs `bench/run.py` once in that copy and once in the working tree,
uncommitted edits included, with identical arguments; pairs alternate which
side runs first, counting across all groups.

The output file is rewritten after every run, so an interrupted campaign
keeps the runs it made.  It holds `parent` (the full commit id), `command`,
`host`, `note`, `runs` and `summary`.  Each run gives its order, workload,
seed, seconds, trace, side ("parent" or "change") and `result`, the JSON
object on the last line `bench/run.py` printed.  The summary covers the
untraced runs of each WORKLOAD:SEED over each end-to-end metric of
BENCHMARK.json, and the traced runs of each WORKLOAD:SEED, keyed
WORKLOAD:SEED:traced, over each per-layer metric: each side's median and
quartiles, and over the complete pairs the change's wins and ties.  Each
end-to-end row also says whether the claim rule holds (`gain`: the change
wins at least nine tenths of the pairs, and its median beats the parent's
by more than the parent's interquartile range) and whether the change's
median is within the metric's bound of the parent's (`within_bound`: no
worse by more than that fraction of the parent's median).  A run that exits
non-zero stops the campaign with its error output.  A run whose result
says `"correct": false` or counts failed operations is written to the
file and then stops the campaign, with a nonzero exit naming the run.

Traced per-layer times are measured, not scaled to reference speed as
`bench/run.py` scales its end-to-end times, so the host's speed drift
moves every span of a traced run together: one traced pair can read every
solver span tens of percent lower (or higher) on a side that changed none
of them.  Compare spans over several traced pairs, and read a span
against the spread of the parent's own runs; the counters are exact.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = ("python3 bench/run.py --workload WORKLOAD --seed SEED "
           "--seconds {seconds} --trace TRACE")
NOTE = ("every run made, in the order it ran; parent and change alternate "
        "which goes first")


def benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def workload_names() -> list[str]:
    return [w["name"] for w in benchmark()["workloads"]]


def spread(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles, its default method)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], end_to_end: dict[str, str],
              per_layer: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per WORKLOAD:SEED over its untraced runs and each metric in
    end_to_end, and per WORKLOAD:SEED:traced over its traced runs and each
    metric in per_layer (metric name to "lower" or "higher"): each side's
    spread, and the change's wins and ties over the pairs; an end-to-end
    row adds `gain` and `within_bound` (bounds maps each end-to-end metric
    to its bound), both false until each side has a run.  A campaign
    appends a pair's two runs one after the other, so a group's runs pair
    off in order; a pair cut short by an interrupted campaign is left out
    of the pair count."""
    groups: dict[str, list[dict]] = {}
    for run in runs:
        traced = ":traced" if run["trace"] else ""
        groups.setdefault(f"{run['workload']}:{run['seed']}{traced}",
                          []).append(run)
    summary = {}
    for group, members in groups.items():
        pairs = [{r["side"]: r["result"]["metrics"] for r in two}
                 for two in zip(members[::2], members[1::2])]
        out: dict = {"pairs": len(pairs)}
        better = per_layer if members[0]["trace"] else end_to_end
        for metric, direction in better.items():
            sign = 1 if direction == "lower" else -1
            values = {side: [r["result"]["metrics"][metric]["value"]
                             for r in members if r["side"] == side]
                      for side in ("parent", "change")}
            row = {side: spread(v) for side, v in values.items() if v}
            gaps = [sign * (pair["parent"][metric]["value"]
                            - pair["change"][metric]["value"])
                    for pair in pairs]
            row["wins"] = sum(gap > 0 for gap in gaps)
            row["ties"] = sum(gap == 0 for gap in gaps)
            if not members[0]["trace"]:
                gain = within = False
                if all(values.values()):
                    parent, change = row["parent"], row["change"]
                    ahead = sign * (parent["median"] - change["median"])
                    gain = 10 * row["wins"] >= 9 * len(pairs) > 0 and \
                        ahead > parent["q3"] - parent["q1"]
                    within = -ahead <= bounds[metric] * parent["median"]
                row["gain"], row["within_bound"] = gain, within
            out[metric] = row
        summary[group] = out
    return summary


def parse_group(text: str) -> tuple[str, int, int, int]:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not WORKLOAD:SEED:PAIRS[:TRACE]")
    workload, numbers = parts[0], parts[1:] + ["0"] * (4 - len(parts))
    try:
        seed, pairs, trace = map(int, numbers)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r}: SEED, PAIRS and TRACE must be integers") from None
    if workload not in workload_names():
        raise argparse.ArgumentTypeError(
            f"{text!r}: unknown workload {workload!r}")
    if pairs < 1 or trace not in (0, 1):
        raise argparse.ArgumentTypeError(
            f"{text!r}: PAIRS must be at least 1 and TRACE 0 or 1")
    return workload, seed, pairs, trace


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True,
                   help="the revision to compare against, e.g. HEAD~1")
    p.add_argument("--seconds", type=int, required=True,
                   help="bench/run.py --seconds for every run")
    p.add_argument("--out", required=True, help="the JSON file to write")
    p.add_argument("--note", default="",
                   help="appended to the file's note")
    p.add_argument("groups", nargs="+", type=parse_group, metavar="GROUP")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def git(*args: str) -> bytes:
    proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: git {' '.join(args)}: "
                         f"{proc.stderr.decode().strip()}")
    return proc.stdout


def extract(commit: str, into: str) -> None:
    """The commit's files, as `git archive` gives them, under into."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar",
                                             commit))) as tar:
        tar.extractall(into, filter="data")


def bench(root: str, workload: str, seed: int, seconds: int,
          trace: int) -> dict:
    """One bench/run.py run in the checkout at root; its result line.

    The run reads and writes no bytecode cache: a __pycache__ left in one
    tree but not the other would pit a cached import against a compile
    in set-up time and peak memory.  Both sides compile from source, as
    in a fresh checkout."""
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        proc = subprocess.run(
            [sys.executable, os.path.join("bench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=root, capture_output=True, text=True,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                     PYTHONPYCACHEPREFIX=cache))
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: bench/run.py in {root} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = benchmark()
    end_to_end, per_layer = ({m["name"]: m["better"] for m in spec[kind]}
                             for kind in ("end_to_end", "per_layer"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent = git("rev-parse", "--verify",
                 f"{args.parent}^{{commit}}").decode().strip()
    doc = {
        "parent": parent,
        "command": COMMAND.format(seconds=args.seconds),
        "host": (f"{os.cpu_count()}-core {platform.system()} "
                 f"{platform.machine()}, Python "
                 f"{platform.python_version()}; end-to-end times are at "
                 "reference speed (bench/README.md), per-layer times "
                 "(trace 1) are measured"),
        "note": NOTE + (f"; {args.note}" if args.note else ""),
        "runs": [],
        "summary": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as copy:
        extract(parent, copy)
        roots = {"parent": copy, "change": ROOT}
        pair = 0
        for workload, seed, pairs, trace in args.groups:
            for _ in range(pairs):
                sides = ("parent", "change") if pair % 2 == 0 \
                    else ("change", "parent")
                pair += 1
                for side in sides:
                    result = bench(roots[side], workload, seed,
                                   args.seconds, trace)
                    doc["runs"].append({
                        "order": len(doc["runs"]) + 1, "workload": workload,
                        "seed": seed, "seconds": args.seconds,
                        "trace": trace, "side": side, "result": result})
                    doc["summary"] = summarize(doc["runs"], end_to_end,
                                               per_layer, bounds)
                    with open(args.out, "w", encoding="utf-8") as fh:
                        json.dump(doc, fh, indent=1)
                        fh.write("\n")
                    run = (f"run {len(doc['runs'])}: {workload} seed {seed} "
                           f"trace {trace} {side}")
                    print(f"{run}: " + json.dumps(result["metrics"]),
                          flush=True)
                    if not result["correct"] or result["failed"]:
                        raise SystemExit(
                            f"bench_pairs: {run} is wrong (correct "
                            f"{result['correct']}, {result['failed']} "
                            f"failed); kept in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
