"""chorefair benchmark: one workload, in one process on one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  The seed's instances are generated first, untimed; set-up then
imports chorefair from cold and writes the instance files.
The timed loop is closed with one caller: it runs the in-process commands
`chorefair solve`, `chorefair verify` (and `chorefair oracle` on
ground-truth) on each instance back to back, in whole passes over the
instance set, until another pass would overrun --seconds.  The outputs of
the first pass go through the independent checker in checker.py; later
passes must reproduce them exactly.  --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer metrics of a run with spans on.  The last
line of standard output is one JSON object with the result.

The end-to-end times are given at reference speed.  The host's speed drifts
by tens of percent within seconds and over minutes (other tenants share its
cores), so after each timed step (a set-up or a command) the run does a
fixed piece of reference work for a quarter of that step's time.  A step's
time is multiplied by REFERENCE_UNIT_S over the mean time of one reference
unit in the windows just before and after it: it reads as it would on a
machine where one unit takes exactly 1 ms.  The measured, unscaled figures
are printed above the result.  Traced runs do no reference work.
"""
from __future__ import annotations

import sys

# Modules a fresh interpreter has loaded before it imports anything else.
# Set-up drops every other module before importing chorefair, so each
# timed import pays what a new process would: chorefair and the standard
# library modules it pulls in (fractions, dataclasses, csv, hashlib, ...).
STARTUP_MODULES = frozenset(sys.modules)

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import time
from collections import Counter
from fractions import Fraction

import checker
import spans
from workloads import ORACLE_BUDGET, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9

# One reference unit: pure-Python Fraction sums, the program's own kind of
# work, about 1 ms on the 2-core machine of the README's figures.
REFERENCE_TERMS = 300
REFERENCE_UNIT_S = 1e-3
REFERENCE_SHARE = 0.25  # reference time after a step, as a share of the step
REFERENCE_MIN_S = 0.005  # and at least this long

# The one known way an operation fails: `chorefair verify` recomputes the
# entry-pef1 and entry-ef1 verdicts on the state before the payment rounds,
# while `solve` stores them for the state after.  Every report whose pEF1
# stage ran a round is rejected with these lines and nothing else.
KNOWN_VERIFY_FAULT = ("verify: entry-pef1: ", "verify: entry-ef1: ")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def forget_imports() -> None:
    """Drop every module loaded since start-up, so the next import of
    chorefair is as cold as in a new process, and free the old copies."""
    for name in [n for n in sys.modules if n not in STARTUP_MODULES]:
        del sys.modules[name]
    sys.path_importer_cache.clear()  # a new process lists sys.path afresh
    gc.collect()


def set_up(cases, workdir: str):
    """One timed set-up: a cold import and writing the instance files."""
    forget_imports()
    t0 = time.perf_counter()
    __import__("chorefair.cli")
    cli = sys.modules["chorefair.cli"]
    paths = []
    for case in cases:
        path = os.path.join(workdir, case.name + ".inst")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(case.text)
        paths.append(path)
    return time.perf_counter() - t0, cli, paths


def reference_unit() -> Fraction:
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(i % 97 + 1, i % 89 + 1)
    return total


class Speed:
    """Reference work around the timed steps.  Each step is followed by a
    window of reference units; a step's time is scaled by the mean unit
    time of the windows just before and just after it."""

    def __init__(self):
        self.spent_s, self.units = 0.0, 0  # totals over the run
        self.before = self.window(0.0)

    def window(self, elapsed: float) -> float:
        """Run reference units for REFERENCE_SHARE of a step's time, but for
        at least REFERENCE_MIN_S; return the mean time of one unit."""
        spent, units = 0.0, 0
        while spent < max(REFERENCE_SHARE * elapsed, REFERENCE_MIN_S):
            t0 = time.perf_counter()
            reference_unit()
            spent += time.perf_counter() - t0
            units += 1
        self.spent_s += spent
        self.units += units
        return spent / units

    def scaled(self, elapsed: float) -> float:
        """A step's time at reference speed, given its measured time."""
        after = self.window(elapsed)
        unit_s = (self.before + after) / 2
        self.before = after
        return elapsed * REFERENCE_UNIT_S / unit_s


def oracle_rank(owner, n: int) -> int:
    """Position of an allocation in the oracle's lexicographic enumeration."""
    rank = 0
    for o in owner:
        rank = rank * n + o
    return rank


def strip_timings(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("timing "))


class Run:
    """The timed loop's state: samples, operation counts and check results."""

    def __init__(self, cli, cases, paths, workdir, ground_truth, tracer, speed):
        self.cli, self.cases, self.paths = cli, cases, paths
        self.workdir = workdir
        self.ground_truth = ground_truth
        self.tracer = tracer
        self.speed = speed  # None in traced runs, whose times stay unscaled
        # per command: (measured, at reference speed), in ms
        self.solve_ms: list[tuple[float, float]] = []
        self.verify_ms: list[tuple[float, float]] = []
        # time inside the commands, checker and reference work excluded
        self.busy_s = [0.0, 0.0]  # measured, at reference speed
        self.instances = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_outputs: list[str] = []
        # deterministic counts of one pass, taken from the first
        self.counts: Counter = Counter()
        self.events: Counter = Counter()  # trace events by kind

    def command(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            if self.tracer is None:
                code = self.cli.main(argv)
            else:
                code = self.tracer.call(spans.GLUE, self.cli.main, argv)
            elapsed = time.perf_counter() - t0
        times = (elapsed, elapsed if self.speed is None
                 else self.speed.scaled(elapsed))
        self.busy_s = [b + t for b, t in zip(self.busy_s, times)]
        self.attempted += 1
        if code != 0:
            self.failed += 1
        return times, code, out.getvalue(), err.getvalue()

    def one_pass(self, first: bool) -> None:
        budget = ["--oracle-budget", str(ORACLE_BUDGET)]
        for idx, (case, path) in enumerate(zip(self.cases, self.paths)):
            report = os.path.join(self.workdir, case.name + ".report")
            solve = ["solve", path, "--out", report]
            if self.ground_truth:
                solve += budget
            times, solve_code, _, solve_err = self.command(solve)
            self.solve_ms.append(tuple(t * 1000 for t in times))
            times, verify_code, _, verify_err = self.command(
                ["verify", path, report])
            self.verify_ms.append(tuple(t * 1000 for t in times))
            oracle_out = ""
            if self.ground_truth:
                _, oracle_code, oracle_out, oracle_err = self.command(
                    ["oracle", path] + budget)
                if oracle_code != 0:
                    self.problems.append(
                        f"{case.name}: oracle exit {oracle_code}: {oracle_err}")
            self.instances += 1

            try:
                with open(report, encoding="utf-8") as fh:
                    text = fh.read()
            except FileNotFoundError:
                text = ""
            output = strip_timings(text) + oracle_out + f"verify {verify_code}\n"
            if not first:
                if output != self.first_outputs[idx]:
                    self.problems.append(f"{case.name}: output changed between passes")
                continue
            self.first_outputs.append(output)
            if solve_code != 0:
                self.problems.append(f"{case.name}: solve exit {solve_code}: {solve_err}")
                continue
            try:
                found, rep, beta = checker.check_solve(case.rows, text)
                if self.ground_truth and not found:
                    found = checker.check_oracle(case.rows, rep, beta, oracle_out)
            except (ValueError, KeyError) as err:
                self.problems.append(f"{case.name}: unreadable output: {err!r}")
                continue
            self.problems += [f"{case.name}: {p}" for p in found]
            if verify_code != 0 and not (
                    rep.stages.get("pef1", 0) > 0 and verify_err
                    and all(line.startswith(KNOWN_VERIFY_FAULT)
                            for line in verify_err.splitlines())):
                self.problems.append(
                    f"{case.name}: verify exit {verify_code}: {verify_err}")
            self.count_events(case, rep, oracle_out)

    def count_events(self, case, rep, oracle_out: str) -> None:
        self.counts["pef1.rounds"] += rep.stages.get("pef1", 0)
        self.events.update(kind for _, kind in rep.events)
        if oracle_out:
            n, m = len(case.rows), len(case.rows[0])
            efx, best, best_owner = checker.parse_oracle(oracle_out)
            self.counts["oracle.efx_po_enumerated"] += (
                n ** m if efx is None else oracle_rank(efx, n) + 1)
            self.counts["oracle.best_beta_enumerated"] += (
                oracle_rank(best_owner, n) + 1 if best == 1 else n ** m)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "chorefair")):
        print(f"bench: no chorefair package under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".bench_runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(workdir))


def measure(args, workdir: str) -> int:
    cases = WORKLOADS[args.workload](args.seed)
    speed = Speed()
    setups = []  # (measured, at reference speed), in s
    for _ in range(SETUP_REPEATS):
        elapsed, cli, paths = set_up(cases, workdir)
        setups.append((elapsed, speed.scaled(elapsed)))
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    run = Run(cli, cases, paths, workdir, args.workload == "ground-truth",
              tracer, None if args.trace else speed)

    start = time.perf_counter()
    passes = 0
    # One figure of each end-to-end timing per pass, measured and at
    # reference speed; the run reports the medians over passes, so a stretch
    # of slow machine that covers fewer than half of the passes does not
    # move them.  Each pass holds every instance once, so slow instances
    # count in every pass's rate.
    per_pass = {name: ([], []) for name in
                ("solve_ms_p50", "verify_ms_p50", "instances_per_s")}
    span_counts = Counter()
    while True:
        t0 = time.perf_counter()
        busy0 = run.busy_s
        run.one_pass(first=passes == 0)
        passes += 1
        n = len(run.cases)
        for i in (0, 1):
            per_pass["solve_ms_p50"][i].append(
                statistics.median(t[i] for t in run.solve_ms[-n:]))
            per_pass["verify_ms_p50"][i].append(
                statistics.median(t[i] for t in run.verify_ms[-n:]))
            per_pass["instances_per_s"][i].append(
                n / (run.busy_s[i] - busy0[i]))
        if passes == 1 and tracer is not None:
            span_counts = Counter(tracer.counts)
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break

    if args.trace:
        metrics = {name: (tracer.self_s[name] * 1000 / passes, "ms")
                   for name in spans.LAYERS}
        metrics[spans.GLUE] = (tracer.self_s[spans.GLUE] * 1000 / passes, "ms")
        metrics["bench.traced_ms"] = (
            sum(tracer.self_s.values()) * 1000 / passes, "ms")
        for name in ("model.market_state_builds",
                     "market_init.chain_items_moved", "market_init.groups"):
            metrics[name] = (span_counts[name], "count")
        ev = run.events
        metrics.update({
            "pef1.rounds": (run.counts["pef1.rounds"], "count"),
            "pef1.raise": (ev["raise"], "count"),
            "pef1.transfer": (ev["transfer"], "count"),
            "pef1.rotate": (ev["rotate"], "count"),
            "approx_efx.bundle_swaps": (ev["bundle_swap"], "count"),
            "efx_k2.trades": (ev["swap"] + ev["move"], "count"),
        })
        for name in ("oracle.efx_po_enumerated", "oracle.best_beta_enumerated"):
            metrics[name] = (run.counts[name], "count")
    else:
        samples = {**per_pass, "setup_s": tuple(zip(*setups))}
        print("measured, unscaled: " + ", ".join(
            f"{name} = {statistics.median(values[0]):.6g}"
            for name, values in samples.items()))
        print(f"reference unit: {speed.spent_s * 1000 / speed.units:.4g} ms "
              f"on average over {speed.units} units")
        metrics = {
            name: (statistics.median(samples[name][1]), unit)
            for name, unit in (("setup_s", "s"), ("solve_ms_p50", "ms"),
                               ("verify_ms_p50", "ms"),
                               ("instances_per_s", "1/s"))}
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    for problem in run.problems:
        print(f"bench: CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(run.cases)} "
          f"instances per pass, {passes} passes, {run.instances} instances, "
          f"{run.attempted} operations, {run.failed} failed, "
          f"{run.busy_s[0] * 1000 / passes:.1f} ms in commands per pass")
    print("trace events per pass: " + json.dumps(dict(sorted(run.events.items()))))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
