"""Seeded search for small instances on which the reallocation stages fire.

Random 0/1 patterns rarely reach the exchange rounds: `bundle_swap`
(approx stage), `swap` and `move` (exact stage at k = 2) each fire on well
under one instance in a hundred.  This script draws random normalized
instances small enough for the exhaustive oracle, solves each with the
library, and keeps the first ones whose report holds each event kind.
The ground-truth workload reads the kept files from bench/inputs/.

    python3 bench/find_events.py

rewrites bench/inputs/ with exactly the committed files.
"""
from __future__ import annotations

import itertools
import os
import random
import sys

from workloads import INPUTS_DIR, KS, SEARCH_SHAPES, normalized_case

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

KINDS = ("bundle_swap", "swap", "move")
HIGH_PROBS = (0.5, 0.75)
FIRST_SEED = 0
PER_KIND = 3


def draw(rng: random.Random):
    n, m = rng.choice(SEARCH_SHAPES)
    k = rng.choice(KS)
    high_prob = rng.choice(HIGH_PROBS)
    high = []
    for _ in range(n):
        row = [rng.random() < high_prob for _ in range(m)]
        if all(row):
            row[rng.randrange(m)] = False
        high.append(row)
    return k, high


def main() -> int:
    sys.path.insert(0, SRC)
    from chorefair import AlreadyUniform, Instance, run_pipeline

    found: dict[str, list] = {kind: [] for kind in KINDS}
    for s in itertools.count(FIRST_SEED):
        if all(len(v) >= PER_KIND for v in found.values()):
            break
        k, high = draw(random.Random(f"find-events:{s}"))
        try:
            report = run_pipeline(Instance(len(high), len(high[0]), k,
                                           tuple(map(tuple, high))))
        except AlreadyUniform:
            continue
        if not report.success:
            continue
        kinds = {ev.kind for stage in report.stages[1:] for ev in stage.events}
        for kind in KINDS:
            if kind in kinds and len(found[kind]) < PER_KIND:
                found[kind].append((s, k, normalized_case(f"{kind}-{s}", k, high)))
                break

    os.makedirs(INPUTS_DIR, exist_ok=True)
    for fname in os.listdir(INPUTS_DIR):
        if fname.endswith(".inst"):
            os.remove(os.path.join(INPUTS_DIR, fname))
    for kind, hits in found.items():
        for s, k, case in hits:
            path = os.path.join(INPUTS_DIR, case.name + ".inst")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"# fires {kind}; search seed {s} of "
                         "`find_events.py`\n")
                fh.write(case.text)
            print(f"{path}: n={len(case.rows)} m={len(case.rows[0])} k={k}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
