"""Seeded instance sets for the three benchmark workloads.

Each workload is a list of `Case`s: the instance text the program reads
and the raw cost rows the independent checker recomputes from.  The same
seed always yields the same cases.  The program never sees anything but
the files written from `Case.text`.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

INSTANCE_FORMAT = "chorefair-instance/1"
INPUTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")

# Ground-truth instances stay at or below this many allocations, so the
# exhaustive oracle finishes in well under a second per instance.
ORACLE_BUDGET = 1 << 17
KS = (Fraction(2), Fraction(3), Fraction(5, 2))


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    rows: tuple[tuple[Fraction, ...], ...]  # raw costs, agent by chore


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def normalized_case(name: str, k: Fraction, high) -> Case:
    """Case for a 0/1 cost pattern: 1 marks a chore costing k."""
    lines = [f"format: {INSTANCE_FORMAT}", "kind: normalized",
             f"n: {len(high)}", f"m: {len(high[0])}", f"k: {_fmt(k)}"]
    lines += ["row: " + "".join("1" if h else "0" for h in row) for row in high]
    one = Fraction(1)
    rows = tuple(tuple(k if h else one for h in row) for row in high)
    return Case(name, "\n".join(lines) + "\n", rows)


def parse_normalized(name: str, text: str) -> Case:
    """Read a committed normalized instance file back into a Case."""
    head, high = {}, []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, value = (part.strip() for part in line.split(":", 1))
        if key == "row":
            high.append([ch == "1" for ch in value])
        else:
            head[key] = value
    if head.get("kind") != "normalized" or len(high) != int(head["n"]):
        raise ValueError(f"{name}: not a normalized instance file")
    return normalized_case(name, Fraction(head["k"]), high)


# ------------------------------------------------------------ random-dense

DENSE_COUNT, DENSE_N, DENSE_M, DENSE_HIGH_PROB = 6, 64, 256, 0.75


def random_dense(seed: int) -> list[Case]:
    """Raw rows: each entry costs k with probability 3/4, and every agent's
    row is scaled by its own random rational, so normalization divides real
    fractions.  k cycles through 2, 3 and 5/2."""
    rng = random.Random(f"random-dense:{seed}")
    n, m = DENSE_N, DENSE_M
    cases = []
    for idx in range(DENSE_COUNT):
        k = KS[idx % len(KS)]
        lines = [f"format: {INSTANCE_FORMAT}", "kind: raw", f"n: {n}", f"m: {m}"]
        rows = []
        for _ in range(n):
            high = [rng.random() < DENSE_HIGH_PROB for _ in range(m)]
            if all(high):
                high[rng.randrange(m)] = False
            scale = Fraction(rng.randint(1, 99), rng.randint(1, 99))
            lo, hi = scale, scale * k
            lo_s, hi_s = _fmt(lo), _fmt(hi)
            lines.append("row: " + " ".join(hi_s if h else lo_s for h in high))
            rows.append(tuple(hi if h else lo for h in high))
        cases.append(Case(f"dense-{idx:02d}", "\n".join(lines) + "\n",
                          tuple(rows)))
    return cases


# ------------------------------------------------------------ owned-rounds

def owned_pattern(rng: random.Random, n: int, m: int,
                  sprinkle: float) -> list[list[bool]]:
    """Every chore costs 1 to exactly one owner; bundle sizes follow 1/(i+1),
    so agent 0 owns by far the most.  A sprinkle of extra cost-1 entries
    lands only on chores agent 0 does not own.

    Nobody else costs 1 on agent 0's chores, so no chain can take them away
    and the entry equilibrium cannot be pEF1: agent 0 keeps more than
    m/n + 1 chores while the least earner holds at most m/n.  The payment
    rounds therefore always run.
    """
    weights = [1 / (i + 1) for i in range(n)]
    total = sum(weights)
    sizes = [max(1, int(m * w / total)) for w in weights]
    sizes[0] += m - sum(sizes)
    if sizes[0] - 1 <= m / n:
        raise ValueError(f"owned pattern n={n} m={m} is not skewed enough")
    owners = [i for i in range(n) for _ in range(sizes[i])]
    rng.shuffle(owners)
    high = [[owners[e] != i for e in range(m)] for i in range(n)]
    for e in range(m):
        if owners[e] == 0:
            continue
        for i in range(1, n):
            if rng.random() < sprinkle:
                high[i][e] = False
    return high


# (n, m, instances per pass).  Solve time grows about eightfold from the
# first shape to the last, so a pass's median instance is one of the middle
# shape's; five of those keep the median from hanging on one seeded
# instance's round count.
OWNED_SHAPES = ((16, 150, 2), (20, 190, 3), (24, 230, 5), (28, 265, 3),
                (32, 300, 2))


def owned_rounds(seed: int) -> list[Case]:
    """The instances of OWNED_SHAPES, smallest shape first."""
    rng = random.Random(f"owned-rounds:{seed}")
    cases = []
    for n, m, count in OWNED_SHAPES:
        for rep in range(count):
            k = KS[len(cases) % len(KS)]
            high = owned_pattern(rng, n, m, sprinkle=0.01)
            cases.append(normalized_case(f"owned-{n}x{m}-{rep}", k, high))
    return cases


# ------------------------------------------------------------ ground-truth

def balanced_pattern(rng: random.Random, n: int, m: int) -> list[list[bool]]:
    """Random 0/1 pattern whose entry equilibrium is already pEF1.

    Each chore gets an owner from a balanced deal (bundle sizes differ by at
    most one).  The owner costs 1, every agent of smaller index costs k, and
    agents of larger index cost k with probability 1/2.  The entry
    state hands each chore to the smallest-index agent costing 1, which is
    its owner, so every earning is a bundle size and pEF1 holds before any
    round: the payment rounds never run.
    """
    owners = [e % n for e in range(m)]
    rng.shuffle(owners)
    high = [[False] * m for _ in range(n)]
    for e, o in enumerate(owners):
        for i in range(n):
            high[i][e] = i < o or (i > o and rng.random() < 0.5)
    return high


# The committed instances (found by find_events.py among these shapes) carry
# most of the oracle time, and it is the same for every seed.  The seeded
# instances are small, so how early the oracle meets its witness on them
# moves a pass by a few percent at most.
SEARCH_SHAPES = ((3, 10), (4, 8))
SEEDED_SHAPES = ((2, 9), (3, 6), (2, 10), (3, 7), (4, 6))


def committed_cases() -> list[Case]:
    """Instances found by find_events.py; the same for every seed."""
    cases = []
    for fname in sorted(os.listdir(INPUTS_DIR)):
        if fname.endswith(".inst"):
            with open(os.path.join(INPUTS_DIR, fname), encoding="utf-8") as fh:
                cases.append(parse_normalized(fname[:-5], fh.read()))
    return cases


def ground_truth(seed: int) -> list[Case]:
    rng = random.Random(f"ground-truth:{seed}")
    cases = committed_cases()
    for idx, (n, m) in enumerate(SEEDED_SHAPES):
        k = KS[idx % len(KS)]
        cases.append(normalized_case(
            f"gt-balanced-{n}x{m}", k, balanced_pattern(rng, n, m)))
    for idx, (n, m) in enumerate(SEEDED_SHAPES):
        k = KS[(idx + 1) % len(KS)]
        cases.append(normalized_case(
            f"gt-owned-{n}x{m}", k, owned_pattern(rng, n, m, sprinkle=0.2)))
    return cases


WORKLOADS = {
    "random-dense": random_dense,
    "owned-rounds": owned_rounds,
    "ground-truth": ground_truth,
}
