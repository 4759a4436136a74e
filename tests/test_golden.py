"""Golden report fingerprints: speed and refactor work must not move them.

Each line of golden_fingerprints.txt names one case of a fixed seeded grid
and the `report_fingerprint` of its auto-mode report.  An intended change to
a fingerprint must be justified in CHANGES.md; regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import os
from fractions import Fraction
from functools import cache

import pytest

from chorefair import normalize_instance, report_fingerprint, run_pipeline
from chorefair.harness import (GenParams, gen_instance, load_instance,
                               parse_report, report_text, verify_report)
from chorefair.model import RawInstance

from conftest import rotation_instance, skewed_owned_instance

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_fingerprints.txt")
# The benchmark's committed small instances: each fires one reallocation
# event kind (three bundle_swap, three swap, three move).  Read only.
STAGE_INPUTS = os.path.join(os.path.dirname(HERE), "bench", "inputs")
STAGE_KINDS = ("bundle_swap", "swap", "move")
KS = (Fraction(2), Fraction(3), Fraction(5, 2))
SIZES = ((4, 8), (8, 24), (16, 64), (64, 256))
SEEDS = (1, 2)
HIGH_PROB = Fraction(3, 4)
# Round-heavy owned patterns: tens of payment rounds each, and together
# every pEF1 event kind (raise, transfer, rotate); (sizes, k, seed).
SKEWED = (((20, 18, 16, 2, 1, 1, 1), Fraction(3), 8),
          ((20, 18, 16, 2, 1, 1, 1), Fraction(2), 15),
          ((24, 20, 3, 2, 1, 1), Fraction(3), 18),
          ((30, 25, 20, 2, 2, 1, 1, 1), Fraction(3), 1),
          ((30, 25, 20, 2, 2, 1, 1, 1), Fraction(5, 2), 0),
          ((60, 20, 12, 9, 7, 6, 5, 4, 4, 3, 3), Fraction(5, 2), 3))
SPRINKLE = Fraction(1, 20)


def grid():
    """(case name, instance) pairs, in file order."""
    for n, m in SIZES:
        for k in KS:
            for seed in SEEDS:
                name = f"gen n={n} m={m} k={k} seed={seed}"
                yield name, gen_instance(GenParams(n, m, k, HIGH_PROB, seed))
    yield "rotation", rotation_instance()
    for sizes, k, seed in SKEWED:
        name = f"skewed sizes={','.join(map(str, sizes))} k={k} seed={seed}"
        yield name, skewed_owned_instance(k, sizes, seed, SPRINKLE)
    for name in stage_cases():
        yield f"stage {name}", load_instance(
            os.path.join(STAGE_INPUTS, name + ".inst"))


def stage_cases() -> list[str]:
    """File stems of the committed stage instances, in name order."""
    return sorted(f[:-len(".inst")] for f in os.listdir(STAGE_INPUTS)
                  if f.endswith(".inst"))


@cache
def solved(instance):
    """The instance's auto-mode report, solved once for both tests."""
    return run_pipeline(instance)


def fingerprint(instance) -> str:
    return report_fingerprint(solved(instance))


def load_golden() -> dict[str, str]:
    golden = {}
    with open(GOLDEN_PATH) as fh:
        for line in fh:
            name, _, digest = line.rstrip("\n").rpartition(" ")
            golden[name] = digest
    return golden


def test_golden_file_covers_the_grid():
    assert list(load_golden()) == [name for name, _ in grid()]


@pytest.mark.parametrize("name,instance", list(grid()),
                         ids=[name for name, _ in grid()])
def test_fingerprint_is_unchanged(name, instance):
    assert fingerprint(instance) == load_golden()[name]


@pytest.mark.parametrize("name,instance", list(grid()),
                         ids=[name for name, _ in grid()])
def test_a_golden_report_reads_back_as_written_and_verifies(name, instance):
    text = report_text(solved(instance))
    parsed = parse_report(text)
    assert report_text(parsed) == text
    if isinstance(instance, RawInstance):
        instance = normalize_instance(instance)
    assert verify_report(instance, parsed) == []


def test_stage_cases_fire_every_reallocation_kind():
    fired = set()
    for name in stage_cases():
        instance = load_instance(os.path.join(STAGE_INPUTS, name + ".inst"))
        kinds = {ev.kind for ev in run_pipeline(instance).trace}
        assert name.split("-")[0] in kinds, name
        fired |= kinds
    assert set(STAGE_KINDS) <= fired


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as out:
        for name, instance in grid():
            out.write(f"{name} {fingerprint(instance)}\n")
