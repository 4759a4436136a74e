"""Exhaustive ground truth against a deliberately naive quadratic scan.

The brute-force definitions the oracle is checked against live here:
enumerate_allocations walks all n^m owner vectors in lexicographic order,
cost_profile and dominates define Pareto dominance, pairwise_frontier
keeps each layer's minimal profiles by testing a candidate against every
kept one, _canonical filters relabelings of identical agents, and
_exact_efx is the exact EFX test.
"""

import os
from fractions import Fraction
from itertools import product
from typing import Iterator

import pytest
from hypothesis import example, given, settings, strategies as st

from chorefair import Instance, min_beta_EFX, run_pipeline
from chorefair.errors import BudgetExceeded
from chorefair.harness import load_instance
from chorefair.model import Allocation, EnvyKernel, RawInstance, bundle_masks
from chorefair.oracle import (
    DEFAULT_BUDGET,
    _check_budget,
    _frontier,
    _po_owners,
    best_efx_beta_over_po,
    exists_efx_po,
    is_pareto_optimal,
)
from chorefair.verify import UNBOUNDED
from chorefair.cli import main

from conftest import (generated_instances, high_matrices, instance_to_raw,
                      instances, market_from_parts, owned_instance,
                      save_instance, tight_witness, unit_cost)

INPUTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "inputs")


def cost_profile(instance: Instance,
                 allocation: Allocation) -> tuple[Fraction, ...]:
    totals = [0] * instance.n
    for e, o in enumerate(allocation.owner):
        totals[o] += unit_cost(instance, o, e)
    return tuple(Fraction(t, instance.unit) for t in totals)


def _agent_classes(instance: Instance) -> tuple[tuple[int, ...], ...]:
    """Agents grouped by identical cost rows, each group in index order."""
    by_row: dict[int, list[int]] = {}
    for i, low in enumerate(instance.low_masks):
        by_row.setdefault(low, []).append(i)
    return tuple(tuple(g) for g in by_row.values() if len(g) > 1)


def _canonical(owner: tuple[int, ...],
               classes: tuple[tuple[int, ...], ...]) -> bool:
    """True when, inside every class of identical agents, agents appear in
    the owner vector in index order (unused ones trailing).
    """
    for group in classes:
        rank = {a: r for r, a in enumerate(group)}
        seen = -1
        for o in owner:
            r = rank.get(o)
            if r is None:
                continue
            if r > seen + 1:
                return False
            seen = max(seen, r)
    return True


def enumerate_allocations(instance: Instance, *,
                          budget: int = DEFAULT_BUDGET,
                          canonical_only: bool = False
                          ) -> Iterator[Allocation]:
    """All n^m owner vectors in lexicographic order; with canonical_only,
    the _canonical one of each orbit of identical agents."""
    _check_budget(instance, budget)
    classes = _agent_classes(instance) if canonical_only else ()
    for owner in product(range(instance.n), repeat=instance.m):
        if classes and not _canonical(owner, classes):
            continue
        yield Allocation(owner)


def dominates(instance: Instance, a: Allocation, b: Allocation) -> bool:
    """Whether a leaves every agent at most as badly off as b, one strictly."""
    pa = cost_profile(instance, a)
    pb = cost_profile(instance, b)
    return all(x <= y for x, y in zip(pa, pb)) and pa != pb


def pairwise_frontier(instance: Instance, owner=None):
    """oracle._frontier with its dominance filter spelled out: a sorted
    candidate p is kept unless some kept q has q <= p in every field,
    that is unless (p | guards) - q keeps every guard bit."""
    n, m = instance.n, instance.m
    w = (m * instance.high_units).bit_length() + 1
    guard = sum(1 << (o * w + w - 1) for o in range(n))
    steps = [[unit_cost(instance, o, e) << (o * w) for o in range(n)]
             for e in range(m)]
    cap = (1 << n * w) - 1 if owner is None else \
        guard | sum(steps[e][o] for e, o in enumerate(owner))
    layers = [[0]]
    for step in steps:
        kept = []
        for p in sorted({q + s for q in layers[-1] for s in step
                         if (cap - q - s) & guard == guard}):
            top = p | guard
            if all((top - q) & guard != guard for q in kept):
                kept.append(p)
        layers.append(kept)
    return steps, layers


def _cost_matrix(instance: Instance,
                 owner: tuple[int, ...]) -> list[list[int]]:
    """matrix[i][j] = cost, in base units, that agent i sees in j's bundle,
    summed chore by chore."""
    n = instance.n
    matrix = [[0] * n for _ in range(n)]
    for e, o in enumerate(owner):
        for i in range(n):
            matrix[i][o] += unit_cost(instance, i, e)
    return matrix


def _exact_efx(instance: Instance, owner: tuple[int, ...]) -> bool:
    n = instance.n
    matrix = _cost_matrix(instance, owner)
    own_min = [None] * n
    for e, o in enumerate(owner):
        c = unit_cost(instance, o, e)
        if own_min[o] is None or c < own_min[o]:
            own_min[o] = c
    for i in range(n):
        if own_min[i] is None:
            continue
        residual = matrix[i][i] - own_min[i]
        if residual <= 0:
            continue
        for j in range(n):
            if j != i and residual > matrix[i][j]:
                return False
    return True


def all_owners(inst):
    return product(range(inst.n), repeat=inst.m)


def naive_pareto_optimal(inst, owner):
    """Quadratic scan: dominated iff someone is <= everywhere and < once."""
    mine = cost_profile(inst, Allocation(tuple(owner)))
    for other in all_owners(inst):
        prof = cost_profile(inst, Allocation(tuple(other)))
        if prof != mine and all(a <= b for a, b in zip(prof, mine)):
            return False
    return True


def test_enumeration_counts_n_to_the_m():
    inst = owned_instance(2, [0, 1, 0])
    allocs = list(enumerate_allocations(inst))
    assert len(allocs) == 2**3
    assert len(set(allocs)) == 2**3


def test_budget_is_exclusive(tmp_path, capsys):
    inst = owned_instance(2, [0, 1, 0])  # 8 allocations
    witness = Allocation((0, 1, 0))
    searches = (
        (lambda budget: is_pareto_optimal(inst, witness, budget=budget),
         True),
        (lambda budget: exists_efx_po(inst, budget=budget), witness),
        (lambda budget: best_efx_beta_over_po(inst, budget=budget),
         (Fraction(1), witness)))
    for search, answer in searches:
        with pytest.raises(BudgetExceeded):
            search(8)
        assert search(9) == answer
    path = str(tmp_path / "small.inst")
    save_instance(path, inst)
    assert main(["oracle", path, "--oracle-budget", "8"]) == 2
    err = capsys.readouterr().err
    assert "BudgetExceeded" in err
    assert "Traceback" not in err
    assert main(["oracle", path, "--oracle-budget", "9"]) == 0


def test_dominates_requires_strict_improvement_somewhere():
    inst = owned_instance(2, [0, 1])
    a = Allocation((0, 1))  # profile (1, 1)
    assert not dominates(inst, a, a)
    b = Allocation((0, 0))  # profile (3, 0): incomparable to (1, 1)
    assert not dominates(inst, b, a)
    assert not dominates(inst, a, b)
    assert dominates(inst, a, Allocation((1, 0)))  # (1, 1) vs (2, 2)


def test_cost_profile_uses_each_agents_own_costs():
    inst = owned_instance(2, [0, 1])
    prof = cost_profile(inst, Allocation((1, 0)))
    # each agent holds the other's chore at cost k = 2
    assert prof == (Fraction(2), Fraction(2))


def test_pareto_optimal_on_hand_case():
    inst = owned_instance(2, [0, 1])
    assert is_pareto_optimal(inst, Allocation((0, 1)))
    assert not is_pareto_optimal(inst, Allocation((1, 0)))


@given(instances(max_n=3, max_m=4))
@settings(max_examples=40)
def test_pareto_matches_naive_everywhere(inst):
    for owner in all_owners(inst):
        got = is_pareto_optimal(inst, Allocation(tuple(owner)))
        assert got == naive_pareto_optimal(inst, owner)


@given(instances(max_n=3, max_m=4))
@settings(max_examples=40)
def test_orbit_pruning_preserves_po_verdicts(inst):
    # the canonical enumeration must report the same PO set up to renaming
    # agents with identical cost rows
    full = {a for a in enumerate_allocations(inst)
            if is_pareto_optimal(inst, a)}
    pruned = {a for a in enumerate_allocations(inst, canonical_only=True)
              if is_pareto_optimal(inst, a)}
    assert pruned <= full
    profiles = {tuple(sorted(cost_profile(inst, a))) for a in full}
    pruned_profiles = {tuple(sorted(cost_profile(inst, a))) for a in pruned}
    assert pruned_profiles == profiles


def test_exists_efx_po_returns_lex_first_witness():
    inst = owned_instance(2, [0, 1])
    witness = exists_efx_po(inst)
    assert witness is not None
    assert witness.owner == (0, 1)
    assert is_pareto_optimal(inst, witness)
    assert min_beta_EFX(market_from_parts(inst, witness.owner, ())).value \
        == Fraction(1)


def naive_best_beta(inst):
    best = None
    for owner in all_owners(inst):
        if not naive_pareto_optimal(inst, owner):
            continue
        beta = min_beta_EFX(market_from_parts(inst, owner, ())).value
        if best is None:
            best = beta
        elif beta is not UNBOUNDED and (
                best is UNBOUNDED or beta < best):
            best = beta
    return best


@given(instances(max_n=3, max_m=4))
@settings(max_examples=25)
def test_best_beta_matches_naive(inst):
    value, witness = best_efx_beta_over_po(inst)
    want = naive_best_beta(inst)
    if want is UNBOUNDED:
        assert value is UNBOUNDED
    else:
        assert value == want
    assert is_pareto_optimal(inst, witness)
    assert min_beta_EFX(market_from_parts(inst, witness.owner, ())).value \
        == value


@given(generated_instances(max_n=3, max_m=6, ks=(Fraction(2), Fraction(3))))
@settings(max_examples=40)
def test_pipeline_output_is_pareto_optimal(inst):
    report = run_pipeline(inst)
    assert report.success
    # map the reindexed result back into the original agent frame
    owner = tuple(report.new_to_old[o] for o in report.owner)
    assert is_pareto_optimal(inst, Allocation(owner))


# n^m <= 4096 for every n this draws: (n, largest m)
ORACLE_SIZES = {1: 12, 2: 12, 3: 7, 4: 6}
ORACLE_KS = (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(9, 8),
             Fraction(7))


@st.composite
def oracle_instances(draw):
    """Instances with n^m <= 4096, half of them with a row repeated so
    that the walk has orbits of identical agents to cut."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, ORACLE_SIZES[n]))
    rows = list(draw(high_matrices(n, m)))
    if n > 1 and draw(st.booleans()):
        rows[draw(st.integers(1, n - 1))] = rows[0]
    return Instance(n, m, draw(st.sampled_from(ORACLE_KS)), tuple(rows))


def reference_po_owners(inst, canonical_only):
    """enumerate_allocations filtered by naive_pareto_optimal, in order.

    The same quadratic scan, run once over the distinct cost profiles
    instead of once per owner vector, so it stays fast up to n^m = 4096.
    """
    profiles = {a.owner: cost_profile(inst, a)
                for a in enumerate_allocations(inst)}
    distinct = set(profiles.values())
    minimal = {mine for mine in distinct
               if not any(prof != mine and all(a <= b for a, b in
                                                zip(prof, mine))
                          for prof in distinct)}
    return [a.owner for a in enumerate_allocations(
        inst, canonical_only=canonical_only) if profiles[a.owner] in minimal]


@given(oracle_instances())
@settings(max_examples=40)
def test_the_walk_yields_exactly_the_po_owner_vectors(inst):
    assert [owner for owner, _ in _po_owners(inst)] == \
        reference_po_owners(inst, True)


@given(oracle_instances())
@settings(max_examples=40)
def test_the_walks_kernel_is_each_vectors_own(inst):
    for owner, kernel in _po_owners(inst):
        fresh = EnvyKernel(inst, bundle_masks(owner, inst.n))
        assert (kernel.bundles, kernel.cost, kernel.cheapest) == \
            (fresh.bundles, fresh.cost, fresh.cheapest)


def test_the_walk_cuts_relabelings_of_three_identical_agents():
    # agents 0, 2 and 3 share a row: 3! relabelings of each PO vector in
    # which all three hold chores, and the walk keeps one of them
    same = (True, False, True, False, True, False)
    inst = Instance(4, 6, Fraction(3), (
        same, (False, True, True, True, False, True), same, same))
    assert _agent_classes(inst) == ((0, 2, 3),)
    walked = [owner for owner, _ in _po_owners(inst)]
    po = reference_po_owners(inst, False)
    assert walked == [owner for owner in po
                      if _canonical(owner, _agent_classes(inst))]
    assert len(walked) < len(po)


@st.composite
def bounded_frontier_cases(draw):
    """An instance with n <= 6, m <= 9 and an owner vector to bound by."""
    inst = draw(instances(max_n=6, max_m=9, ks=(
        Fraction(2), Fraction(5, 2), Fraction(3), Fraction(5))))
    owner = draw(st.lists(st.integers(0, inst.n - 1), min_size=inst.m,
                          max_size=inst.m))
    return inst, tuple(owner)


# k = 7/3: the unbounded frontier keeps up to 424 profiles in a layer, and
# the one bounded by WIDE_OWNER up to 95, so both pack past 64 slots
WIDE = Instance(4, 8, Fraction(7, 3), tuple(
    tuple(flag == "1" for flag in row)
    for row in ("10001010", "01111100", "01101010", "01101011")))
WIDE_OWNER = (0, 1, 2, 3, 0, 1, 2, 3)


@given(bounded_frontier_cases())
@settings(max_examples=30, deadline=None)
@example((Instance(1, 1, Fraction(2), ((False,),)), (0,)))
@example((Instance(1, 6, Fraction(5, 2), (
    (True, False, True, True, False, True),)), (0,) * 6))
@example((WIDE, WIDE_OWNER))
def test_packed_filter_matches_the_pairwise_one(case):
    inst, owner = case
    for bound in (None, owner):
        assert _frontier(inst, bound) == pairwise_frontier(inst, bound)


def test_the_wide_case_packs_past_64_slots():
    for bound, widest in ((None, 424), (WIDE_OWNER, 95)):
        assert max(map(len, _frontier(WIDE, bound)[1])) == widest


def test_no_slack_field_under_the_guard():
    # k = 3, m = 5: fields are w - 1 = 4 bits wide, and agent 0 holding
    # every chore (four at cost 3, one at 1) sets the top one: 13 = 0b1101.
    # A full field, m * k, would need a row without a cost-1 chore.
    inst = Instance(3, 5, Fraction(3), (
        (True, True, True, True, False),
        (False, True, False, True, True),
        (True, False, True, False, True)))
    full = int(cost_profile(inst, Allocation((0,) * 5))[0] * inst.unit)
    assert full.bit_length() == (inst.m * inst.high_units).bit_length()
    po = set(reference_po_owners(inst, False))
    assert (0,) * 5 in po
    for owner in all_owners(inst):
        assert _frontier(inst, owner) == pairwise_frontier(inst, owner)
        assert is_pareto_optimal(inst, Allocation(owner)) == (owner in po)


@given(oracle_instances())
@settings(max_examples=40)
def test_both_searches_return_the_lex_first_answer(inst):
    # over every PO owner vector, relabelings of identical agents included
    po = reference_po_owners(inst, False)
    betas = [min_beta_EFX(market_from_parts(inst, owner, ())).value
             for owner in po]
    finite = [b for b in betas if b is not UNBOUNDED]
    best = min(finite) if finite else UNBOUNDED
    want = po[betas.index(best)]
    efx = next((owner for owner in po if _exact_efx(inst, owner)), None)
    value, witness = best_efx_beta_over_po(inst)
    assert (value, witness.owner) == (best, want)
    found = exists_efx_po(inst)
    assert (found and found.owner) == efx


def test_best_beta_on_the_three_halves_tight_witness():
    # 4 x 9: the exchange stage ends at beta 5/4 there, and an exactly EFX
    # Pareto-optimal allocation exists
    value, witness = best_efx_beta_over_po(tight_witness(Fraction(3, 2)))
    assert (value, witness.owner) == (1, (0, 0, 0, 1, 1, 3, 2, 2, 3))


# `chorefair oracle` on the committed stage instances, as printed before the
# search walked the Pareto frontier.
GOLDEN_ORACLE = {
    "bundle_swap-3266": "1 2 0 2 0 1 0 3",
    "bundle_swap-4979": "0 1 0 2 0 1 3 3",
    "bundle_swap-838": "0 0 1 0 3 2 2 3",
    "move-105": "0 1 0 0 2 1 0 2 1 2",
    "move-88": "1 1 0 2 3 0 2 3",
    "move-99": "0 0 1 1 2 2 2 3",
    "swap-2382": "0 0 0 0 0 1 1 2 1 2",
    "swap-2920": "0 0 1 1 2 2 2 0 0 1",
    "swap-3912": "1 0 0 0 0 1 2 1 2 1",
}
# (name, raw): each file as committed, and bundle_swap-4979, whose agents
# 1 and 2 have identical rows, also as a raw file scaling row i by i + 1,
# so those two rows are identical only once normalized.
GOLDEN_CASES = sorted([(name, False) for name in GOLDEN_ORACLE]
                      + [("bundle_swap-4979", True)])


@pytest.mark.parametrize("name,raw", GOLDEN_CASES)
def test_oracle_output_is_golden(name, raw, capsys, tmp_path):
    path = os.path.join(INPUTS, name + ".inst")
    if raw:
        inst = load_instance(path)
        costs = instance_to_raw(inst).costs
        path = str(tmp_path / "raw.inst")
        save_instance(path, RawInstance(inst.n, inst.m, tuple(
            tuple(c * (i + 1) for c in row) for i, row in enumerate(costs))))
        assert load_instance(path) == inst
    assert main(["oracle", path, "--expect-efx"]) == 0
    owner = GOLDEN_ORACLE[name]
    assert capsys.readouterr().out == (
        f"efx-po: {owner}\nbest-beta-over-po: 1 with {owner}\n")
