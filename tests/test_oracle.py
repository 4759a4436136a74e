"""Exhaustive ground truth against a deliberately naive quadratic scan."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings

from chorefair import (
    UNBOUNDED,
    Allocation,
    BudgetExceeded,
    best_efx_beta_over_po,
    cost_profile,
    dominates,
    enumerate_allocations,
    exists_efx_po,
    is_pareto_optimal,
    min_beta_EFX,
    run_pipeline,
)

from conftest import (generated_instances, instances, market_from_parts,
                      owned_instance)


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


def test_budget_is_exclusive():
    inst = owned_instance(2, [0, 1, 0])  # 8 allocations
    with pytest.raises(BudgetExceeded):
        list(enumerate_allocations(inst, budget=8))
    assert len(list(enumerate_allocations(inst, budget=9))) == 8


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
    # pruned enumeration must report the same PO set up to renaming
    # agents with identical cost rows
    full = {a for a in enumerate_allocations(inst)
            if is_pareto_optimal(inst, a)}
    pruned = {a for a in enumerate_allocations(
        inst, prune_identical_agents=True)
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
