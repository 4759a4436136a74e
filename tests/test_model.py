"""Instance normalization, unit arithmetic, and market-state accounting."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from chorefair import (
    AlreadyUniform,
    Instance,
    normalize_instance,
    raw_instance,
)
from chorefair.errors import NotBiValued, ZeroCost
from chorefair.model import (
    Allocation,
    RawInstance,
    as_rational,
    build_market_state,
    bundle_masks,
    relabel_agents,
)

from conftest import (high_rows, instance_to_raw, instances, owned_instance,
                      unit_cost)


def test_as_rational_accepts_common_forms():
    assert as_rational(3) == Fraction(3)
    assert as_rational("5/2") == Fraction(5, 2)
    assert as_rational(Fraction(7, 3)) == Fraction(7, 3)


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(2.5)


def test_raw_instance_rejects_ragged_rows():
    with pytest.raises(ValueError):
        raw_instance([[1, 2], [1]])


def test_normalize_divides_each_row_by_its_low_value():
    raw = raw_instance([["3", "6"], ["1/2", "1/4"]])
    inst = normalize_instance(raw)
    assert inst.k == Fraction(2)
    assert high_rows(inst) == ((False, True), (True, False))


def test_normalize_rejects_nonpositive_costs():
    with pytest.raises(ZeroCost):
        normalize_instance(raw_instance([[0, 1]]))
    with pytest.raises(ZeroCost):
        normalize_instance(raw_instance([[1, -2]]))


def test_normalize_rejects_three_values_in_a_row():
    with pytest.raises(NotBiValued):
        normalize_instance(raw_instance([[1, 2, 3]]))


def test_normalize_rejects_mismatched_ratios_across_rows():
    with pytest.raises(NotBiValued):
        normalize_instance(raw_instance([[1, 2], [1, 3]]))


def test_normalize_rejects_uniform_matrix():
    with pytest.raises(AlreadyUniform):
        normalize_instance(raw_instance([[1, 1], [1, 1]]))
    with pytest.raises(AlreadyUniform):
        normalize_instance(raw_instance([[2, 2], [5, 5]]))


def test_normalize_error_messages_are_stable():
    cases = [
        ([[0, 1]], ZeroCost, "cost 0 is not strictly positive"),
        ([[1, -2]], ZeroCost, "cost -2 is not strictly positive"),
        ([[3, "1/2", 0]], ZeroCost, "cost 0 is not strictly positive"),
        ([["1/2", "3/2", "5/2"]], NotBiValued,
         "agent 0 has 3 distinct scaled costs: "
         "[Fraction(1, 1), Fraction(3, 1), Fraction(5, 1)]"),
        ([[1, 2], [3, 4]], NotBiValued,
         "rows disagree on the cost ratio: 2 vs 4/3"),
        ([[2, 4], [3, 9]], NotBiValued,
         "rows disagree on the cost ratio: 2 vs 3"),
        ([[1, 1], [2, 2]], AlreadyUniform,
         "every row is uniform; ratio k would be 1"),
    ]
    for rows, error, message in cases:
        with pytest.raises(error) as info:
            normalize_instance(raw_instance(rows))
        assert str(info.value) == message


def test_normalize_checks_rows_in_order():
    # row 0's three values are reported before row 1's zero entry
    with pytest.raises(NotBiValued):
        normalize_instance(raw_instance([[1, 2, 3], [0, 1, 1]]))
    with pytest.raises(ZeroCost):
        normalize_instance(raw_instance([[1, 2, 2], [0, 1, 3]]))


def test_normalize_accepts_int_rows_built_without_raw_instance():
    rows = ((3, 7, 3), (6, 14, 14), (5, 5, 5))
    direct = normalize_instance(RawInstance(3, 3, rows))
    assert direct == normalize_instance(raw_instance(rows))
    assert type(direct.k) is Fraction and direct.k == Fraction(7, 3)
    assert high_rows(direct) == ((False, True, False), (False, True, True),
                                 (False, False, False))


def test_normalize_treats_uniform_row_as_all_low():
    # row 1 is uniformly 2: scaled by its own min it is all ones
    inst = normalize_instance(raw_instance([[1, 2], [2, 2]]))
    assert inst.k == Fraction(2)
    assert high_rows(inst) == ((False, True), (False, False))


@given(instances(), st.integers(2, 7), st.fractions(
    min_value=Fraction(1, 100), max_value=Fraction(100)))
def test_normalize_is_scale_free(inst, row, scale):
    """Multiplying one row by a positive rational changes nothing."""
    assume(any(any(r) for r in high_rows(inst)))
    raw = instance_to_raw(inst)
    i = row % inst.n
    costs = [list(r) for r in raw.costs]
    costs[i] = [c * scale for c in costs[i]]
    assert normalize_instance(raw_instance(costs)) == inst


def test_instance_unit_view_for_fractional_k():
    inst = owned_instance(Fraction(5, 2), [0, 1])
    assert inst.unit == 2
    assert inst.high_units == 5
    assert [[unit_cost(inst, i, e) for e in range(2)] for i in range(2)] \
        == [[2, 5], [5, 2]]
    assert inst.cost(0, 1) == Fraction(5, 2)


def test_instance_rejects_all_high_row():
    with pytest.raises(ValueError):
        Instance(2, 2, Fraction(2), ((True, True), (False, False)))


def test_instance_rejects_k_at_most_one():
    with pytest.raises(ValueError):
        Instance(1, 1, Fraction(1), ((False,),))


def test_allocation_bundles_partition_items():
    masks = bundle_masks((1, 0, 1, 1), 3)
    assert masks == [0b0010, 0b1101, 0]
    inst = owned_instance(2, [0, 1, 2, 2])
    assert build_market_state(inst, masks, 0).allocation == \
        Allocation((1, 0, 1, 1))


@given(instances(max_n=5, max_m=8), st.data())
def test_allocation_is_the_owner_vector_of_the_masks(inst, data):
    owner = tuple(data.draw(st.lists(st.integers(0, inst.n - 1),
                                     min_size=inst.m, max_size=inst.m)))
    state = build_market_state(inst, bundle_masks(owner, inst.n), 0)
    assert state.allocation.owner == owner


def _two_agent_state():
    inst = owned_instance(2, [0, 0, 1])
    return build_market_state(inst, (0b011, 0b100), 0b010)


@pytest.mark.parametrize("bundles, high, message", [
    ((0b011, 0b110), 0, "two bundles share a chore"),
    ((0b011, 0b000), 0, "some chore is in no bundle"),
    ((0b111,), 0, "expected 2 bundle masks, got 1"),
    ((0b0011, 0b1100), 0, "bit outside chores 0..2"),
    ((0b111, -8), 0, "bit outside chores 0..2"),
    ((0b011, 0b100), 0b1000, "bit at or above m=3"),
    ((0b011, 0b100), -1, "bit at or above m=3"),
])
def test_build_market_state_rejects_bad_masks(bundles, high, message):
    inst = owned_instance(2, [0, 0, 1])
    with pytest.raises(ValueError, match=message):
        build_market_state(inst, bundles, high)


def test_earning_views_agree_with_manual_sums():
    state = _two_agent_state()
    # agent 0 holds payments 1 and 2, agent 1 holds payment 1
    hats = state.hats(state.earn_units)
    assert Fraction(state.earn_units[0], state.pay_low) == Fraction(3)
    assert state.earn_units[0] == 3
    assert Fraction(hats[0], state.pay_low) == Fraction(1)
    assert hats[0] == 1
    assert Fraction(state.earn_units[1], state.pay_low) == Fraction(1)
    assert hats[1] == 0


def test_alpha_and_mpb_reflect_cost_payment_ratios():
    state = _two_agent_state()
    # agent 0: item 0 ratio 1, item 1 ratio 1/2, item 2 ratio 2
    assert state.raised(0)  # alpha = 1/k = 1/2
    assert state.mpb(0) == 0b010
    # agent 1: item 0 ratio 2, item 1 ratio 1, item 2 ratio 1
    assert not state.raised(1)  # alpha = 1
    assert state.mpb(1) == 0b110


@given(instances(max_n=4, max_m=6))
def test_earnings_sum_to_total_payment(inst):
    owner = [e % inst.n for e in range(inst.m)]
    pay = [inst.k if e % 2 == 0 else 1 for e in range(inst.m)]
    state = build_market_state(inst, bundle_masks(owner, inst.n),
                               sum(1 << e for e in range(0, inst.m, 2)))
    total = Fraction(sum(state.earn_units), state.pay_low)
    assert total == sum(pay)


@given(instances(max_n=4, max_m=6))
def test_hat_earning_drops_largest_payment(inst):
    owner = [0] * inst.m
    pay = [inst.k if e % 3 == 0 else 1 for e in range(inst.m)]
    state = build_market_state(inst, bundle_masks(owner, inst.n),
                               sum(1 << e for e in range(0, inst.m, 3)))
    biggest = max(pay)
    hat = state.hats(state.earn_units)[0]
    assert Fraction(state.earn_units[0] - hat, state.pay_low) == biggest


@given(instances(max_n=5, max_m=8), st.data())
def test_market_state_matches_the_ratio_definition(inst, data):
    owner = tuple(data.draw(st.lists(st.integers(0, inst.n - 1),
                                     min_size=inst.m, max_size=inst.m)))
    flags = data.draw(st.lists(st.booleans(), min_size=inst.m,
                               max_size=inst.m))
    pay = [inst.k if f else Fraction(1) for f in flags]
    state = build_market_state(inst, bundle_masks(owner, inst.n),
                               sum(1 << e for e, f in enumerate(flags) if f))
    for i in range(inst.n):
        ratios = [inst.cost(i, e) / pay[e] for e in range(inst.m)]
        assert (1 / inst.k if state.raised(i) else 1) == min(ratios)
        assert state.mpb(i) == sum(
            1 << e for e, r in enumerate(ratios) if r == min(ratios))
        mine = [pay[e] for e in range(inst.m) if owner[e] == i]
        hat = state.hats(state.earn_units)[i]
        assert Fraction(state.earn_units[i], state.pay_low) == \
            sum(mine, Fraction(0))
        assert Fraction(hat, state.pay_low) == \
            sum(mine, Fraction(0)) - max(mine, default=Fraction(0))


@given(instances(max_n=5, max_m=8), st.randoms(use_true_random=False))
def test_relabel_agents_permutes_rows_and_cost_1_masks(inst, rng):
    new_to_old = list(range(inst.n))
    rng.shuffle(new_to_old)
    fresh = Instance(inst.n, inst.m, inst.k,
                     tuple(high_rows(inst)[old] for old in new_to_old))
    relabeled = relabel_agents(inst, new_to_old)
    assert relabeled == fresh
    assert relabeled.low_masks == fresh.low_masks
