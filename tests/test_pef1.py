"""Payment-EF1 solver: round mechanics, the rotation branch, termination."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from chorefair import (
    ChorefairError,
    Instance,
    check_equilibrium,
    check_pEF1,
    normalize_instance,
    run_pef1,
)
from chorefair import approx_efx, efx_k2, pef1
from chorefair.errors import (InternalInvariant, IterationCapExceeded,
                              LemmaViolation, MissingIntermediary,
                              MPBViolation, RaiseOverflow)
from chorefair.harness import GenParams, gen_instance
from chorefair.market_init import AgentGroups
from chorefair.model import MarketView, build_market_state, bundle_masks
from chorefair.pef1 import _Rounds, reallocate
from chorefair.trace import TraceEvent, replay_trace

from conftest import (ROTATION_SIZES, generated_instances, golden6_market,
                      owned_instance, skewed_owned_instance, swap_market)


def _one_group(n):
    agents = tuple(range(n))
    return AgentGroups((frozenset(agents),), agents)


def test_selectors_break_ties_toward_smaller_index():
    # agents 0 and 1 tie on earning 3 and hat 2; agents 2 and 3 on earning 0
    inst = Instance(4, 6, Fraction(2), ((False,) * 3 + (True,) * 3,
                                        (True,) * 3 + (False,) * 3,
                                        (False,) * 6, (False,) * 6))
    state = build_market_state(inst, (0b000111, 0b111000, 0, 0), 0)
    rounds = _Rounds(state, _one_group(4))
    assert rounds.hats == [2, 2, 0, 0]
    assert rounds.find(state) == (0, 2)


def test_a_lone_earner_is_big_and_ends_the_rounds():
    inst = Instance(2, 1, Fraction(2), ((False,), (False,)))
    state = build_market_state(inst, (1, 0), 0)
    rounds = _Rounds(state, _one_group(2))
    assert rounds.hats == [0, 0]  # agent 0 is big on the tie
    assert rounds.find(state) is None  # hat(0) = 0 <= earning of anyone


def test_single_agent_terminates_immediately():
    inst = Instance(1, 3, Fraction(2), ((False, False, False),))
    result = run_pef1(inst)
    assert result.round_count == 0
    assert result.trace == ()
    assert check_pEF1(result.market).holds


def test_run_rejects_no_agents():
    with pytest.raises(ValueError):
        Instance(0, 1, Fraction(2), ())


def test_rotation_instance_runs_the_designed_script(rotation):
    state = run_pef1(rotation)
    kinds = [ev.kind for ev in state.trace]
    assert kinds == ["raise", "transfer", "transfer", "transfer", "transfer",
                     "transfer", "raise", "transfer", "rotate", "transfer"]
    assert state.round_count == 8
    assert [state.market.earn_units[i] for i in range(4)] == [8, 8, 9, 7]
    assert state.unraised == frozenset({2, 3})
    assert check_pEF1(state.market).holds
    assert check_equilibrium(state.market).holds


def test_rotation_routes_through_the_entry_bundle_holder(rotation):
    state = run_pef1(rotation)
    rotate = [ev for ev in state.trace if ev.kind == "rotate"]
    assert len(rotate) == 1
    ev = rotate[0]
    b, mid, l = ev.agents
    # raised big earner gives to the unraised intermediary, which passes
    # one of the least earner's entry chores back to it
    assert (b, mid, l) == (1, 2, 0)
    assert ev.items == (9, 0)
    e1, e2 = ev.items
    assert state.entry.bundles[l] >> e2 & 1
    assert ev.earn_before is not None and ev.earn_after is not None


def _replayed_markets(state):
    """The entry market of a finished run and its market after each round,
    rebuilt round by round from the trace."""
    markets = [state.entry]
    for rnd in range(1, state.round_count + 1):
        markets.append(replay_trace(
            markets[-1], [ev for ev in state.trace if ev.round == rnd]))
    return markets


def test_raise_multiplies_group_payments(rotation):
    markets = _replayed_markets(run_pef1(rotation))
    entry = markets[0]
    raised_round = markets[1]  # first round raises a0's group
    assert rotation.k == 2
    # one chore moved away the same round; the rest doubled
    assert not raised_round.bundles[0] & ~raised_round.high  # all pay 2
    assert not entry.bundles[0] & entry.high  # all paid 1


def test_trace_replays_to_the_final_state(rotation):
    state = run_pef1(rotation)
    assert replay_trace(state.entry, state.trace) == state.market
    assert replay_trace(state.entry, ()) is state.entry


def test_least_earning_never_drops_along_the_trace(rotation):
    state = run_pef1(rotation)
    seq = [ev.least_earning for ev in state.trace
           if ev.least_earning is not None]
    assert seq == sorted(seq)


@given(generated_instances())
def test_run_reaches_pef1_equilibrium(inst):
    state = run_pef1(inst)
    assert check_pEF1(state.market).holds
    assert check_equilibrium(state.market).holds


@given(generated_instances())
def test_round_count_stays_under_the_stated_cap(inst):
    state = run_pef1(inst)
    assert state.round_count <= 4 * inst.n**2 * inst.m**2


@given(generated_instances(max_n=5, max_m=9))
@settings(max_examples=60)
def test_replayed_round_states_are_all_equilibria(inst):
    for market in _replayed_markets(run_pef1(inst)):
        assert check_equilibrium(market).holds


@given(generated_instances(max_n=5, max_m=9))
@settings(max_examples=60)
def test_raised_agents_sit_in_a_group_prefix(inst):
    state = run_pef1(inst)
    raised = frozenset(range(inst.n)) - state.unraised
    seen_unraised = False
    for group in state.groups.groups:
        fully_raised = group.isdisjoint(state.unraised)
        fully_unraised = group <= state.unraised
        assert fully_raised or fully_unraised
        if fully_unraised:
            seen_unraised = True
        elif seen_unraised:
            pytest.fail("raised group after an unraised one")
    assert raised | state.unraised == frozenset(range(inst.n))


@given(generated_instances(max_n=5, max_m=9))
@settings(max_examples=60)
def test_final_allocation_is_a_permutation_of_the_items(inst):
    state = run_pef1(inst)
    owner = state.market.allocation.owner
    assert len(owner) == inst.m
    assert all(0 <= o < inst.n for o in owner)


def _entry_rounds(final):
    """The payment rounds of a finished run from its entry market, and the
    view they run on."""
    return _Rounds(final.entry, final.groups), MarketView(final.entry)


@given(generated_instances(max_n=5, max_m=9))
@settings(max_examples=60)
def test_replayed_markets_end_at_the_run_result(inst):
    state = run_pef1(inst)
    markets = _replayed_markets(state)
    assert markets[-1] == state.market
    for market in (state.entry, state.market):
        assert market == build_market_state(
            market.instance, market.bundles, market.high)


@pytest.mark.parametrize("seed", [8, 15])
def test_stepping_pef1_round_reproduces_run_pef1(seed):
    inst = skewed_owned_instance(3, (20, 18, 16, 2, 1, 1, 1), seed,
                                 Fraction(1, 20))
    final = run_pef1(inst)
    assert {ev.kind for ev in final.trace} == {"raise", "transfer", "rotate"}
    rounds, view = _entry_rounds(final)
    markets, events = [final.entry], []
    while (found := rounds.find(view)) is not None:
        events += rounds.trade(view, len(markets), *found)
        markets.append(view.market())
    assert markets == _replayed_markets(final)
    assert tuple(events) == final.trace
    assert rounds.unraised == final.unraised


def _corrupt_bundle_on(view):
    view.bundles[3] |= view.bundles[0] & -view.bundles[0]


def _corrupt_bundle_off(view):
    view.bundles[3] &= view.bundles[3] - 1


def _corrupt_bundle_moved(view):
    # bundles still partition the chores, but agent 3 now holds a chore of
    # agent 0 that costs it k at payment 1
    low = view.bundles[0] & -view.bundles[0]
    view.bundles[0] ^= low
    view.bundles[3] |= low


def _corrupt_payments(view):
    # a chore of the unraised agent 3 that costs it 1 starts paying k
    view.high |= view.bundles[3] & view.low_cost[3]


@pytest.mark.parametrize("corrupt", [_corrupt_bundle_on, _corrupt_bundle_off,
                                     _corrupt_bundle_moved, _corrupt_payments])
def test_a_corrupted_view_fails_the_run(rotation, corrupt):
    rounds, view = _entry_rounds(run_pef1(rotation))
    corrupt(view)
    with pytest.raises(ChorefairError):
        rnd = 0
        while (found := rounds.find(view)) is not None:
            rnd += 1
            rounds.trade(view, rnd, *found)
        view.market()


def test_round_checks_recompute_earnings_from_the_masks(rotation):
    rounds, view = _entry_rounds(run_pef1(rotation))
    view.earn_units[3] += 1  # agent 3 is neither selected nor touched in round 1
    with pytest.raises(ChorefairError, match="uninvolved agent 3"):
        rounds.trade(view, 1, *rounds.find(view))


def test_bundles_must_partition_the_chores(rotation):
    rounds, view = _entry_rounds(run_pef1(rotation))
    _corrupt_bundle_on(view)
    with pytest.raises(InternalInvariant, match="share a chore"):
        rounds.trade(view, 1, *rounds.find(view))


def test_round_checks_every_bundle_against_its_mpb_set(rotation):
    rounds, view = _entry_rounds(run_pef1(rotation))
    _corrupt_bundle_moved(view)
    with pytest.raises(MPBViolation, match="equilibrium at agent 3"):
        rounds.trade(view, 1, *rounds.find(view))


# Corruptions made after a checked round, with the error and message each
# gives in round 2 of the rotation instance.  Round 1 raised agent 0's
# group and moved chore 0 to agent 2; round 2 moves chore 1 from agent 0 to
# agent 3, so agent 1 is untouched there.

def _between_bundle_off_mpb(rounds, view):
    # agent 2's chore 15 costs k to agent 1 and pays 1; the bundles still
    # partition the chores
    view.bundles[2] ^= 1 << 15
    view.bundles[1] |= 1 << 15


def _between_chore_in_two_bundles(rounds, view):
    view.bundles[1] |= 1 << 15


def _between_payments(rounds, view):
    # agent 1 is unraised; its cost-1 chore 8 starts paying k
    view.high |= 1 << 8


def _between_earning(rounds, view):
    view.earn_units[1] += 1


def _between_unraised(rounds, view):
    rounds.unraised = frozenset({1, 3})  # agent 2 is unraised too


@pytest.mark.parametrize("corrupt,error,message", [
    (_between_bundle_off_mpb, MPBViolation,
     "round broke the equilibrium at agent 1"),
    (_between_chore_in_two_bundles, InternalInvariant,
     "two bundles share a chore"),
    (_between_payments, MPBViolation,
     "round broke the equilibrium at agent 1"),
    (_between_earning, LemmaViolation,
     "earning of uninvolved agent 1 changed during the round"),
    (_between_unraised, LemmaViolation, "agent 2 has ratio 1, expected 1/2"),
])
def test_a_view_corrupted_between_rounds_fails_the_next(rotation, corrupt,
                                                        error, message):
    rounds, view = _entry_rounds(run_pef1(rotation))
    rounds.trade(view, 1, *rounds.find(view))  # a checked round first
    least, hats = rounds.least, rounds.hats
    corrupt(rounds, view)
    with pytest.raises(error) as caught:
        rounds.trade(view, 2, *rounds.find(view))
    assert str(caught.value) == message
    # the failed round carries nothing over to the next
    assert (rounds.least, rounds.hats) == (least, hats)


# The group checks of a round, each reached on a three-agent market where
# chore e costs 1 only to owners[e], which holds it.  The checks run on
# the state as given, every agent counted as touched.

def _checked_rounds(groups, high, unraised, owners=(0, 0, 1, 1, 2, 2)):
    inst = owned_instance(2, owners)
    market = build_market_state(inst, bundle_masks(owners, 3), high)
    agent_groups = AgentGroups(tuple(map(frozenset, groups)), (0, 1, 2))
    rounds = _Rounds(market, agent_groups)
    rounds.unraised = frozenset(unraised)
    return rounds, rounds._assert_round(MarketView(market), {0, 1, 2})


@pytest.mark.parametrize("groups,high,unraised,message", [
    # agent 0's chores pay k, so it is raised but listed unraised
    ([{0}, {1}, {2}], 0b000011, {0, 1, 2},
     "agent 0 has ratio 1/2, expected 1"),
    # nothing pays k, so agent 0 is unraised but listed raised
    ([{0}, {1}, {2}], 0, {1, 2}, "agent 0 has ratio 1, expected 1/2"),
    ([{0, 1}, {2}], 0b000011, {1, 2}, "a group is only partially raised"),
    ([{0}, {1}, {2}], 0b001100, {0, 2}, "raised groups do not form a prefix"),
    ([{0}, {1}, {2}], 0b111111, set(), "the last group must stay unraised"),
])
def test_round_checks_ratios_and_the_group_order(groups, high, unraised,
                                                 message):
    with pytest.raises(LemmaViolation) as caught:
        _checked_rounds(groups, high, unraised)
    assert str(caught.value) == message


def test_round_checks_pef1_inside_each_group():
    # agent 0 holds chores 0, 1 and 2: its hat 2 exceeds agent 1's earning 1
    with pytest.raises(LemmaViolation) as caught:
        _checked_rounds([{0, 1}, {2}], 0, {0, 1, 2}, (0, 0, 0, 1, 2, 2))
    assert str(caught.value) == "pEF1 broke inside a group: 0 vs 1"


def test_round_checks_pass_on_a_legal_state():
    rounds, (earn, hats) = _checked_rounds([{0}, {1}, {2}], 0b000011, {1, 2})
    assert earn == [4, 2, 2] and hats == [2, 1, 1]


# The guards of a payment round, each reached by a trade on a chosen pair
# (big earner 0, least earner 1) on a three-agent market where chore e costs
# 1 only to entry owner ENTRY_OWNERS[e].  The view's owners may differ from
# the entry's.

ENTRY_OWNERS = (0, 0, 1, 1, 2, 2)


@pytest.mark.parametrize("groups,unraised,high,owners,error,message", [
    ([{1}, {2}], {0, 1, 2}, 0, ENTRY_OWNERS, LemmaViolation,
     "agent 0 belongs to no group"),
    ([{0, 1}, {2}], {0, 1, 2}, 0, ENTRY_OWNERS, LemmaViolation,
     "least earner shares the big earner's group; the terminal check "
     "should have fired (pEF1 holds inside groups)"),
    ([{0}, {1}, {2}], {0, 2}, 0, ENTRY_OWNERS, LemmaViolation,
     "least earner is raised while the big earner is not"),
    # chore 0 of the big earner's group already pays k
    ([{0}, {1}, {2}], {0, 1, 2}, 0b000001, ENTRY_OWNERS, RaiseOverflow,
     "chore 0 already pays 2; raising would leave the two-value payment "
     "range"),
    # agent 1 still holds its whole entry bundle
    ([{0}, {1}, {2}], {2}, 0, ENTRY_OWNERS, MissingIntermediary,
     "no unraised agent holds part of agent 1's entry bundle"),
    # agent 2 holds agent 1's entry chore 2, but neither chore of agent 0
    # costs it 1
    ([{0}, {1}, {2}], {2}, 0, (0, 0, 2, 1, 2, 2), MPBViolation,
     "no chore of big earner 0 is ratio-minimal for intermediary 2"),
])
def test_a_payment_round_guards_its_pair(groups, unraised, high, owners,
                                         error, message):
    inst = owned_instance(2, ENTRY_OWNERS)
    entry = build_market_state(inst, bundle_masks(ENTRY_OWNERS, 3), 0)
    market = build_market_state(inst, bundle_masks(owners, 3), high)
    rounds = _Rounds(entry, AgentGroups(tuple(map(frozenset, groups)),
                                        (0, 1, 2)))
    rounds.unraised = frozenset(unraised)
    with pytest.raises(error) as caught:
        rounds.trade(MarketView(market), 1, 0, 1)
    assert str(caught.value) == message


def test_a_payment_round_whose_least_earning_drops_fails():
    # at k = 5/2 earnings are in halves; round 1's least earner earns 1,
    # below the 3/2 a previous round is set to have seen
    inst = skewed_owned_instance(Fraction(5, 2), ROTATION_SIZES)
    rounds, view = _entry_rounds(run_pef1(inst))
    b, l = rounds.find(view)
    assert view.earn_units[l] == 2
    rounds.least = 3
    with pytest.raises(LemmaViolation) as caught:
        rounds.trade(view, 2, b, l)
    assert str(caught.value) == \
        "least earner earning dropped from 3/2 to 1"


def test_a_run_with_no_round_returns_the_reindexed_market(monkeypatch):
    # a random-dense-shaped draw: one agent group, so no payment round
    inst = normalize_instance(gen_instance(GenParams(16, 64, 3,
                                                     Fraction(3, 4), 1)))
    reindexed, views = [], []
    real_reindex = pef1._reindex

    def reindex(*args):
        reindexed.append(real_reindex(*args))
        return reindexed[-1]

    class CountedView(MarketView):
        def __init__(self, *args):
            views.append(args)
            super().__init__(*args)

    monkeypatch.setattr(pef1, "_reindex", reindex)
    monkeypatch.setattr(pef1, "MarketView", CountedView)
    state = run_pef1(inst)
    assert len(state.groups.groups) == 1
    assert state.market is reindexed[0][0]
    assert state.entry is state.market
    assert (state.round_count, state.trace) == (0, ())
    assert views == []


# Each stage with its find and trade replaced by a pair that never settles:
# the stage entry, the module it calls reallocate from, and its cap.
_NEVER_SETTLING = {
    "exchange": (lambda: approx_efx.approx_from_equilibrium(golden6_market()),
                 approx_efx, 7),
    "trade": (lambda: efx_k2.k2_from_equilibrium(swap_market()), efx_k2, 6),
    # n = 2, m = 3
    "payment": (lambda: run_pef1(owned_instance(2, [0, 1, 1])), pef1,
                4 * 2**2 * 3**2),
}


@pytest.mark.parametrize("noun", ["exchange", "trade", "payment"])
def test_a_reallocation_stage_that_never_settles_stops_after_n_rounds(
        monkeypatch, noun):
    # the stages' checks allow at most n rounds, the payment rounds at most
    # 4 n^2 m^2; a find that always names a pair meets the cap on the round
    # after it
    run, module, cap = _NEVER_SETTLING[noun]
    rounds = []

    def trade(view, round_no, i, j):
        rounds.append(round_no)
        return [TraceEvent("x", round_no, "move", (i, j), (0,))]

    def never_settling(market, find, stage_trade, stage_noun, stage_cap):
        return reallocate(market, lambda m: (0, 1), trade, stage_noun,
                          stage_cap)

    monkeypatch.setattr(module, "reallocate", never_settling)
    with pytest.raises(IterationCapExceeded,
                       match=f"^{noun} stage exceeded {cap} rounds$"):
        run()
    assert rounds == list(range(1, cap + 2))
