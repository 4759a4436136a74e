"""Exact EFX for two-valued {1,2} costs: swap and move rounds."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from chorefair import (check_equilibrium, check_pEF1, min_beta_EFX,
                       run_efx_k2, run_pef1)
from chorefair import model
from chorefair.efx_k2 import (
    earning_tiers,
    efx_violation,
    k2_from_equilibrium,
    k2_round,
)
from chorefair.errors import (
    InternalInvariant,
    LemmaViolation,
    MPBViolation,
    PreconditionViolated,
)
from chorefair.model import (EnvyKernel, MarketView, build_market_state,
                             bundle_masks)

from conftest import (
    generated_instances,
    instances,
    move_market,
    swap_market,
)


def nested_efx_violation(market):
    """The first (i, j) in lexicographic order with i failing exact EFX
    toward j, by plain Fraction costs over every ordered pair."""
    inst = market.instance
    owner = market.allocation.owner
    for i, j in product(range(inst.n), repeat=2):
        mine = [inst.cost(i, e) for e, o in enumerate(owner) if o == i]
        if i == j or not mine:
            continue
        envied = sum((inst.cost(i, e) for e, o in enumerate(owner) if o == j),
                     Fraction(0))
        if sum(mine) - min(mine) > envied:
            return i, j
    return None


def test_swap_market_layout():
    market = swap_market()
    assert [market.earn_units[i] for i in range(6)] == \
        [4, 5, 5, 5, 6, 6]
    z, offsets = earning_tiers(market)
    assert z == 4
    assert offsets == {0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 2}
    assert efx_violation(market) == (4, 0)
    assert [i for i in range(6) if market.raised(i)] == [5]


def test_swap_trades_payment_two_for_payment_one():
    result = k2_from_equilibrium(swap_market())
    assert len(result.trace) == 1
    ev = result.trace[0]
    assert ev.kind == "swap"
    assert ev.agents == (4, 0)
    assert ev.items == (12, 1)
    assert result.market.earn_units[4] == 5
    assert result.market.earn_units[0] == 5
    assert efx_violation(result.market) is None


def test_swap_reaches_exact_efx():
    result = k2_from_equilibrium(swap_market())
    beta = min_beta_EFX(result.market).value
    assert beta == Fraction(1)
    assert check_equilibrium(result.market).holds
    assert check_pEF1(result.market).holds


def test_move_market_layout():
    market = move_market()
    assert [market.earn_units[i] for i in range(6)] == \
        [4, 4, 4, 5, 6, 6]
    assert efx_violation(market) == (4, 0)
    # the target holds only payment-2 chores, so no trade is possible
    assert not market.bundles[0] & ~market.high
    assert [i for i in range(6) if market.raised(i)] == [5]


def test_move_hands_over_one_payment_two_chore():
    result = k2_from_equilibrium(move_market())
    assert len(result.trace) == 1
    ev = result.trace[0]
    assert ev.kind == "move"
    assert ev.agents == (4, 0)
    assert ev.items == (11,)
    assert result.market.earn_units[0] == 6
    assert result.market.earn_units[4] == 4
    # receiver ends all-high: the pEF1 certificate for tier z+2 agents
    assert not result.market.bundles[0] & ~result.market.high


def test_move_reaches_exact_efx():
    result = k2_from_equilibrium(move_market())
    beta = min_beta_EFX(result.market).value
    assert beta == Fraction(1)
    assert check_pEF1(result.market).holds


def test_earning_tiers_reject_a_wide_span():
    # tiers live in {z, z+1, z+2}; build a span of 3 and expect a failure
    from chorefair.errors import TierViolation
    from conftest import market_from_parts, owned_instance
    inst = owned_instance(2, [0, 0, 0, 0, 1])
    market = market_from_parts(inst, [0, 0, 0, 0, 1], frozenset())
    with pytest.raises(TierViolation):
        earning_tiers(market)


def test_non_two_k_is_rejected():
    from conftest import owned_instance
    inst = owned_instance(3, [0, 1, 2])
    with pytest.raises(PreconditionViolated,
                       match="exact EFX stage needs k = 2, got 3"):
        run_efx_k2(inst)


@given(generated_instances(ks=(Fraction(2),)))
def test_full_run_reaches_exact_efx(inst):
    result = run_efx_k2(inst)
    beta = min_beta_EFX(result.market).value
    assert beta == Fraction(1)
    assert check_equilibrium(result.market).holds
    assert check_pEF1(result.market).holds


@given(generated_instances(ks=(Fraction(2),)))
@settings(max_examples=30)
def test_the_full_run_is_the_stage_on_the_pef1_market(inst):
    result = run_efx_k2(inst)
    pef1 = run_pef1(inst)
    assert result.pef1 == pef1
    assert k2_from_equilibrium(pef1.market) == result._replace(pef1=None)


@given(generated_instances(ks=(Fraction(2),)))
@settings(max_examples=60)
def test_round_count_is_at_most_n(inst):
    result = run_efx_k2(inst)
    assert len(result.trace) <= inst.n


@given(generated_instances(ks=(Fraction(2),)))
@settings(max_examples=60)
def test_final_earnings_span_at_most_two_units(inst):
    result = run_efx_k2(inst)
    earns = [result.market.earn_units[i] for i in range(inst.n)]
    assert max(earns) - min(earns) <= 2


@given(instances(), st.data())
@settings(max_examples=200)
def test_efx_violation_agrees_with_the_nested_scan(inst, data):
    owner = data.draw(st.lists(st.integers(0, inst.n - 1),
                               min_size=inst.m, max_size=inst.m))
    market = build_market_state(inst, bundle_masks(owner, inst.n), 0)
    assert efx_violation(market) == nested_efx_violation(market)


@given(generated_instances(ks=(Fraction(2),)))
@settings(max_examples=60)
def test_efx_violation_agrees_with_the_nested_scan_on_pef1_markets(inst):
    market = run_pef1(inst).market
    assert efx_violation(market) == nested_efx_violation(market)


def test_a_market_with_nothing_to_trade_builds_one_kernel(monkeypatch):
    builds = []

    class CountedKernel(EnvyKernel):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    # the swap's result is exactly EFX and pEF1, and has built no kernel
    market = k2_from_equilibrium(swap_market()).market
    monkeypatch.setattr(model, "EnvyKernel", CountedKernel)
    result = k2_from_equilibrium(market)
    assert result.market is market and result.trace == ()
    assert min_beta_EFX(result.market).value == 1
    # the stage's search and the verdict read the market's one kernel
    assert len(builds) == 1


def _trade_view():
    """The swap market's view before its one trade, (4, 0)."""
    return MarketView(swap_market())


def _chore_off_mpb(view):
    # agent 3's payment-1 chore 11 goes to the raised agent 5, whose MPB
    # set holds only payment-2 chores; the bundles still partition
    view.bundles[3] ^= 1 << 11
    view.bundles[5] |= 1 << 11


def _chore_in_no_bundle(view):
    view.bundles[3] ^= 1 << 11


def _uninvolved_earning(view):
    view.earn_units[3] += 1


CORRUPTIONS = pytest.mark.parametrize("corrupt,error,match", [
    (_chore_off_mpb, MPBViolation, "equilibrium at agent 5"),
    (_chore_in_no_bundle, InternalInvariant, "in no bundle"),
    (_uninvolved_earning, LemmaViolation, "uninvolved agent 3"),
])


@CORRUPTIONS
def test_a_corrupted_view_fails_the_trade(corrupt, error, match):
    view = _trade_view()
    corrupt(view)
    with pytest.raises(error, match=match):
        k2_round(view, 1, *efx_violation(view))


def test_a_raised_agent_in_the_violating_pair_fails_the_trade():
    # chore 1 costs agents 0..4 one; paying k for it raises them, which the
    # masks show while the earnings still put (4, 0) at (z + 2, z)
    view = _trade_view()
    view.high |= 1 << 1
    with pytest.raises(LemmaViolation,
                       match=r"violating pair \(4, 0\) must both be unraised"):
        k2_round(view, 1, *efx_violation(view))


@CORRUPTIONS
def test_a_view_corrupted_after_a_trade_fails_the_next_check(
        corrupt, error, match):
    # the swap (4, 0) leaves agents 1, 2, 3 and 5 untouched
    view = _trade_view()
    [event] = k2_round(view, 1, *efx_violation(view))
    assert event.agents == (4, 0)
    corrupt(view)
    with pytest.raises(error, match=match):
        view.check_round("trade", (4, 0))


def test_a_trade_on_the_view_matches_the_stage():
    view = _trade_view()
    events = k2_round(view, 1, *efx_violation(view))
    result = k2_from_equilibrium(swap_market())
    assert tuple(events) == result.trace
    assert view.market() == result.market
    assert view.earn_units == list(result.market.earn_units)
