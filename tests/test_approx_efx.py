"""Bundle-swap stage: strong-envy detection and the (2 - 1/k) bound."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings

from chorefair import (AlreadyUniform, check_equilibrium, min_beta_EFX,
                       normalize_instance, run_approx_efx, run_pef1)
from chorefair.approx_efx import (
    _exchange,
    approx_from_equilibrium,
    entry_tier_units,
    strong_envy_target,
)
from chorefair.errors import InternalInvariant, LemmaViolation, MPBViolation
from chorefair.harness import (GenParams, gen_instance, run_pipeline,
                               verify_report)
from chorefair import model
from chorefair.model import EnvyKernel, MarketView

from conftest import (TIGHT_WITNESSES, beta_star, generated_instances,
                      golden6_market, tight_witness)

K_NOT_TWO = (Fraction(3), Fraction(5, 2), Fraction(6))


def naive_strong_envy_pairs(market):
    """All (i, j) failing the (2 - 1/k) bound, via plain Fraction costs."""
    inst = market.instance
    owner = market.allocation.owner
    bound = 2 - 1 / inst.k
    pairs = []
    for i, j in product(range(inst.n), repeat=2):
        if i == j:
            continue
        mine = [inst.cost(i, e) for e, o in enumerate(owner) if o == i]
        if len(mine) <= 1:
            continue
        worst = sum(mine) - min(mine)
        envied = sum(
            (inst.cost(i, e) for e, o in enumerate(owner) if o == j),
            Fraction(0))
        if worst > bound * envied:
            pairs.append((i, j))
    return pairs


def test_golden_market_has_exactly_one_strong_envier():
    market = golden6_market()
    assert [market.earn_units[i] for i in range(7)] == \
        [2, 2, 3, 6, 7, 8, 8]
    pairs = naive_strong_envy_pairs(market)
    assert {i for i, _ in pairs} == {6}
    assert {j for _, j in pairs} == {0, 1, 2}
    # selector picks the violator's least-earning target, ties to the left
    assert strong_envy_target(market) == (6, 0)


def test_golden_swap_resolves_in_one_round():
    market = golden6_market()
    result = approx_from_equilibrium(market)
    assert len(result.trace) == 1
    ev = result.trace[0]
    assert ev.kind == "bundle_swap"
    assert ev.agents == (6, 0)
    assert ev.items[0] == 15  # the violator's single high-payment chore
    assert result.market.earn_units[6] == 4
    assert result.market.earn_units[0] == 6
    # everyone else keeps their earning
    for i in (1, 2, 3, 4, 5):
        assert result.market.earn_units[i] == market.earn_units[i]
    assert strong_envy_target(result.market) is None
    assert check_equilibrium(result.market).holds


def test_golden_swap_hands_over_the_whole_low_bundle():
    market = golden6_market()
    result = approx_from_equilibrium(market)
    assert result.market.bundles[0] == 1 << 15
    assert result.market.bundles[6] == 0b110000000011


def test_golden_final_beta_meets_the_bound():
    market = golden6_market()
    result = approx_from_equilibrium(market)
    beta = min_beta_EFX(result.market).value
    assert beta <= 2 - Fraction(1, 6)


def test_mixed_holder_count_drops_by_one():
    market = golden6_market()
    result = approx_from_equilibrium(market)

    def mixed(state):
        """Agents holding a chore of each payment."""
        return sum(1 for b in state.bundles
                   if b & state.high and b & ~state.high)

    assert mixed(market) == 3
    assert mixed(result.market) == 2


def test_no_violation_means_zero_rounds():
    market = golden6_market()
    once = approx_from_equilibrium(market).market
    again = approx_from_equilibrium(once)
    assert len(again.trace) == 0
    assert again.market.allocation == once.allocation


def test_k_two_is_accepted_with_the_weaker_bound():
    # the exchange stage covers every k > 1; k = 2 just has a sharper
    # dedicated stage elsewhere
    from conftest import swap_market
    inst = swap_market().instance
    result = run_approx_efx(inst)
    beta = min_beta_EFX(result.market).value
    assert beta <= Fraction(3, 2)


@given(generated_instances(ks=K_NOT_TWO))
def test_full_run_meets_the_beta_bound(inst):
    result = run_approx_efx(inst)
    # the result lives in the reindexed frame; measure it there
    beta = min_beta_EFX(result.market).value
    assert beta <= 2 - 1 / inst.k
    assert check_equilibrium(result.market).holds


@given(generated_instances(ks=K_NOT_TWO))
@settings(max_examples=30)
def test_the_full_run_is_the_stage_on_the_pef1_market(inst):
    result = run_approx_efx(inst)
    pef1 = run_pef1(inst)
    assert result.pef1 == pef1
    assert approx_from_equilibrium(pef1.market) == result._replace(pef1=None)


@given(generated_instances(ks=K_NOT_TWO))
@settings(max_examples=60)
def test_round_count_is_at_most_n(inst):
    result = run_approx_efx(inst)
    assert len(result.trace) <= inst.n


@given(generated_instances(ks=K_NOT_TWO))
@settings(max_examples=60)
def test_selector_agrees_with_naive_scan(inst):
    market = run_pef1(inst).market
    got = strong_envy_target(market)
    pairs = naive_strong_envy_pairs(market)
    if got is None:
        assert pairs == []
    else:
        i, j = got
        assert i == min(v for v, _ in pairs)
        targets = [w for v, w in pairs if v == i]
        assert j in range(inst.n)
        # chosen target earns no more than any strongly envied one
        assert all(
            (market.earn_units[j], j) <= (market.earn_units[t], t)
            for t in targets)


def _exchange_view():
    """The golden market's view before its one exchange, (6, 0), with the
    entry band base z."""
    view = MarketView(golden6_market())
    return view, entry_tier_units(view)


def _chore_off_mpb(view):
    # agent 2's chore 4 costs k to agent 5 at payment 1; the bundles still
    # partition
    view.bundles[2] ^= 1 << 4
    view.bundles[5] |= 1 << 4


def _chore_in_two_bundles(view):
    view.bundles[6] |= 1 << 2


def _uninvolved_earning(view):
    view.earn_units[3] += 1


CORRUPTIONS = pytest.mark.parametrize("corrupt,error,match", [
    (_chore_off_mpb, MPBViolation, "equilibrium at agent 5"),
    (_chore_in_two_bundles, InternalInvariant, "share a chore"),
    (_uninvolved_earning, LemmaViolation, "uninvolved agent 3"),
])


@CORRUPTIONS
def test_a_corrupted_view_fails_the_exchange(corrupt, error, match):
    view, z = _exchange_view()
    corrupt(view)
    with pytest.raises(error, match=match):
        _exchange(view, z, 1, *strong_envy_target(view))


@CORRUPTIONS
def test_a_view_corrupted_after_an_exchange_fails_the_next_check(
        corrupt, error, match):
    # the exchange (6, 0) leaves agents 1, 2, 3 and 5 untouched
    view, z = _exchange_view()
    _exchange(view, z, 1, *strong_envy_target(view))
    corrupt(view)
    with pytest.raises(error, match=match):
        view.check_round("exchange", (6, 0))


def test_an_exchange_on_the_view_matches_the_stage():
    view, z = _exchange_view()
    events = _exchange(view, z, 1, *strong_envy_target(view))
    result = approx_from_equilibrium(golden6_market())
    assert tuple(events) == result.trace
    assert view.market() == result.market
    assert view.earn_units == list(result.market.earn_units)


def test_the_stage_builds_one_envy_kernel_per_exchange(monkeypatch):
    builds = []

    class CountedKernel(EnvyKernel):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(model, "EnvyKernel", CountedKernel)
    result = approx_from_equilibrium(golden6_market())
    # the entry market's kernel, then one per exchange: the exchange's
    # checks and the next target search read the same one
    assert len(result.trace) == 1
    assert len(builds) == 2


def test_a_move_drops_the_view_kernel():
    view, _ = _exchange_view()
    kernel = view.kernel
    assert view.kernel is kernel
    i, j = strong_envy_target(view)
    view.move((view.bundles[i] & view.high).bit_length() - 1, i, j)
    assert view.kernel is not kernel
    assert view.kernel.cost == EnvyKernel(view.instance, view.bundles).cost


@pytest.mark.parametrize("k", sorted(TIGHT_WITNESSES))
def test_a_tight_witness_reaches_beta_star_below_two_minus_one_over_k(k):
    inst = tight_witness(k)
    report = run_pipeline(inst, "approx")
    assert report.success
    assert verify_report(inst, report) == []
    assert report.verdicts.beta_efx == beta_star(k) < 2 - 1 / k
    # at 7/2 the exchange stage takes the market to beta_star(k); at the
    # others the pEF1 market is already there
    exchange = next(s for s in report.stages if s.name == "approx_efx")
    assert exchange.rounds == (1 if k == Fraction(7, 2) else 0)


# the k of the direction-1 search table, and those at which the seeded
# grid below reaches beta_star(k)
BETA_STAR_KS = tuple(map(Fraction, (
    "5/4", "3/2", "9/5", "2", "3", "4", "7/3", "5/2", "11/4", "29/10",
    "10/3", "7/2", "19/5")))
GRID_REACHES = frozenset(map(Fraction, (
    "5/4", "3/2", "9/5", "2", "3", "4", "7/3", "5/2", "10/3")))


def test_no_seeded_grid_output_exceeds_beta_star():
    # an output above beta_star(k) is a counterexample to the searched
    # bound: commit the draw as a fixture and report it; keep the grid
    runs, reached = 0, set()
    for k, n, high_prob, seed in product(
            BETA_STAR_KS, range(2, 7),
            (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)), (0, 1)):
        for m in range(n + 1, 3 * n + 1):
            try:
                inst = normalize_instance(gen_instance(
                    GenParams(n, m, k, high_prob, seed)))
            except AlreadyUniform:
                continue
            runs += 1
            beta = min_beta_EFX(run_approx_efx(inst).market).value
            assert beta <= beta_star(k), (k, n, m, high_prob, seed, beta)
            if beta == beta_star(k):
                reached.add(k)
    assert runs == 3042
    assert reached == GRID_REACHES
