"""High-to-low bundle exchange stage: from a pEF1 equilibrium to (2 - 1/k)-EFX.

Payments never change here.  While some agent i strongly envies another
(fails the (2 - 1/k)-EFX test in costs), i hands its single high-payment
chore to the least-earning agent j it strongly envies and absorbs all of
j's chores.  Every reallocated chore stays ratio-minimal for its receiver,
so the market remains an equilibrium and the result is Pareto optimal.

The count of high-payment holders that also hold a low-payment chore drops
by exactly one per round, which bounds the loop by n.
"""
from __future__ import annotations

from .errors import LemmaViolation
from .model import Instance, MarketState, MarketView, bits
from .pef1 import StageResult, reallocate, run_pef1
from .trace import TraceEvent


def strong_envy_target(market: MarketState | MarketView
                       ) -> tuple[int, int] | None:
    """Smallest agent i failing the (2 - 1/k)-EFX test, paired with the
    least-earning agent it fails against.  None when the test passes.
    """
    p, q = market.pay_high, market.pay_low
    earn = market.earn_units
    kernel = market.kernel
    scale = 2 * p - q
    for i, row in enumerate(kernel.cost):
        lhs = p * kernel.residual(i)
        # lhs <= p * row[i] <= scale * row[i], so i never fails against its
        # own bundle: read the row minimum, and list the targets only when
        # some j fails
        if lhs > scale * min(row):
            targets = [j for j, c in enumerate(row) if lhs > scale * c]
            return i, min(targets, key=lambda j: (earn[j], j))
    return None


def _mixed_holder_count(view: MarketView) -> int:
    return sum(1 for b in view.bundles if b & view.high and b & ~view.high)


def entry_tier_units(market: MarketState | MarketView) -> int:
    """Smallest earning among agents without a high-payment chore, validated
    against the band structure every strongly-envied entry state must have.
    """
    p, q = market.pay_high, market.pay_low
    earn = market.earn_units
    high = [i for i, b in enumerate(market.bundles) if b & market.high]
    lows = [i for i, b in enumerate(market.bundles) if not b & market.high]
    if not lows:
        raise LemmaViolation(
            "strong envy requires an agent without high-payment chores")
    z = min(earn[i] for i in lows)
    if z >= p:
        raise LemmaViolation(f"low-group base earning {z} is not below {p}")
    for i in lows:
        if earn[i] not in (z, z + q):
            raise LemmaViolation(
                f"agent {i} earns {earn[i]} outside {{z, z+1}}")
    for i in high:
        if not p <= earn[i] <= p + z:
            raise LemmaViolation(
                f"agent {i} earns {earn[i]} outside [k, k+z]")
    return z


def _exchange(view: MarketView, z_units: int, round_no: int,
              i: int, j: int) -> list[TraceEvent]:
    """Violator i trades its high-payment chore for target j's bundle."""
    highs_i, bundle_j = view.bundles[i] & view.high, view.bundles[j]
    if not highs_i or bundle_j & view.high:
        raise LemmaViolation(
            f"strong envy must run from a high-payment holder to a "
            f"non-holder, got {i} -> {j}")
    if view.raised(i):
        raise LemmaViolation(
            f"violator {i} has ratio {1 / view.instance.k}, not 1")
    if highs_i.bit_count() != 1:
        raise LemmaViolation(
            f"violator {i} holds {highs_i.bit_count()} high-payment chores, "
            "expected 1")
    e = highs_i.bit_length() - 1

    mixed_before = _mixed_holder_count(view)
    view.move(e, i, j)
    for x in bits(bundle_j):
        view.move(x, j, i)
    after = _assert_round(view, z_units, i, j, mixed_before)
    return [view.record("approx_efx", round_no, "bundle_swap", (i, j),
                        (e, *bits(bundle_j)), after)]


def _assert_round(view: MarketView, z_units: int, i: int, j: int,
                  mixed_before: int) -> list[int]:
    """Check the exchange from the view's masks alone; return the earnings."""
    p, q = view.pay_high, view.pay_low
    earn = view.check_round("exchange", (i, j))
    holds_high = [bool(b & view.high) for b in view.bundles]
    for a in range(view.n):
        lo, hi = (p, p + z_units) if holds_high[a] else (z_units, p + z_units)
        if not lo <= earn[a] <= hi:
            raise LemmaViolation(
                f"agent {a} earns {earn[a]} outside [{lo}, {hi}]")
    lows = [a for a in range(view.n) if not holds_high[a]]
    kernel = view.kernel
    for a in lows:
        lhs = p * kernel.residual(a)
        for b in lows:
            if b != a and lhs > (2 * p - q) * kernel.cost[a][b]:
                raise LemmaViolation(
                    f"agents {a} and {b} left the low group's envy bound")
    mixed_after = _mixed_holder_count(view)
    if mixed_after != mixed_before - 1:
        raise LemmaViolation(
            f"mixed-holder count went {mixed_before} -> {mixed_after}, "
            "expected a drop of exactly one")
    return earn


def approx_from_equilibrium(market: MarketState) -> StageResult:
    """Exchanges on the pEF1 market until (2 - 1/k)-EFX holds; every
    exchange checks the band of the input market's base z."""
    def trade(view, round_no, i, j):
        return _exchange(view, entry_tier_units(market), round_no, i, j)
    return reallocate(market, strong_envy_target, trade, "exchange",
                      market.instance.n)


def run_approx_efx(instance: Instance) -> StageResult:
    """Full pipeline: pEF1 equilibrium, then exchanges until (2 - 1/k)-EFX.

    The result is stated in the reindexed agent frame of the pEF1 stage;
    result.pef1.groups.new_to_old maps back to the caller's labels.
    """
    state = run_pef1(instance)
    return approx_from_equilibrium(state.market)._replace(pef1=state)
