"""Exact EFX for two-valued {1,2} costs, on top of a pEF1 equilibrium.

With k = 2 the pEF1 earnings span at most three consecutive integers
z, z+1, z+2.  While some agent fails the exact EFX test, the violator i
(earning z+2, holding a payment-2 chore and a payment-1 chore) trades with
a target j (earning z): swap a payment-2 chore for a payment-1 chore when
j has one, otherwise hand the payment-2 chore over.  Both trades keep every
chore ratio-minimal for its receiver, so the equilibrium and Pareto
optimality survive; the count of top-tier agents holding both payment
values drops by one per round.

Payments stay fixed, so the masks say who is raised throughout.
"""
from __future__ import annotations

from .errors import (LemmaViolation, MPBViolation, PreconditionViolated,
                     TierViolation)
from .model import Instance, MarketState, MarketView
from .pef1 import StageResult, reallocate, run_pef1
from .trace import TraceEvent


def earning_tiers(market: MarketState | MarketView
                  ) -> tuple[int, dict[int, int]]:
    """Base earning z and each agent's offset in {0, 1, 2} above it."""
    earn = market.earn_units
    z = min(earn)
    tiers = {}
    for i, units in enumerate(earn):
        off = units - z
        if off not in (0, 1, 2):
            raise TierViolation(
                f"agent {i} earns {units}, more than 2 above the base {z}")
        tiers[i] = off
    return z, tiers


def efx_violation(market: MarketState | MarketView
                  ) -> tuple[int, int] | None:
    """Smallest (i, j) lexicographically with i failing exact EFX toward j."""
    kernel = market.kernel
    for i, row in enumerate(kernel.cost):
        residual = kernel.residual(i)
        # residual <= row[i], so i never fails against its own bundle: read
        # the row minimum, and scan for j only when some j fails
        if residual > min(row):
            return i, next(j for j, c in enumerate(row) if residual > c)
    return None


def _mixed_top_count(view: MarketView, earn: list[int], z: int) -> int:
    return sum(1 for b, units in zip(view.bundles, earn)
               if units == z + 2 and b & view.high and b & ~view.high)


def k2_round(view: MarketView, round_no: int, i: int,
             j: int) -> list[TraceEvent]:
    """Violator i trades with target j on the view (efx_violation names
    the pair); returns the round's one event, in a list."""
    z, tiers = earning_tiers(view)
    if tiers[i] != 2 or tiers[j] != 0:
        raise TierViolation(
            f"violating pair must earn (z+2, z), got offsets "
            f"({tiers[i]}, {tiers[j]})")
    if view.raised(i) or view.raised(j):
        raise LemmaViolation(
            f"violating pair ({i}, {j}) must both be unraised")
    bundle_i, bundle_j = view.bundles[i], view.bundles[j]
    if bundle_j & ~view.mpb(i):
        raise MPBViolation(
            f"the envied bundle of {j} is not ratio-minimal for {i}")
    highs_i, lows_i = bundle_i & view.high, bundle_i & ~view.high
    if not highs_i or not lows_i:
        raise LemmaViolation(
            f"violator {i} must hold both payment values, has "
            f"{highs_i.bit_count()} high and {lows_i.bit_count()} low")
    e_i = (highs_i & -highs_i).bit_length() - 1

    mixed_before = _mixed_top_count(view, view.earn_units, z)
    lows_j = bundle_j & ~view.high
    view.move(e_i, i, j)
    if lows_j:
        e_j = (lows_j & -lows_j).bit_length() - 1
        view.move(e_j, j, i)
        kind, items = "swap", (e_i, e_j)
    else:
        kind, items = "move", (e_i,)
    after = _assert_round(view, z, i, j, kind, mixed_before)
    return [view.record("efx_k2", round_no, kind, (i, j), items, after)]


def _assert_round(view: MarketView, z: int, i: int, j: int, kind: str,
                  mixed_before: int) -> list[int]:
    """Check the trade from the view's masks alone; return the earnings."""
    earn = view.check_round("trade", (i, j))
    if kind == "swap":
        want_i, want_j = z + 1, z + 1
    else:
        want_i, want_j = z, z + 2
    if earn[i] != want_i or earn[j] != want_j:
        raise TierViolation(
            f"trade left earnings ({earn[i]}, {earn[j]}), expected "
            f"({want_i}, {want_j})")
    for a, bundle in enumerate(view.bundles):
        if not z <= earn[a] <= z + 2:
            raise TierViolation(
                f"agent {a} earns {earn[a]} outside [{z}, {z + 2}]")
        if earn[a] == z + 2 and not bundle & view.high:
            raise TierViolation(
                f"top-tier agent {a} holds no payment-2 chore, breaking pEF1")
    mixed_after = _mixed_top_count(view, earn, z)
    if mixed_after != mixed_before - 1:
        raise LemmaViolation(
            f"mixed top-tier count went {mixed_before} -> {mixed_after}, "
            "expected a drop of exactly one")
    return earn


def k2_from_equilibrium(market: MarketState) -> StageResult:
    """Trades on the pEF1 market until exact EFX holds; k must be 2."""
    if market.instance.k != 2:
        raise PreconditionViolated(
            f"exact EFX stage needs k = 2, got {market.instance.k}")
    return reallocate(market, efx_violation, k2_round, "trade",
                      market.instance.n)


def run_efx_k2(instance: Instance) -> StageResult:
    """Full pipeline for {1,2} costs: pEF1 equilibrium, then trades to EFX.

    The result is stated in the reindexed agent frame of the pEF1 stage;
    result.pef1.groups.new_to_old maps back to the caller's labels.
    """
    state = run_pef1(instance)
    return k2_from_equilibrium(state.market)._replace(pef1=state)
