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
The stage runs on one bitmask MarketView: chores move through its
MPB-checked move, envy is read off the popcount EnvyKernel, and a
MarketState is built once, at the end.
"""
from __future__ import annotations

from .errors import (IterationCapExceeded, LemmaViolation, MPBViolation,
                     PreconditionViolated, TierViolation)
from .model import Instance, MarketState, MarketView
from .pef1 import StageResult, run_pef1
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
        for j, c in enumerate(row):
            if j != i and residual > c:
                return i, j
    return None


def _mixed_top_count(view: MarketView, earn: list[int], z: int) -> int:
    return sum(1 for b, units in zip(view.bundles, earn)
               if units == z + 2 and b & view.high and b & ~view.high)


def k2_round(view: MarketView, round_no: int) -> TraceEvent | None:
    """One trade on the view; None when the allocation is exactly EFX.
    The view's earn_units is updated."""
    found = efx_violation(view)
    if found is None:
        return None
    i, j = found
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
    before = view.earn_units
    event = TraceEvent(
        stage="efx_k2", round=round_no, kind=kind, agents=(i, j), items=items,
        earn_before=(before[i], before[j]), earn_after=(after[i], after[j]))
    view.earn_units = after
    return event


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
    if market.instance.k != 2:
        raise PreconditionViolated(
            f"exact EFX stage needs k = 2, got {market.instance.k}")
    view = MarketView(market)
    trace: list[TraceEvent] = []
    cap = market.instance.n + 1
    while (event := k2_round(view, len(trace) + 1)) is not None:
        trace.append(event)
        if len(trace) > cap:
            raise IterationCapExceeded(f"trade stage exceeded {cap} rounds")
    return StageResult(view.market() if trace else market, tuple(trace))


def run_efx_k2(instance: Instance) -> StageResult:
    """Full pipeline for {1,2} costs: pEF1 equilibrium, then trades to EFX.

    The result is stated in the reindexed agent frame of the pEF1 stage;
    result.pef1.groups.new_to_old maps back to the caller's labels.
    """
    state = run_pef1(instance)
    return k2_from_equilibrium(state.market)._replace(pef1=state)
