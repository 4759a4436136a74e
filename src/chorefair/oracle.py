"""Exhaustive ground truth on small instances.

Everything here is definitional: Pareto optimality means no allocation
dominates, and the EFX searches scan the Pareto-optimal owner vectors in
lexicographic order and score each with the verifier's envy-factor scan
(verify.kernel_beta_EFX) on its envy kernel.  Both questions read one
frontier: going forward over the chores, only the minimal partial cost
profiles are kept, which is exact because a dominated partial profile only
completes to dominated profiles.  Bounded by an allocation's profile, the
pass ends at that profile alone iff the allocation is Pareto optimal.  The
searches also go backward, keeping partials with a step into the next kept
layer, so their walk never enters a dead branch.  The walk also never
enters a relabeling of agents with identical cost rows: such an agent
takes a chore only once the agent before it in index order has one, so
each orbit yields its lexicographically first member alone (relabeling
such agents preserves both dominance and envy structure).

All entry points raise BudgetExceeded when n^m reaches the allocation
budget, before any work is done.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from .errors import BudgetExceeded
from .model import Allocation, EnvyKernel, Instance, bundle_masks
from .verify import Unbounded, beta_le, kernel_beta_EFX

DEFAULT_BUDGET = 1 << 24


def _check_budget(instance: Instance, budget: int) -> None:
    total = instance.n ** instance.m
    if total >= budget:
        raise BudgetExceeded(
            f"{instance.n}^{instance.m} = {total} allocations reach the "
            f"budget of {budget}")


def _frontier(instance: Instance, owner: Sequence[int] | None = None
              ) -> tuple[list[list[int]], list[list[int]]]:
    """Per chore, each owner's packed cost step, read from its cost-1 mask;
    per depth e, the minimal partial profiles of chores 0..e-1, sorted.
    Given an owner vector, only profiles at most its own in every agent's
    total are kept.

    Agent o's total sits in bits o*w .. o*w + w - 2, under a guard bit.
    Componentwise q <= p with q != p implies q < p as ints, so once sorted
    every dominator of p precedes it; q <= p iff (p | guards) - q keeps
    every guard.  A layer's kept profiles are packed side by side, one
    n*w-bit slot each, so one multiply and subtract tests p against all
    of them: no borrow crosses a field, since each field of p | guards is
    at least 2^(w-1) and every kept field is below it.
    """
    n, m, lows = instance.n, instance.m, instance.low_masks
    one, k = instance.unit, instance.high_units  # the two costs, in units
    w = (m * k).bit_length() + 1
    slot = n * w
    guard = sum(1 << (o * w + w - 1) for o in range(n))
    steps = [[(one if lows[o] >> e & 1 else k) << (o * w) for o in range(n)]
             for e in range(m)]
    # p is kept only if (cap - p) keeps every guard; all ones bound nothing
    cap = (1 << slot) - 1 if owner is None else \
        guard | sum(steps[e][o] for e, o in enumerate(owner))
    layers = [[0]]
    for step in steps:
        kept: list[int] = []
        packed = ones = 0  # kept profiles, and a 1 at the base of each slot
        for p in sorted({q + s for q in layers[-1] for s in step
                         if (cap - q - s) & guard == guard}):
            d = (p | guard) * ones - packed
            # bit w - 1 of each slot of survived ANDs that slot's n guards
            survived = d
            for o in range(1, n):
                survived &= d >> (o * w)
            if not survived & ones << (w - 1):
                shift = len(kept) * slot
                packed |= p << shift
                ones |= 1 << shift
                kept.append(p)
        layers.append(kept)
    return steps, layers


def is_pareto_optimal(instance: Instance, allocation: Allocation, *,
                      budget: int = DEFAULT_BUDGET) -> bool:
    """No allocation dominates: the frontier bounded by the allocation's
    own profile ends at that profile alone."""
    _check_budget(instance, budget)
    owner = allocation.owner
    steps, layers = _frontier(instance, owner)
    return layers[-1] == [sum(steps[e][o] for e, o in enumerate(owner))]


def _po_owners(instance: Instance) -> Iterator[tuple[int, ...]]:
    """Every Pareto-optimal owner vector in lexicographic order, one per
    orbit of relabelings of agents with identical cost rows: the first,
    in which such agents first appear in index order.  A partial profile
    is live when it completes to a Pareto-minimal profile."""
    steps, layers = _frontier(instance)
    live = [set(layers[-1])]
    for step, layer in zip(steps[::-1], layers[-2::-1]):
        live.insert(0, {p for p in layer
                        if any(p + s in live[0] for s in step)})
    # agent o may first appear only after the last agent before it with
    # the same cost row: need[o] is that agent's bit, or 0
    need, last = [], {}
    for o, low in enumerate(instance.low_masks):
        need.append(1 << last[low] if low in last else 0)
        last[low] = o
    m = instance.m
    owner = [0] * m

    def walk(e: int, profile: int, used: int) -> Iterator[tuple[int, ...]]:
        if e == m:
            yield tuple(owner)
            return
        ahead = live[e + 1]
        for o, s in enumerate(steps[e]):
            if profile + s in ahead and used & need[o] == need[o]:
                owner[e] = o
                yield from walk(e + 1, profile + s, used | 1 << o)

    return walk(0, 0, 0)


def exists_efx_po(instance: Instance, *,
                  budget: int = DEFAULT_BUDGET) -> Allocation | None:
    """Lexicographically first allocation that is exactly EFX and Pareto
    optimal, or None when no allocation satisfies both: exact EFX is an
    envy factor of 1, so this is the best-factor witness at factor 1.
    """
    value, witness = best_efx_beta_over_po(instance, budget=budget)
    return witness if value == 1 else None


def best_efx_beta_over_po(instance: Instance, *,
                          budget: int = DEFAULT_BUDGET
                          ) -> tuple[Fraction | Unbounded, Allocation]:
    """Minimum envy factor achievable by any Pareto-optimal allocation,
    with the lexicographically first witness attaining it.  Each owner
    vector is scored by the verifier's own scan on its envy kernel.
    Relabelings of identical agents, which the walk skips, keep both
    Pareto optimality and the factor, and each orbit's lexicographically
    first member is the one walked, so skipping them changes no answer.
    """
    _check_budget(instance, budget)
    n = instance.n
    best: Fraction | Unbounded | None = None
    witness: tuple[int, ...] | None = None
    for owner in _po_owners(instance):
        kernel = EnvyKernel(instance, bundle_masks(owner, n))
        beta = kernel_beta_EFX(kernel).value
        if best is None or not beta_le(best, beta):
            best, witness = beta, owner
            if best == 1:
                break
    assert witness is not None and best is not None
    return best, Allocation(witness)
