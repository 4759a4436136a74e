"""Exhaustive ground truth on small instances.

Everything here is definitional: Pareto optimality means no allocation
dominates, and the EFX searches score the Pareto-optimal owner vectors,
in lexicographic order, with the verifier's envy-factor scan
(verify.kernel_beta_EFX).  Both read one frontier of the minimal partial
cost profiles, chore by chore (a dominated partial only completes to
dominated profiles); bounded by an allocation's profile, it ends at that
profile alone iff the allocation is Pareto optimal.  The searches walk it
through live partials only, moving one envy kernel along, and enter only
the lexicographically first relabeling of agents with identical cost rows.

All entry points raise BudgetExceeded when n^m reaches the allocation
budget, before any work is done.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from .errors import BudgetExceeded
from .model import Allocation, EnvyKernel, Instance
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
    per depth e, the minimal partial profiles of chores 0..e-1, sorted,
    and, given an owner vector, at most its own profile in every field.

    Agent o's total sits in bits o*w .. o*w + w - 2, under a guard bit.
    Componentwise q <= p with q != p implies q < p as ints, so once sorted
    every dominator of p precedes it; q <= p iff (p | guards) - q keeps
    every guard.  Kept profiles are packed one n*w-bit slot each, and one
    multiply and subtract forms that difference in every slot: no borrow
    crosses a field, as each field of p | guards tops the kept ones.  With
    its bits under the guards filled, a slot is all ones iff its q
    dominates p, and adding 1 at its base then carries into the slot
    above.  Bit 0 of a slot is a fill bit, even at n = 1 (m*k >= 2 leaves
    two bits under each guard), so the filled slot above adds 1 + 1 +
    carry there: that bit becomes the carry, and its own carry out is
    unchanged, as an odd value below all ones stays below after adding 2.
    """
    n, m, lows = instance.n, instance.m, instance.low_masks
    one, k = instance.unit, instance.high_units  # the two costs, in units
    w = (m * k).bit_length() + 1
    slot = n * w
    guard = sum(1 << (o * w + w - 1) for o in range(n))
    fill = (1 << slot) - 1 ^ guard
    steps = [[(one if lows[o] >> e & 1 else k) << (o * w) for o in range(n)]
             for e in range(m)]
    if owner is not None:  # p is kept only if cap - p keeps every guard
        cap = guard | sum(steps[e][o] for e, o in enumerate(owner))
    layers = [[0]]
    for step in steps:
        sums = {q + s for q in layers[-1] for s in step}
        kept: list[int] = []
        # per kept slot: its profile, its base bit, fill bits, next base bit
        packed = ones = fills = carries = 0
        for p in sorted(sums if owner is None else
                        {p for p in sums if (cap - p) & guard == guard}):
            d = (p | guard) * ones - packed
            if not ((d | fills) + ones) & carries:
                shift = len(kept) * slot
                packed |= p << shift
                ones |= 1 << shift
                fills |= fill << shift
                carries |= 1 << (shift + slot)
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


def _po_owners(instance: Instance
               ) -> Iterator[tuple[tuple[int, ...], EnvyKernel]]:
    """Every Pareto-optimal owner vector in lexicographic order, one per
    orbit of relabelings of agents with identical cost rows: the first,
    in which such agents first appear in index order.  A partial profile
    is live when it completes to a Pareto-minimal profile.  Each vector
    comes with its envy kernel: the walk's one kernel, given each chore
    on the way down and taken it back on the way up."""
    steps, layers = _frontier(instance)
    live = [set(layers[-1])]
    for step, layer in zip(steps[::-1], layers[-2::-1]):
        live.insert(0, {p - s for p in live[0] for s in step} & set(layer))
    # agent o may first appear only after the last agent before it with
    # the same cost row: need[o] is that agent's bit, or 0
    need, last = [], {}
    for o, low in enumerate(instance.low_masks):
        need.append(1 << last[low] if low in last else 0)
        last[low] = o
    m, owner = instance.m, [0] * instance.m
    kernel = EnvyKernel(instance, [0] * instance.n)

    def walk(e: int, profile: int, used: int
             ) -> Iterator[tuple[tuple[int, ...], EnvyKernel]]:
        if e == m:
            yield tuple(owner), kernel
            return
        ahead = live[e + 1]
        for o, s in enumerate(steps[e]):
            if profile + s in ahead and used & need[o] == need[o]:
                owner[e] = o
                kernel.give(e, o)
                yield from walk(e + 1, profile + s, used | 1 << o)
                kernel.take(e, o)

    return walk(0, 0, 0)


def exists_efx_po(instance: Instance, *,
                  budget: int = DEFAULT_BUDGET) -> Allocation | None:
    """The lexicographically first allocation that is exactly EFX (envy
    factor 1) and Pareto optimal, or None when there is none."""
    value, witness = best_efx_beta_over_po(instance, budget=budget)
    return witness if value == 1 else None


def best_efx_beta_over_po(instance: Instance, *,
                          budget: int = DEFAULT_BUDGET
                          ) -> tuple[Fraction | Unbounded, Allocation]:
    """Minimum envy factor achievable by any Pareto-optimal allocation,
    with the lexicographically first witness attaining it, each owner
    vector scored by the verifier's own scan on the walk's kernel.
    Relabelings of identical agents, which the walk skips, keep both
    Pareto optimality and the factor, and each orbit's lexicographically
    first member is the one walked, so skipping them changes no answer.
    """
    _check_budget(instance, budget)
    best: Fraction | Unbounded | None = None
    witness: tuple[int, ...] | None = None
    for owner, kernel in _po_owners(instance):
        beta = kernel_beta_EFX(kernel).value
        if best is None or not beta_le(best, beta):
            best, witness = beta, owner
            if best == 1:
                break
    assert witness is not None and best is not None
    return best, Allocation(witness)
