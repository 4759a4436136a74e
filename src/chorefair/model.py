"""Core domain types: instances, allocations and the market state.

All arithmetic is exact.  Public values are `fractions.Fraction`; internally
every quantity is an integer count of 1/q units, where k = p/q in lowest
terms.  Costs and payments only ever take the values 1 and k, so an
instance is stored as one cost-1 mask per agent, a payment vector is one
bit per chore (the payment-k mask) and every comparison is an integer
comparison.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import compress, count
from operator import ne
from typing import Iterable, Sequence

from .errors import (AlreadyUniform, ChorefairError, InternalInvariant,
                     LemmaViolation, MPBViolation, NotBiValued, ZeroCost)
from .trace import TraceEvent

ONE = Fraction(1)


def as_rational(value) -> Fraction:
    """Coerce ints / strings like '3/2' / Fractions to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a Fraction, int or 'p/q' string")
    return Fraction(value)


class CheckedRecord(tuple):
    """Mixin for a namedtuple class that checks or derives its fields in
    __new__.  Every copy (_replace, _make, copy.copy, pickle) is built by
    _make, which calls the class with the fields by name, so no copy skips
    the checks.  A record equals only records of its own class.
    """
    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(**dict(zip(cls._fields, fields)))

    def __reduce__(self):
        return type(self)._make, (tuple(self),)

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class RawInstance(CheckedRecord, namedtuple("RawInstance", "n m costs")):
    """A cost matrix as supplied by the user, prior to normalization.

    costs[i][e] is agent i's cost for chore e.  Shape must match (n, m);
    positivity and the bi-valued property are checked by normalize_instance.
    """
    __slots__ = ()

    def __new__(cls, n: int, m: int, costs: tuple[tuple[Fraction, ...], ...]):
        if n < 1 or m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={n} m={m}")
        if len(costs) != n or any(len(r) != m for r in costs):
            raise ValueError("cost matrix shape does not match (n, m)")
        return super().__new__(cls, n, m, costs)


def raw_instance(costs: Sequence[Sequence]) -> RawInstance:
    """Build a RawInstance from nested lists of ints/Fractions/'p/q' strings."""
    rows = tuple(tuple(as_rational(c) for c in row) for row in costs)
    return RawInstance(n=len(rows), m=len(rows[0]) if rows else 0, costs=rows)


# a high flag (byte 1) is binary digit 0 of the cost-1 mask, a low flag 1
_LOW_DIGITS = bytes.maketrans(b"\x00\x01", b"10")


class Instance(CheckedRecord, namedtuple("Instance", "n m k low_masks")):
    """Normalized bi-valued instance: every cost is 1 or k, with k > 1.

    The instance is its cost-1 masks: bit e of low_masks[i] is set iff
    agent i's cost for chore e is 1, and clear iff it is k.  Every mask is
    nonzero (each agent has some cost-1 chore) and below 2^m.  Build it
    from the masks with Instance(n, m, k, low_masks=...), or from an n x m
    matrix of high flags (True where the cost is k) with
    Instance(n, m, k, high).
    """
    __slots__ = ()

    def __new__(cls, n: int, m: int, k: Fraction,
                high: Sequence[Sequence[bool]] | None = None, *,
                low_masks: Sequence[int] = ()):
        if n < 1 or m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={n} m={m}")
        if k <= 1:
            raise ValueError(f"k must exceed 1, got {k}")
        if high is not None:
            if len(high) != n or any(len(r) != m for r in high):
                raise ValueError("high matrix shape does not match (n, m)")
            low_masks = [int(bytes(row[::-1]).translate(_LOW_DIGITS), 2)
                         for row in high]
        if len(low_masks) != n or any(low >> m for low in low_masks):
            raise ValueError("cost-1 masks do not match (n, m)")
        for i, low in enumerate(low_masks):
            if not low:
                raise ValueError(f"agent {i} has no cost-1 chore; instances require one per row")
        return super().__new__(cls, n, m, k, tuple(low_masks))

    def cost(self, agent: int, item: int) -> Fraction:
        return ONE if self.low_masks[agent] >> item & 1 else self.k

    # unit view: one unit is 1/q where k = p/q, so cost 1 <-> q units, k <-> p units
    @property
    def unit(self) -> int:
        return self.k.denominator

    @property
    def high_units(self) -> int:
        return self.k.numerator


def normalize_rows(n: int, m: int, rows: Iterable) -> Instance:
    """The normalized instance of n raw rows of m entries, one mask each.

    Each row comes as (cells, value_of): cells are the row's keys in chore
    order, either a list (of spellings, or of object ids, any number of
    them distinct) or a str of one key character per chore, and value_of
    maps each distinct key to its value as an integer pair (numerator,
    denominator) in lowest terms with a positive denominator, so equal
    values are equal pairs.  A row's two values are ordered, and the row
    ratios compared, by cross-multiplication; k is the one Fraction built,
    and the row's cost-1 mask is one map over a list of cells or one
    translate of a str.  Only a faulty row builds Fractions, in
    first-seen order, for its message.  The first ZeroCost or NotBiValued
    is raised only after the last row is drawn, so an error that drawing a
    row raises comes first.
    """
    ratio, masks, fault = None, [], None
    for i, (cells, value_of) in enumerate(rows):
        if fault is not None:
            continue
        values = set(value_of.values())
        # the least pair has the least numerator, nonpositive if any is
        if len(values) > 2 or min(values)[0] <= 0:
            fault = _row_fault(i, [Fraction(*value_of[key])
                                   for key in dict.fromkeys(cells)])
            continue
        low = values.pop()
        if values:  # a uniform row is all cost 1
            high = values.pop()
            if high[0] * low[1] < low[0] * high[1]:
                low, high = high, low
            row_ratio = high[0] * low[1], high[1] * low[0]
            if ratio is not None and \
                    row_ratio[0] * ratio[1] != ratio[0] * row_ratio[1]:
                fault = NotBiValued(
                    f"rows disagree on the cost ratio: {Fraction(*ratio)} "
                    f"vs {Fraction(*row_ratio)}")
                continue
            ratio = row_ratio
        digit = {key: "1" if value == low else "0"
                 for key, value in value_of.items()}
        if isinstance(cells, str):  # one key character per chore
            masks.append(int(cells[::-1].translate(str.maketrans(digit)), 2))
        else:
            masks.append(
                int("".join(map(digit.__getitem__, reversed(cells))), 2))
    if fault is not None:
        raise fault
    if ratio is None:
        raise AlreadyUniform("every row is uniform; ratio k would be 1")
    return Instance(n, m, Fraction(*ratio), low_masks=tuple(masks))


def _row_fault(i: int, values: list[Fraction]) -> ChorefairError:
    """The ZeroCost or NotBiValued of agent i's row, from its values in
    first-seen order: a nonpositive value, else a third one."""
    values = list(dict.fromkeys(values))
    bad = next((c for c in values if c <= 0), None)
    if bad is not None:
        return ZeroCost(f"cost {bad} is not strictly positive")
    low = min(values)
    scaled = sorted({c / low for c in values})
    return NotBiValued(
        f"agent {i} has {len(scaled)} distinct scaled costs: {scaled}")


def normalize_instance(raw: RawInstance) -> Instance:
    """Rescale each agent's row by its own minimum and classify entries.

    Raises ZeroCost for nonpositive entries, NotBiValued if more than two
    distinct values occur, AlreadyUniform if only one does (k would be 1).
    Row scaling keeps the result invariant under per-agent rescaling of the
    input, and normalizing an already normalized matrix is the identity.
    Entries are keyed by object: a generated row shares one object per
    value, so it classifies a few objects.  Rows read from a file are
    normalized as they are parsed, by normalize_rows, not here.
    """
    def keyed(row):
        cells = list(map(id, row))
        distinct = dict(zip(cells, row))  # one entry per object
        return cells, {key: (c.numerator, c.denominator) for key, c in
                       zip(distinct, map(as_rational, distinct.values()))}
    return normalize_rows(raw.n, raw.m, map(keyed, raw.costs))


def relabel_agents(instance: Instance, new_to_old: Sequence[int]) -> Instance:
    """The instance whose agent r is agent new_to_old[r] of the given one:
    its cost-1 masks, permuted."""
    return Instance(instance.n, instance.m, instance.k, low_masks=tuple(
        instance.low_masks[old] for old in new_to_old))


class Allocation(namedtuple("Allocation", "owner")):
    """Total assignment of chores to agents: owner[e] is the agent holding e."""
    __slots__ = ()


class _MarketMasks:
    """What a market's masks determine, written once for MarketState and
    MarketView.  Both provide bundles (one chore bitmask per agent), high
    (the bitmask of chores paying k), low_cost (the instance's cost-1 masks
    L_i) and the two payments in 1/q units, pay_low = q and pay_high = p.

    Agent i is raised, at pain-per-buck ratio 1/k, iff some cost-1 chore
    pays k; its MPB set is then L_i & high, and otherwise the chores whose
    cost equals their payment, L_i ^ high, at ratio 1.
    """

    def raised(self, i: int) -> bool:
        return bool(self.low_cost[i] & self.high)

    def mpb(self, i: int) -> int:
        low = self.low_cost[i]
        return low & self.high or low ^ self.high

    def earning(self, i: int) -> int:
        """Total payment of i's bundle, by popcount."""
        bundle = self.bundles[i]
        return (self.pay_low * bundle.bit_count()
                + (self.pay_high - self.pay_low) * (bundle & self.high).bit_count())

    def top_pay(self, i: int) -> int:
        """The largest payment in i's bundle; 0 if it is empty."""
        bundle = self.bundles[i]
        if not bundle:
            return 0
        return self.pay_high if bundle & self.high else self.pay_low

    def hats(self, earn: Sequence[int]) -> list[int]:
        """Each agent's earning earn[i] minus its largest payment (top_pay)."""
        high, low, top = self.high, self.pay_low, self.pay_high
        return [e - (top if b & high else low) if b else e
                for e, b in zip(earn, self.bundles)]


class MarketState(_MarketMasks, CheckedRecord, namedtuple(
        "MarketState", "instance bundles high")):
    """A frozen market: one chore bitmask per agent and the payment-k mask
    high.  Ratios, MPB sets and hats come from _MarketMasks; the earnings
    and the envy kernel are derived from the masks on first use.
    """

    @cached_property
    def earn_units(self) -> tuple[int, ...]:
        """Each agent's earning in 1/q units (_MarketMasks.earning)."""
        q, p, high = self.pay_low, self.pay_high, self.high
        return tuple(q * b.bit_count() + (p - q) * (b & high).bit_count()
                     for b in self.bundles)

    @cached_property
    def kernel(self) -> EnvyKernel:
        """The EnvyKernel of the masks, built once: they never change."""
        return EnvyKernel(self.instance, self.bundles)

    @property
    def allocation(self) -> Allocation:
        """The owner vector the bundles spell, for reports and the oracle."""
        owner = [0] * self.instance.m
        for i, bundle in enumerate(self.bundles):
            for e in bits(bundle):
                owner[e] = i
        return Allocation(tuple(owner))

    @property
    def low_cost(self) -> tuple[int, ...]:
        return self.instance.low_masks

    @property
    def pay_low(self) -> int:
        return self.instance.unit

    @property
    def pay_high(self) -> int:
        return self.instance.high_units


def _partition_fault(bundles: Sequence[int], m: int) -> str | None:
    """Why the masks fail to partition chores 0..m-1; None when they do."""
    covered = held = 0
    for bundle in bundles:
        if bundle >> m:  # a negative mask shifts to -1
            return f"a bundle mask has a bit outside chores 0..{m - 1}"
        covered |= bundle
        held += bundle.bit_count()
    if held != covered.bit_count():
        return "two bundles share a chore"
    if covered != (1 << m) - 1:
        return "some chore is in no bundle"
    return None


def build_market_state(instance: Instance, bundles: Sequence[int],
                       high: int) -> MarketState:
    """Validate that the n bundle masks partition the m chores and that the
    payment-k mask lies inside them, then build the state."""
    n, m = instance.n, instance.m
    bundles = tuple(bundles)
    if len(bundles) != n:
        raise ValueError(f"expected {n} bundle masks, got {len(bundles)}")
    fault = _partition_fault(bundles, m)
    if fault:
        raise ValueError(fault)
    if high >> m:
        raise ValueError(f"payment mask has a bit at or above m={m}")
    return MarketState(instance, bundles, high)


def bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bundle_masks(owner: Sequence[int], n: int) -> list[int]:
    """Per agent, the bitmask of the chores it owns."""
    masks = [0] * n
    for e, o in enumerate(owner):
        masks[o] |= 1 << e
    return masks


class EnvyKernel:
    """Every bundle's cost in every agent's eyes, by popcount.

    With L_i agent i's cost-1 mask and X_j a bundle mask, in 1/q units
    cost[i][j] = c_i(X_j) = p*|X_j| - (p - q)*|X_j & L_i|.  Agent i's
    cheapest own chore costs q when X_i meets L_i, p otherwise and 0 for an
    empty bundle.  The kernel keeps its own copy of the bundle masks.

    give and take move one chore into or out of one bundle in place,
    updating that bundle's column and cheapest chore, so a search that
    moves chores one at a time keeps one kernel in step.  They mutate the
    kernel, so never call them on a kernel that others read: not on a
    MarketState's cached kernel, whose masks never change, nor on a
    MarketView's.
    """

    def __init__(self, instance: Instance, bundles: Sequence[int]):
        p, q = instance.high_units, instance.unit
        low_masks = instance.low_masks
        self.low_masks, self.units = low_masks, (q, p)
        self.bundles = list(bundles)
        sizes = [p * b.bit_count() for b in bundles]
        self.cost = [[s - (p - q) * (b & low).bit_count()
                      for b, s in zip(bundles, sizes)] for low in low_masks]
        self.cheapest = [(q if b & low else p) if b else 0
                         for b, low in zip(bundles, low_masks)]

    def residual(self, i: int) -> int:
        """c_i(X_i) less i's cheapest own chore, the EFX comparison's left side."""
        return self.cost[i][i] - self.cheapest[i]

    def give(self, e: int, o: int) -> None:
        """Add chore e, which no bundle holds, to agent o's bundle."""
        q, p = self.units
        for row, low in zip(self.cost, self.low_masks):
            row[o] += q if low >> e & 1 else p
        bundle = self.bundles[o] = self.bundles[o] | 1 << e
        self.cheapest[o] = q if bundle & self.low_masks[o] else p

    def take(self, e: int, o: int) -> None:
        """Remove chore e, which agent o's bundle holds, from it."""
        q, p = self.units
        for row, low in zip(self.cost, self.low_masks):
            row[o] -= q if low >> e & 1 else p
        bundle = self.bundles[o] = self.bundles[o] ^ 1 << e
        self.cheapest[o] = (q if bundle & self.low_masks[o] else p) \
            if bundle else 0


class MarketView(_MarketMasks):
    """Mutable bitmask view of a market, for loops that move chores or
    raise payments many times before anyone needs a MarketState.

    The view maintains bundles[i] and high, from which everything else
    derives as in _MarketMasks.  earn_units holds each agent's earning as
    of the loop's last checked step; it changes only through record (and,
    on the chain resolution's view, _ChainView.set_earn).  The bundles
    change only through move, which drops the kernel built on them.

    check_round keeps the masks its last passing check saw: a copy of the
    bundles, high, and the earnings it derived from them.  That makes it
    as strong as a recheck of every agent.  Agent i's MPB test and earning
    are pure functions of bundles[i], high and the instance's fixed L_i
    and payments, and the masks are compared with the copy by value, so
    wherever they are equal the copy holds what a recheck would derive
    again.  Which agents a caller says it touched plays no part in this.
    """

    def __init__(self, state: MarketState):
        inst = state.instance
        self.instance = inst
        self.n = inst.n
        self.bundles = list(state.bundles)
        self.high = state.high
        self.earn_units = list(state.earn_units)
        self.low_cost = inst.low_masks
        self.pay_low, self.pay_high = inst.unit, inst.high_units
        self._kernel: EnvyKernel | None = None
        # (bundles, high, earnings) of the last passing check_round
        self._checked: tuple[list[int], int, list[int]] | None = None

    def check_round(self, noun: str, touched) -> list[int]:
        """The checks each step of a stage makes from the masks alone, in
        order: the bundles partition the chores, every bundle lies inside
        its MPB set, and every agent outside touched still earns what
        earn_units holds.  noun names the step in the messages.  Returns the
        earnings recomputed by popcount; earn_units is left as it was.

        The partition is checked over the whole market on the view's first
        check, and afterwards over the agents whose bundle mask differs
        from the last passing check's; a failure is named by the whole
        scan.  The MPB test and the earning are rederived for those agents,
        and for every agent when high differs or on the view's first
        check; the other agents keep the verdict and earning of the same
        masks (see the class docstring).
        The whole earnings list is then compared with earn_units, so the
        errors and their order are those of a recheck of every agent.
        """
        bundles, high, m = self.bundles, self.high, self.instance.m
        checked = self._checked
        if checked is None:
            changed = range(self.n)
            intact = _partition_fault(bundles, m) is None
        else:
            # the snapshot's bundles partition the chores, so these do iff
            # the changed ones are pairwise disjoint and together hold what
            # they held there (a bit >= m or a negative mask breaks that)
            old = checked[0]
            changed = list(compress(count(), map(ne, bundles, old)))
            held = was = size = 0
            for i in changed:
                held |= bundles[i]
                was |= old[i]
                size += bundles[i].bit_count()
            intact = held == was and size == held.bit_count()
        if not intact:
            raise InternalInvariant(_partition_fault(bundles, m))
        if checked is None or checked[1] != high:
            earn = [0] * self.n
            changed = range(self.n)
        else:
            earn = checked[2][:]
        for i in changed:
            if bundles[i] & ~self.mpb(i):
                raise MPBViolation(f"{noun} broke the equilibrium at agent {i}")
            earn[i] = self.earning(i)
        if earn != self.earn_units:
            for i, (now, before) in enumerate(zip(earn, self.earn_units)):
                if now != before and i not in touched:
                    raise LemmaViolation(f"earning of uninvolved agent {i} "
                                         f"changed during the {noun}")
        self._checked = (bundles[:], high, earn[:])
        return earn

    @property
    def kernel(self) -> EnvyKernel:
        # a plain attribute, not a cached_property: that would write to the
        # instance __dict__, which slows every attribute read of the view
        if self._kernel is None:
            self._kernel = EnvyKernel(self.instance, self.bundles)
        return self._kernel

    def move(self, e: int, u: int, v: int) -> None:
        if not self.mpb(v) >> e & 1:
            raise MPBViolation(f"chore {e} is not ratio-minimal for agent {v}")
        bit = 1 << e
        self.bundles[u] ^= bit
        self.bundles[v] |= bit
        self._kernel = None

    def record(self, stage: str, round_no: int, kind: str, agents, items,
               after: list[int], least: int | None = None) -> TraceEvent:
        """The event of a checked round: the agents' earnings before it
        from earn_units, after it from after, which earn_units becomes."""
        before, self.earn_units = self.earn_units, after
        return TraceEvent(
            stage=stage, round=round_no, kind=kind, agents=agents,
            items=items, earn_before=tuple(before[a] for a in agents),
            earn_after=tuple(after[a] for a in agents), least_earning=least)

    def market(self) -> MarketState:
        return build_market_state(self.instance, self.bundles, self.high)
