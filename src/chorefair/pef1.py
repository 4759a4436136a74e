"""Payment-raising solver: reaches a pEF1 equilibrium for any bi-valued instance.

Each round compares the big earner b (largest earning after dropping one
chore) against the least earner l.  If b still out-earns l after the drop,
either one chore moves from b to l directly (raising the payments of b's
whole group first, the one time that group crosses from unraised to raised),
or, when l is already raised, a three-agent rotation routes a chore through
an unraised intermediary that still holds part of l's entry bundle.

Agents are relabeled once, before the loop, so that the group order produced
by the partition coincides with index order; all tie-breaks favor smaller
indices, which makes raised agents win ties against unraised ones.

The rounds run on reallocate, the one loop every stage of the pipeline
shares: _Rounds.find names the pair and _Rounds.trade plays the round on
one bitmask MarketView, and a MarketState is built once, for the result
(neither is built when no round runs).  Every round is checked from the
masks alone: the partition, each bundle inside its MPB set, the earnings
of uninvolved agents, each agent's ratio against the unraised set, the
raised groups as a prefix of the group order, and pEF1 inside each group.
A check rederives only what its inputs changed since the last passing
check, found by comparing the masks (and the unraised set) by value, so
it is as strong as a recheck of the whole market; a transfer round
rederives two agents, and the ratios and group order are rechecked only
after a raise.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import (IterationCapExceeded, LemmaViolation,
                     MissingIntermediary, MPBViolation, RaiseOverflow)
from .market_init import (AgentGroups, build_initial_state,
                          partition_agent_groups, resolve_overpaid_paths)
from .model import (Instance, MarketState, MarketView, bits,
                    build_market_state, relabel_agents)
from .trace import TraceEvent


class SolverState(namedtuple(
        "SolverState", "market unraised groups entry round_count trace")):
    """The payment stage's result: the final market, which agents are still
    unraised, the fixed group structure, the entry market (the one before
    the first round, whose bundles the rotation branch consults), the
    number of rounds and their trace.
    """
    __slots__ = ()


class StageResult(namedtuple("StageResult", "market trace pef1",
                             defaults=(None,))):
    """The market after a stage of rounds, with the stage's trace in round
    order (one event per round, or a raise and then its transfer); pef1 is
    the pEF1 state a reallocation stage started from, which run_approx_efx
    and run_efx_k2 attach."""
    __slots__ = ()


def reallocate(market: MarketState, find, trade, noun: str,
               cap: int) -> StageResult:
    """A stage of rounds on a market: the payment rounds, or a reallocation
    stage on a pEF1 market under fixed payments.

    While find names a pair (i, j), trade(view, round_no, i, j) changes one
    bitmask MarketView through its MPB-checked moves (and, for a payment
    round, a raise), checks the round and returns its events; the EFX
    stages read envy off the view's popcount EnvyKernel.  A MarketState is
    built once, at the end.  When find names no pair on the input market,
    the result holds that same object and no view is built.  Past cap
    rounds, the noun's stage fails.
    """
    found = find(market)
    if found is None:
        return StageResult(market, ())
    view = MarketView(market)
    trace: list[TraceEvent] = []
    round_no = 0
    while found is not None:
        round_no += 1
        trace += trade(view, round_no, *found)
        if round_no > cap:
            raise IterationCapExceeded(f"{noun} stage exceeded {cap} rounds")
        found = find(view)
    return StageResult(view.market(), tuple(trace))


class _Rounds:
    """The payment rounds' find and trade, and the state they carry from
    round to round: the unraised set, the hats and least earning of the
    last checked round, and the (high, unraised) whose ratios last passed.
    Trace earnings are the view's 1/q units.
    """

    def __init__(self, market: MarketState, groups: AgentGroups):
        self.entry = market
        self.groups = groups.groups
        self.unraised = frozenset(range(market.instance.n))
        # groups of two or more agents, as ascending member lists
        self.shared = [sorted(g) for g in self.groups if len(g) > 1]
        self.hats = market.hats(market.earn_units)
        self.least: int | None = None  # the last round's least earning
        # the (high, unraised) whose ratios and group order last passed
        self._ratios_checked: tuple[int, frozenset[int]] | None = None

    def find(self, market: MarketState | MarketView
             ) -> tuple[int, int] | None:
        """The big earner b (largest hat) and the least earner l, ties to
        smaller indices, while hat b exceeds l's earning; None at pEF1.
        The hats are those the last checked round computed."""
        hats, earn = self.hats, market.earn_units
        b = hats.index(max(hats))
        l = earn.index(min(earn))
        return (b, l) if hats[b] > earn[l] else None

    def trade(self, view: MarketView, rnd: int, b: int,
              l: int) -> list[TraceEvent]:
        """Execute round rnd for big earner b and least earner l on the
        view; return its events.  The least earning at selection never
        decreases across rounds (asserted after the round's checks)."""
        earn = view.earn_units
        inst = view.instance
        unraised = self.unraised
        events: list[TraceEvent] = []
        touched = {b, l}

        if l in unraised:
            if b in unraised:
                group = next((g for g in self.groups if b in g), None)
                if group is None:
                    raise LemmaViolation(f"agent {b} belongs to no group")
                if l in group:
                    raise LemmaViolation(
                        "least earner shares the big earner's group; the "
                        "terminal check should have fired (pEF1 holds inside "
                        "groups)")
                raised = 0
                for a in group:
                    raised |= view.bundles[a]
                clash = raised & view.high
                if clash:
                    raise RaiseOverflow(
                        f"chore {(clash & -clash).bit_length() - 1} already "
                        f"pays {inst.k}; raising would leave the two-value "
                        "payment range")
                view.high |= raised
                unraised = unraised - group
                touched |= group
                events.append(TraceEvent(
                    stage="pef1", round=rnd, kind="raise", agents=(b,),
                    items=tuple(bits(raised)),
                    earn_before=(earn[b],),
                    # each of b's chores paid 1 (q units) and now pays k (p)
                    earn_after=(earn[b] // view.pay_low * view.pay_high,),
                    least_earning=earn[l]))
            bundle_b = view.bundles[b]
            e = (bundle_b & -bundle_b).bit_length() - 1
            view.move(e, b, l)
            kind, agents, items = "transfer", (b, l), (e,)
        else:
            if b in unraised:
                raise LemmaViolation(
                    "least earner is raised while the big earner is not")
            entry_l = self.entry.bundles[l]
            i = next((a for a in sorted(unraised)
                      if view.bundles[a] & entry_l), None)
            if i is None:
                raise MissingIntermediary(
                    f"no unraised agent holds part of agent {l}'s entry bundle")
            e1_opts = view.bundles[b] & view.mpb(i)
            if not e1_opts:
                raise MPBViolation(
                    f"no chore of big earner {b} is ratio-minimal for "
                    f"intermediary {i}")
            e1 = (e1_opts & -e1_opts).bit_length() - 1
            e2_opts = view.bundles[i] & entry_l
            e2 = (e2_opts & -e2_opts).bit_length() - 1
            view.move(e1, b, i)
            view.move(e2, i, l)
            touched.add(i)
            kind, agents, items = "rotate", (b, i, l), (e1, e2)
        self.unraised = unraised
        after, self.hats = self._assert_round(view, touched)
        least = earn[l]
        events.append(view.record("pef1", rnd, kind, agents, items, after,
                                  least))
        if self.least is not None and least < self.least:
            q = inst.k.denominator
            raise LemmaViolation(
                f"least earner earning dropped from "
                f"{Fraction(self.least, q)} to {Fraction(least, q)}")
        self.least = least
        return events

    def _assert_round(self, view: MarketView,
                      touched: set[int]) -> tuple[list[int], list[int]]:
        """Check the round from the view's masks alone; return the
        earnings and hats.  The ratio and group-order checks read only
        high and unraised, so they rerun only when that pair differs by
        value from the last pair that passed them."""
        unraised = self.unraised
        earn = view.check_round("round", touched)
        if self._ratios_checked != (view.high, unraised):
            self._assert_ratios(view, unraised)
            self._ratios_checked = (view.high, unraised)
        hats = view.hats(earn)
        # hat <= earning for every agent, so pEF1 fails inside a group iff
        # its largest hat exceeds its smallest earning
        for g in self.shared:
            g_hats = [hats[a] for a in g]
            g_earn = [earn[a] for a in g]
            top, floor = max(g_hats), min(g_earn)
            if top > floor:
                raise LemmaViolation(
                    f"pEF1 broke inside a group: {g[g_hats.index(top)]} vs "
                    f"{g[g_earn.index(floor)]}")
        return earn, hats

    def _assert_ratios(self, view: MarketView,
                       unraised: frozenset[int]) -> None:
        """Agents are raised exactly outside unraised, and the raised
        groups form a proper prefix of the group order."""
        k = view.instance.k
        groups = self.groups
        for i in range(view.n):
            if view.raised(i) == (i in unraised):
                got, want = (1 / k, 1) if i in unraised else (1, 1 / k)
                raise LemmaViolation(
                    f"agent {i} has ratio {got}, expected {want}")
        # raised groups must form a prefix of the group order, never all of them
        seen_unraised = False
        for g in groups:
            g_unraised = g <= unraised
            if not g_unraised and (g & unraised):
                raise LemmaViolation("a group is only partially raised")
            if seen_unraised and not g_unraised:
                raise LemmaViolation("raised groups do not form a prefix")
            seen_unraised = seen_unraised or g_unraised
        if not (groups[-1] <= unraised):
            raise LemmaViolation("the last group must stay unraised")


def _reindex(resolved: MarketState, groups: AgentGroups
             ) -> tuple[MarketState, AgentGroups]:
    """Relabel agents so groups occupy contiguous ascending index ranges."""
    new_inst = relabel_agents(resolved.instance, groups.new_to_old)
    new_market = build_market_state(
        new_inst, [resolved.bundles[old] for old in groups.new_to_old],
        resolved.high)
    label = {old: new for new, old in enumerate(groups.new_to_old)}
    return new_market, AgentGroups(
        tuple(frozenset(label[a] for a in g) for g in groups.groups),
        groups.new_to_old)


def run_pef1(instance: Instance) -> SolverState:
    """Entry equilibrium, chain resolution, partition, then payment rounds
    until pEF1, at most 4 n^2 m^2 of them.

    The result lives in the reindexed agent frame; groups.new_to_old maps
    back to the caller's labels.  With no round to run, its market is the
    reindexed entry market itself.
    """
    entry = build_initial_state(instance)
    resolved = resolve_overpaid_paths(entry)
    market, groups = _reindex(resolved, partition_agent_groups(resolved))
    rounds = _Rounds(market, groups)
    result = reallocate(market, rounds.find, rounds.trade, "payment",
                        4 * instance.n ** 2 * instance.m ** 2)
    trace = result.trace
    return SolverState(result.market, rounds.unraised, groups, market,
                       trace[-1].round if trace else 0, trace)
