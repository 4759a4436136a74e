"""Initial equilibrium construction and the agent-group partition.

The entry state gives every chore payment 1, except chores that cost k to
every agent, which get payment k.  Each payment-1 chore goes to the
smallest-index agent costing 1 on it; payment-k chores are dealt greedily to
the currently poorest agent.  That state has every agent at pain-per-buck
ratio exactly 1.

Earnings are then balanced by firing transfer chains: a chain ships one
chore out of an over-earner, one chore into an under-earner, and passes
through intermediaries so that every single move hands a chore to an agent
for which it is ratio-minimal (so the equilibrium survives each move).
Nearly all chains are direct, one chore from an over-earner straight to an
under-earner; they are found without a search, and each strictly lowers
the sum of squared earnings.  Finally agents are partitioned into groups
headed by successive big earners; the groups are ordered so that all later
processing can treat "raised before unraised" as "smaller index before
larger index".  Everything here runs on bitmasks: Python ints over chores
for bundles and MPB sets, and over agents for the search layers and the
groups.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import accumulate
from operator import or_

from .errors import (GroupPropertyViolation, InternalInvariant,
                     IterationCapExceeded, MPBViolation)
from .model import (Instance, MarketState, MarketView, bits,
                    build_market_state)


def build_initial_state(instance: Instance) -> MarketState:
    """Entry equilibrium with all ratios exactly 1; see module docstring."""
    n, m = instance.n, instance.m
    q, p = instance.unit, instance.high_units
    bundles = [0] * n
    earn = [0] * n
    dealt = 0  # the chores some agent costs 1 on, paid 1
    for i, low in enumerate(instance.low_masks):
        bundles[i] = low & ~dealt
        earn[i] = q * bundles[i].bit_count()
        dealt |= low
    large = ((1 << m) - 1) & ~dealt  # consistently large chores, paid k
    for e in bits(large):
        i = earn.index(min(earn))
        bundles[i] |= 1 << e
        earn[i] += p
    state = build_market_state(instance, bundles, large)
    raised = [i for i in range(n) if state.raised(i)]
    if raised:
        raise InternalInvariant(f"entry ratios not all 1: agents {raised} "
                                f"are at 1/{instance.k}")
    if any(state.bundles[i] & ~state.mpb(i) for i in range(n)):
        raise InternalInvariant("entry allocation is not an equilibrium")
    return state


class _ChainView(MarketView):
    """The market view for the chain resolution; payments stay fixed.

    mpbs caches the MPB masks.  takers[e] is the bitmask of agents for which
    chore e is ratio-minimal, and succ[u] the bitmask of agents v != u that
    u can give a chore to (u's bundle meets MPB_v), the union of takers over
    u's bundle.  levels maps each earning to the mask of the agents earning
    it; set_earn, the only writer of earn_units, keeps it in step.

    succ[u] is exact outside the agent mask stale and a superset of the
    exact set inside it.  A chain's head only loses a chore, so it joins
    stale rather than having its succ rebuilt; the tail only gains one, so
    its succ grows by that chore's takers; an intermediate does both, so
    refresh rebuilds its succ and takes it out of stale.  Whoever reads a
    stale succ checks each bit against the bundle or refreshes it first.
    """

    def __init__(self, state: MarketState):
        super().__init__(state)
        self.mpbs = [self.mpb(v) for v in range(self.n)]
        # takers transposes the MPB masks: in their binary numerals, agent
        # n-1's first, chore m-1-j's digits sit at j, j + m, j + 2m, ...
        m = state.instance.m
        digits = "".join([format(mask, f"0{m}b")
                          for mask in reversed(self.mpbs)])
        self.takers = [int(digits[j::m], 2) for j in range(m)][::-1]
        self.levels: dict[int, int] = {}
        for u, units in enumerate(self.earn_units):
            self.levels[units] = self.levels.get(units, 0) | 1 << u
        self.succ = [0] * self.n
        self.stale = 0
        for u in range(self.n):
            self.refresh(u)

    def set_earn(self, u: int, units: int) -> None:
        levels, old = self.levels, self.earn_units[u]
        levels[old] &= ~(1 << u)
        if not levels[old]:
            del levels[old]
        self.earn_units[u] = units
        levels[units] = levels.get(units, 0) | 1 << u

    def below(self, units: int) -> int:
        """The agents earning less than units (the levels are disjoint)."""
        return sum(mask for e, mask in self.levels.items() if e < units)

    def refresh(self, u: int) -> None:
        """Recompute earn_units[u] and the exact succ[u] from u's bundle."""
        self.set_earn(u, self.earning(u))
        takers, bundle, reach = self.takers, self.bundles[u], 0
        while bundle:
            reach |= takers[(bundle & -bundle).bit_length() - 1]
            bundle &= bundle - 1
        self.succ[u] = reach & ~(1 << u)
        self.stale &= ~(1 << u)

    def hat(self, i: int) -> int:
        return self.earn_units[i] - self.top_pay(i)


def _shortest_chain_from(view: _ChainView, i: int,
                         max_len: int) -> list[int] | None:
    """Layered BFS over 'can give to' edges from i, looking at chains of at
    most max_len agents.  Returns the chain to the smallest-index endpoint j
    with hat(i) > earning(j) in the nearest layer holding one; each agent's
    parent is the smallest-index agent of the previous layer that can give
    to it."""
    hat_i, earn, succ = view.hat(i), view.earn_units, view.succ
    seen = frontier = 1 << i
    layers = [frontier]
    while len(layers) < max_len:
        reached, rest = 0, frontier
        while rest:
            reached |= succ[(rest & -rest).bit_length() - 1]
            rest &= rest - 1
        frontier = reached & ~seen
        if not frontier:
            return None
        rest = frontier  # endpoint: the first agent hat(i) exceeds
        while rest and hat_i <= earn[(rest & -rest).bit_length() - 1]:
            rest &= rest - 1
        if rest:
            path = [(rest & -rest).bit_length() - 1]
            for layer in reversed(layers):
                v = path[-1]
                while not succ[(layer & -layer).bit_length() - 1] >> v & 1:
                    layer &= layer - 1
                path.append((layer & -layer).bit_length() - 1)
            return path[::-1]
        seen |= frontier
        layers.append(frontier)
    return None


def _best_chain(view: _ChainView) -> list[int] | None:
    """Shortest chain i = u_0, ..., u_t = j (each u_s holds a chore that is
    ratio-minimal for u_{s+1}) with hat(i) > earning(j); None at the fixed
    point.

    Ties: the smallest-index head with a shortest chain wins; from it the
    endpoint is the smallest-index qualifying agent of the nearest layer of
    the breadth-first search, and the chain follows BFS parents back, where
    an agent's parent is the smallest-index agent of the previous layer
    that can give to it.  This is not always the lexicographically least
    shortest chain.  A later head can only win with a strictly shorter
    chain, so its search is cut one agent below the best length so far.

    A two-agent chain is the shortest possible, so the first head with a
    direct receiver wins outright; that is read off succ and the earning
    levels, pruning each stale bit met.  Only when no head has one are the
    stale agents refreshed and the searches run.
    """
    floor = min(view.levels)
    succ, bundles, mpbs = view.succ, view.bundles, view.mpbs
    for i in range(view.n):
        hat_i = view.hat(i)
        if hat_i <= floor:
            continue  # no endpoint anywhere could satisfy the condition
        receivers = succ[i] & view.below(hat_i)
        while receivers:
            low = receivers & -receivers
            j = low.bit_length() - 1
            if bundles[i] & mpbs[j]:
                return [i, j]
            succ[i] ^= low  # stale: i gave away every chore j could take
            receivers ^= low
    for u in bits(view.stale):
        view.refresh(u)
    best: list[int] | None = None
    for i in range(view.n):
        if view.hat(i) <= floor:
            continue
        chain = _shortest_chain_from(
            view, i, view.n if best is None else len(best) - 1)
        if chain is not None:
            best = chain
    return best


def _fire(view: _ChainView, chain: list[int]) -> None:
    """Execute moves from the receiving end backward so every giver still
    holds its original bundle at giving time.  The head joins stale."""
    head, tail = chain[0], chain[-1]
    held = view.bundles[tail]
    for s in range(len(chain) - 2, -1, -1):
        u, v = chain[s], chain[s + 1]
        options = view.bundles[u] & view.mpbs[v]
        if not options:
            raise MPBViolation(f"chain edge {u}->{v} lost its witness chore")
        low = options & ~view.high  # prefer payment-1
        pick = low or options
        view.move((pick & -pick).bit_length() - 1, u, v)
    for u in chain[1:-1]:
        view.refresh(u)
    view.set_earn(head, view.earning(head))
    view.stale |= 1 << head
    gained = view.bundles[tail] & ~held
    view.set_earn(tail, view.earning(tail))
    view.succ[tail] |= view.takers[gained.bit_length() - 1] & ~(1 << tail)


def resolve_overpaid_paths(state: MarketState) -> MarketState:
    """Fire violating chains until none remains.

    Per chain: the head's earning strictly drops and the tail gains exactly
    one chore's payment.  A direct chain i -> j moves a chore paying
    c <= top_pay(i) and needs earn_j < earn_i - top_pay(i), so it changes
    Phi = sum of earning^2 by 2c(earn_j + c - earn_i) < 0; each direct fire
    checks earn_j + c < earn_i (InternalInvariant).  The chain chosen
    depends only on the bundles, so a repeat would cycle forever, and the
    cycle would hold a multi-hop fire, as Phi cannot strictly drop around
    it.  Hence only allocations after multi-hop fires are kept; a repeat
    among them or a cap hit raises IterationCapExceeded.
    """
    n, m = state.instance.n, state.instance.m
    view = _ChainView(state)
    cap = 4 * n * m * (n + m)
    seen: set[tuple[int, ...]] = set()
    fires = 0
    while True:
        best = _best_chain(view)
        if best is None:
            break
        head, tail = best[0], best[-1]
        earn = view.earn_units
        before_head, before_tail = earn[head], earn[tail]
        _fire(view, best)
        if not (earn[head] < before_head):
            raise InternalInvariant("chain did not reduce the head's earning")
        gain = earn[tail] - before_tail
        if gain not in (view.pay_low, view.pay_high):
            raise InternalInvariant("chain tail gained other than one chore's payment")
        if len(best) == 2:
            if not (earn[tail] < before_head):
                raise InternalInvariant(
                    "direct chain did not lower the sum of squared earnings")
        else:
            key = tuple(view.bundles)
            if key in seen:
                raise IterationCapExceeded(
                    "chain resolution revisited an allocation")
            seen.add(key)
        fires += 1
        if fires > cap:
            raise IterationCapExceeded(f"more than {cap} chains fired")
    if any(view.bundles[i] & ~view.mpb(i) for i in range(n)):
        raise MPBViolation("chain resolution broke the equilibrium")
    return view.market()


class AgentGroups(namedtuple("AgentGroups", "groups new_to_old")):
    """Ordered groups headed by successive big earners.

    new_to_old[r] lists agents in reindexed order (group by group, ascending
    original index inside a group).  Group membership is decided once, on
    the resolved entry state, and never changes afterwards.
    """
    __slots__ = ()


def partition_agent_groups(state: MarketState) -> AgentGroups:
    """Repeatedly take the big earner b among ungrouped agents and group it
    with every ungrouped agent having a directed path to b in the MPB graph
    restricted to ungrouped vertices: an agent joins when its MPB set meets
    the bundle of a member, until none does.

    Asserts the three structural facts later stages rely on: agents of later
    groups cost k on every chore held by earlier groups, all consistently
    large chores sit in the last group, and pEF1 holds inside each group.
    """
    bundles, hats = state.bundles, state.hats(state.earn_units)
    ungrouped = list(range(state.instance.n))
    mpbs = [state.mpb(a) for a in ungrouped]
    groups: list[int] = []
    while ungrouped:
        b = max(ungrouped, key=hats.__getitem__)  # ties to the smaller index
        ungrouped.remove(b)
        members, held = 1 << b, bundles[b]
        while joining := [a for a in ungrouped if mpbs[a] & held]:
            for a in joining:
                ungrouped.remove(a)
                members |= 1 << a
                held |= bundles[a]
        groups.append(members)

    _assert_group_properties(state, hats, groups)
    return AgentGroups(tuple(frozenset(bits(g)) for g in groups),
                       tuple(a for g in groups for a in bits(g)))


def _union(masks: list[int], group: int) -> int:
    out = 0
    for a in bits(group):
        out |= masks[a]
    return out


def _assert_group_properties(state: MarketState, hats: list[int],
                             groups: list[int]) -> None:
    """Check the group facts of groups, which partition the agents, from
    the masks; each witness is the first in ascending index order."""
    low, earn, bundles = state.low_cost, state.earn_units, state.bundles
    # lows[r]: the cost-1 chores of groups r, r + 1, ..., from the last back
    lows = list(accumulate((_union(low, g) for g in reversed(groups)), or_,
                           initial=0))[::-1]
    for r, g in enumerate(groups):
        if _union(bundles, g) & lows[r + 1]:
            i, j = next((i, j) for g2 in groups[r + 1:] for i in bits(g)
                        for j in bits(g2) if bundles[i] & low[j])
            shared = bundles[i] & low[j]
            raise GroupPropertyViolation(
                f"agent {j} (later group) costs 1 on chore "
                f"{(shared & -shared).bit_length() - 1} held by "
                f"agent {i} (earlier group)")
        # hat <= earning for every agent, so pEF1 fails inside a group iff
        # its largest hat exceeds its smallest earning
        members = list(bits(g))
        if max(hats[a] for a in members) > min(earn[a] for a in members):
            i, j = next((i, j) for i in members for j in members
                        if i != j and hats[i] > earn[j])
            raise GroupPropertyViolation(
                f"pEF1 fails inside a group: hat({i})={hats[i]} > "
                f"earning({j})={earn[j]} (units)")
    # consistently large chores: no agent costs 1 on them
    large = ((1 << state.instance.m) - 1) & ~lows[0]
    stray = large & ~_union(bundles, groups[-1])
    if stray:
        raise GroupPropertyViolation(
            f"consistently large chore {(stray & -stray).bit_length() - 1} "
            f"held outside the last group")
