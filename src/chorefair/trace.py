"""Round-by-round trace records and their replay.

Every solver round emits one event.  Replaying the events of a run on its
entry market's bundle masks and payment-k mask must reproduce its final
market exactly, and every earning the events state; `chorefair verify`
checks this for every report.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


class TraceEvent(namedtuple(
        "TraceEvent", "stage round kind agents items earn_before earn_after "
        "least_earning", defaults=((), (), None))):
    """One solver round.

    kind / agents / items semantics:
      raise        agents=(b,),       items = chores whose payment went 1 -> k
      transfer     agents=(b, l),     items=(e,): e moves b -> l
      rotate       agents=(b, i, l),  items=(e1, e2): e1 b -> i, e2 i -> l
      bundle_swap  agents=(i, j),     items=(e, lows...): e i -> j, lows j -> i
      swap         agents=(i, j),     items=(e_i, e_j): e_i i -> j, e_j j -> i
      move         agents=(i, j),     items=(e_i,): e_i i -> j
    A raise-and-transfer round emits two events sharing the round number.

    Earnings are integers in 1/q units, where q is the denominator of the
    cost ratio k = p/q: an agent earning u units earns u / q.  Every
    payment is 1 or k, so every earning is a whole number of units.
    """
    __slots__ = ()

    def moves(self) -> list[tuple[int, int, int]]:
        """(item, from_agent, to_agent) triples in execution order."""
        a, it = self.agents, self.items
        if self.kind == "raise":
            return []
        if self.kind == "rotate":
            return [(it[0], a[0], a[1]), (it[1], a[1], a[2])]
        if self.kind in _SHAPES:  # the first chore goes over, the rest back
            return [(it[0], a[0], a[1])] + [(e, a[1], a[0]) for e in it[1:]]
        raise ValueError(f"unknown trace kind {self.kind!r}")


# kind -> (agent count, fewest items, most items or None for no limit)
_SHAPES = {"raise": (1, 1, None), "transfer": (2, 1, 1), "rotate": (3, 2, 2),
           "bundle_swap": (2, 1, None), "swap": (2, 2, 2), "move": (2, 1, 1)}


def _check_shape(ev: TraceEvent, n: int, m: int) -> None:
    """The event's kind is known, its agent and chore counts fit the kind,
    and it names only agents 0..n-1 and chores 0..m-1."""
    if ev.kind not in _SHAPES:
        raise ValueError(f"replay: unknown trace kind {ev.kind!r}")
    agents, fewest, most = _SHAPES[ev.kind]
    if len(ev.agents) != agents or not fewest <= len(ev.items) <= (most or m):
        raise ValueError(f"replay: a {ev.kind} event names {len(ev.agents)} "
                         f"agents and {len(ev.items)} chores")
    if not 0 <= min(ev.agents) <= max(ev.agents) < n:
        raise ValueError(f"replay: {ev.kind} agents {ev.agents} are not "
                         f"all in 0..{n - 1}")
    if not 0 <= min(ev.items) <= max(ev.items) < m:
        raise ValueError(f"replay: {ev.kind} chores {ev.items} are not "
                         f"all in 0..{m - 1}")


def _check_earnings(ev: TraceEvent, key: str, claimed: tuple[int, ...],
                    units: list[int], agents, q: int) -> None:
    """The earnings the event states under key are units[a] for its agents
    a, in order; the message states both sides as values, units / q."""
    reached = tuple(units[a] for a in agents)
    if claimed != reached:
        raise ValueError(
            f"replay: round {ev.round} {ev.kind} says {key} "
            f"{', '.join(str(Fraction(x, q)) for x in claimed)}, not "
            f"{', '.join(str(Fraction(x, q)) for x in reached)}")


def replay_trace(market, events):
    """The MarketState that events reach from market, by stepping its bundle
    masks and its payment-k mask; market itself when there are no events.
    ValueError when an event does not fit its kind, names an agent or chore
    that does not exist, or states an earning the replay does not reach:
    earn_before and least at the start of its round, earn_after right after
    it.  Every pef1 event must state least."""
    if not events:
        return market
    bundles, high = list(market.bundles), market.high
    p, q = market.pay_high, market.pay_low
    units = list(market.earn_units)  # each agent's earning in 1/q units
    at = None  # (stage, round) whose start earnings are start
    for ev in events:
        _check_shape(ev, len(bundles), market.instance.m)
        if (ev.stage, ev.round) != at:
            at, start = (ev.stage, ev.round), units[:]
            least = (start.index(min(start)),)  # a least earner
        _check_earnings(ev, "earn_before", ev.earn_before, start, ev.agents, q)
        if ev.least_earning is not None:
            _check_earnings(ev, "least", (ev.least_earning,), start, least, q)
        elif ev.stage == "pef1":  # the payment rounds state it every time
            raise ValueError(
                f"replay: round {ev.round} {ev.kind} states no least")
        if ev.kind == "raise":
            for e in ev.items:
                if high >> e & 1:
                    raise ValueError(f"replay: chore {e} raised twice")
                high |= 1 << e
            raised = sum(1 << e for e in ev.items)
            for i, b in enumerate(bundles):  # each raised chore earns p - q more
                units[i] += (p - q) * (b & raised).bit_count()
        for e, src, dst in ev.moves():
            bit = 1 << e
            if not bundles[src] & bit:
                holder = next(i for i, b in enumerate(bundles) if b & bit)
                raise ValueError(
                    f"replay: chore {e} owned by {holder}, event says {src}")
            bundles[src] ^= bit
            bundles[dst] |= bit
            pay = p if high & bit else q
            units[src] -= pay
            units[dst] += pay
        _check_earnings(ev, "earn_after", ev.earn_after, units, ev.agents, q)
    return market._replace(bundles=tuple(bundles), high=high)
