"""Round-by-round trace records and their replay.

Every solver round emits one event.  Replaying the events of a run against
its entry allocation must reproduce the final allocation and payments
exactly; the harness checks this for every traced report.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class TraceEvent:
    """One solver round.

    kind / agents / items semantics:
      raise        agents=(b,),       items = chores whose payment went 1 -> k
      transfer     agents=(b, l),     items=(e,): e moves b -> l
      rotate       agents=(b, i, l),  items=(e1, e2): e1 b -> i, e2 i -> l
      bundle_swap  agents=(i, j),     items=(e, lows...): e i -> j, lows j -> i
      swap         agents=(i, j),     items=(e_i, e_j): e_i i -> j, e_j j -> i
      move         agents=(i, j),     items=(e_i,): e_i i -> j
    A raise-and-transfer round emits two events sharing the round number.
    """
    stage: str
    round: int
    kind: str
    agents: tuple[int, ...]
    items: tuple[int, ...]
    earn_before: tuple[Fraction, ...] = ()
    earn_after: tuple[Fraction, ...] = ()
    least_earning: Fraction | None = None

    def moves(self) -> list[tuple[int, int, int]]:
        """(item, from_agent, to_agent) triples in execution order."""
        a, it = self.agents, self.items
        if self.kind == "raise":
            return []
        if self.kind == "transfer":
            return [(it[0], a[0], a[1])]
        if self.kind == "rotate":
            return [(it[0], a[0], a[1]), (it[1], a[1], a[2])]
        if self.kind == "bundle_swap":
            out = [(it[0], a[0], a[1])]
            out.extend((e, a[1], a[0]) for e in it[1:])
            return out
        if self.kind == "swap":
            return [(it[0], a[0], a[1]), (it[1], a[1], a[0])]
        if self.kind == "move":
            return [(it[0], a[0], a[1])]
        raise ValueError(f"unknown trace kind {self.kind!r}")


def replay_trace(owner, pay_high, events) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Apply events to an entry (owner, payment-is-high) pair."""
    owner = list(owner)
    pay_high = list(pay_high)
    for ev in events:
        if ev.kind == "raise":
            for e in ev.items:
                if pay_high[e]:
                    raise ValueError(f"replay: chore {e} raised twice")
                pay_high[e] = True
            continue
        for e, src, dst in ev.moves():
            if owner[e] != src:
                raise ValueError(
                    f"replay: chore {e} owned by {owner[e]}, event says {src}")
            owner[e] = dst
    return tuple(owner), tuple(pay_high)
