"""Shared builders: hand-checked fixture states and hypothesis strategies."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, settings, strategies as st

from chorefair import AlreadyUniform, Instance, normalize_instance
from chorefair.harness import (GenParams, gen_instance, instance_text,
                               report_text)
from chorefair.model import (MarketState, RawInstance, build_market_state,
                             bundle_masks)

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def owned_instance(k, owners, rows=None) -> Instance:
    """Instance where item e costs 1 only to owners[e], k to everyone else.

    rows overrides individual high-flag rows (dict agent -> bool sequence).
    """
    n = max(owners) + 1
    m = len(owners)
    high = [[owners[e] != i for e in range(m)] for i in range(n)]
    for i, row in (rows or {}).items():
        high[i] = list(row)
    return Instance(n, m, Fraction(k), tuple(tuple(r) for r in high))


def skewed_owned_instance(k, sizes, seed=None, sprinkle=Fraction(0)) -> Instance:
    """owned_instance where agent i owns sizes[i] chores.

    Without a seed the chores are dealt in agent order.  With one they are
    shuffled, and every agent but 0 also costs 1, with probability
    sprinkle, on each chore agent 0 does not own.  Nobody else costs 1 on
    agent 0's chores, so a large sizes[0] forces payment rounds; two or
    three large bundles make the raised big earners fall below each other,
    which is what drives the rotation branch.
    """
    owners = [i for i, size in enumerate(sizes) for _ in range(size)]
    if seed is None:
        return owned_instance(k, owners)
    rng = random.Random(seed)
    rng.shuffle(owners)
    n, m = len(sizes), len(owners)
    high = [[owners[e] != i for e in range(m)] for i in range(n)]
    for e in range(m):
        if owners[e] == 0:
            continue
        for i in range(1, n):
            if rng.random() < sprinkle:
                high[i][e] = False
    return owned_instance(k, owners, dict(enumerate(high)))


def market_from_parts(instance, owners, high_pay) -> MarketState:
    """The market of an owner vector and a set of payment-k chores."""
    return build_market_state(instance, bundle_masks(owners, instance.n),
                              sum(1 << e for e in high_pay))


def save_instance(path, instance) -> None:
    """Write an instance file, as `chorefair gen --out` does."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_text(instance))


def rendered_fingerprint(report) -> str:
    """report_fingerprint of the report rendered from its fields alone, as
    a _replace() copy, which keeps no event lines, renders it."""
    copy = report._replace()
    assert copy.event_lines is None
    return hashlib.sha256(
        report_text(copy, timings=False).encode()).hexdigest()


def instance_to_raw(instance: Instance) -> RawInstance:
    """Expand a normalized instance back into an explicit cost matrix."""
    costs = tuple(tuple(instance.cost(i, e) for e in range(instance.m))
                  for i in range(instance.n))
    return RawInstance(n=instance.n, m=instance.m, costs=costs)


def high_rows(instance: Instance) -> tuple[tuple[bool, ...], ...]:
    """The n x m high flags (True where the cost is k), cell by cell from
    the cost-1 masks."""
    return tuple(tuple(not low >> e & 1 for e in range(instance.m))
                 for low in instance.low_masks)


def unit_cost(instance: Instance, i: int, e: int) -> int:
    """Agent i's cost for chore e in 1/q units, read from its cost-1 mask."""
    return instance.unit if instance.low_masks[i] >> e & 1 \
        else instance.high_units


# Forces the three-agent rotation: raise a0, feed the two small agents,
# raise a1, then a0 drops below everyone while only a1 has slack.  The
# intermediary a2 holds entry items of a0 by then.
ROTATION_SIZES = (8, 7, 1, 1)


def rotation_instance() -> Instance:
    return skewed_owned_instance(2, ROTATION_SIZES)


# One agent (a6) with an all-low row strongly envies the two-item agents;
# the cost-6 entries at items 0, 2, 4 keep a4 and a5 from envying anyone.
GOLDEN6_OWNERS = (0, 0, 1, 1, 2, 2, 2, 4, 5, 5, 6, 6, 3, 4, 5, 6)
GOLDEN6_HIGH_PAY = frozenset({12, 13, 14, 15})

_MIXED_ROW = (True, False, True, False, True, False, False, False,
              False, False, False, False, True, True, True, True)
_PLAIN_ROW = (False,) * 12 + (True,) * 4


def golden6_market() -> MarketState:
    high = tuple(_MIXED_ROW if i in (4, 5) else _PLAIN_ROW for i in range(7))
    inst = Instance(7, 16, Fraction(6), high)
    return market_from_parts(inst, GOLDEN6_OWNERS, GOLDEN6_HIGH_PAY)


def _natural_market(k, owners, high_pay, raised_agent):
    """Rows equal the payment flags except one all-low (raised) agent."""
    n = max(owners) + 1
    m = len(owners)
    flag_row = tuple(e in high_pay for e in range(m))
    high = tuple(
        (False,) * m if i == raised_agent else flag_row for i in range(n))
    inst = Instance(n, m, Fraction(k), high)
    return market_from_parts(inst, owners, high_pay)


# k=2 swap fixture: violator a4 (earning 6) trades its first payment-2 item
# for a0's first payment-1 item; both land on earning 5.
SWAP_OWNERS = (0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5)
SWAP_HIGH_PAY = frozenset({0, 3, 4, 6, 7, 9, 10, 12, 13, 16, 17, 18})


def swap_market() -> MarketState:
    return _natural_market(2, SWAP_OWNERS, SWAP_HIGH_PAY, raised_agent=5)


# k=2 move fixture: a0 holds only payment-2 items, so the violator a4 hands
# one over instead of trading; a0 ends at 6 all-high, a4 at 4.
MOVE_OWNERS = (0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5)
MOVE_HIGH_PAY = frozenset({0, 1, 2, 5, 8, 9, 11, 12, 15, 16, 17})


def move_market() -> MarketState:
    return _natural_market(2, MOVE_OWNERS, MOVE_HIGH_PAY, raised_agent=5)


# instances on which the exchange stage reaches the largest factor a
# search found at non-integer k: k, then one normalized row per agent
# (1 marks a cost-k chore).  The exchange stage runs one round at 7/2 and
# none at the others, where the pEF1 market already reaches beta_star(k).
TIGHT_WITNESSES = {
    Fraction(3, 2): ("001100111", "101000111", "001001101", "001010110"),
    Fraction(11, 4): ("01011101111111", "10011010110010", "00011000011000",
                      "10111110001011"),
    Fraction(7, 2): ("0010000101110001001", "0000100010010010101",
                     "0100100000011000001", "0010010101111111100",
                     "0101010101011001100", "1010010101010111111"),
    Fraction(19, 5): ("0000100001010101", "0000110101010100",
                      "1100111010011011", "1011100110011000"),
    Fraction(29, 10): ("110100110001101101", "111011010101000010",
                       "101000010001110000", "011101010111000101",
                       "110010001001101000"),
}


def tight_witness(k) -> Instance:
    """The TIGHT_WITNESSES instance at k."""
    rows = TIGHT_WITNESSES[k]
    return Instance(len(rows), len(rows[0]), k, tuple(
        tuple(flag == "1" for flag in row) for row in rows))


def beta_star(k: Fraction) -> Fraction:
    """max(2 - 1/floor(k), (floor(k) + k) / (floor(k) + 1)), the largest
    factor a search found the exchange stage to reach; 2 - 1/k at integer k.
    """
    f = k.numerator // k.denominator
    return max(2 - Fraction(1, f), (f + k) / (f + 1))


# -- hypothesis strategies ---------------------------------------------------

K_VALUES = (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(6))


@st.composite
def high_matrices(draw, n, m):
    rows = []
    for _ in range(n):
        row = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        if all(row):
            row[draw(st.integers(0, m - 1))] = False
        rows.append(tuple(row))
    return tuple(rows)


@st.composite
def instances(draw, max_n=5, max_m=8, ks=K_VALUES):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    k = draw(st.sampled_from(ks))
    return Instance(n, m, k, draw(high_matrices(n, m)))


@st.composite
def generated_instances(draw, max_n=6, max_m=12, ks=K_VALUES):
    params = GenParams(
        n=draw(st.integers(2, max_n)),
        m=draw(st.integers(2, max_m)),
        k=draw(st.sampled_from(ks)),
        high_prob=draw(st.sampled_from(
            [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    try:
        return normalize_instance(gen_instance(params))
    except AlreadyUniform:
        assume(False)


@pytest.fixture
def rotation():
    return rotation_instance()
