"""Instance normalization, unit arithmetic, and market-state accounting."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from chorefair import (
    AlreadyUniform,
    Instance,
    normalize_instance,
    raw_instance,
)
from chorefair.errors import (ChorefairError, InternalInvariant,
                              LemmaViolation, MPBViolation, NotBiValued,
                              ZeroCost)
from chorefair.harness import GenParams
from chorefair.model import (
    Allocation,
    EnvyKernel,
    MarketState,
    MarketView,
    RawInstance,
    as_rational,
    build_market_state,
    bundle_masks,
    relabel_agents,
)
from chorefair.pef1 import _Rounds, reallocate, run_pef1
from chorefair.verify import FairnessVerdict, Witness

from conftest import (generated_instances, high_rows, instance_to_raw,
                      instances, owned_instance, unit_cost)


def test_as_rational_accepts_common_forms():
    assert as_rational(3) == Fraction(3)
    assert as_rational("5/2") == Fraction(5, 2)
    assert as_rational(Fraction(7, 3)) == Fraction(7, 3)


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(2.5)


def test_raw_instance_rejects_ragged_rows():
    with pytest.raises(ValueError):
        raw_instance([[1, 2], [1]])


def test_normalize_divides_each_row_by_its_low_value():
    raw = raw_instance([["3", "6"], ["1/2", "1/4"]])
    inst = normalize_instance(raw)
    assert inst.k == Fraction(2)
    assert high_rows(inst) == ((False, True), (True, False))


def test_normalize_rejects_nonpositive_costs():
    with pytest.raises(ZeroCost):
        normalize_instance(raw_instance([[0, 1]]))
    with pytest.raises(ZeroCost):
        normalize_instance(raw_instance([[1, -2]]))


def test_normalize_rejects_three_values_in_a_row():
    with pytest.raises(NotBiValued):
        normalize_instance(raw_instance([[1, 2, 3]]))


def test_normalize_rejects_mismatched_ratios_across_rows():
    with pytest.raises(NotBiValued):
        normalize_instance(raw_instance([[1, 2], [1, 3]]))


def test_normalize_rejects_uniform_matrix():
    with pytest.raises(AlreadyUniform):
        normalize_instance(raw_instance([[1, 1], [1, 1]]))
    with pytest.raises(AlreadyUniform):
        normalize_instance(raw_instance([[2, 2], [5, 5]]))


def test_normalize_error_messages_are_stable():
    cases = [
        ([[0, 1]], ZeroCost, "cost 0 is not strictly positive"),
        ([[1, -2]], ZeroCost, "cost -2 is not strictly positive"),
        ([[3, "1/2", 0]], ZeroCost, "cost 0 is not strictly positive"),
        ([["1/2", "3/2", "5/2"]], NotBiValued,
         "agent 0 has 3 distinct scaled costs: "
         "[Fraction(1, 1), Fraction(3, 1), Fraction(5, 1)]"),
        ([[1, 2], [3, 4]], NotBiValued,
         "rows disagree on the cost ratio: 2 vs 4/3"),
        ([[2, 4], [3, 9]], NotBiValued,
         "rows disagree on the cost ratio: 2 vs 3"),
        ([[1, 1], [2, 2]], AlreadyUniform,
         "every row is uniform; ratio k would be 1"),
    ]
    for rows, error, message in cases:
        with pytest.raises(error) as info:
            normalize_instance(raw_instance(rows))
        assert str(info.value) == message


def test_normalize_checks_rows_in_order():
    # row 0's three values are reported before row 1's zero entry
    with pytest.raises(NotBiValued):
        normalize_instance(raw_instance([[1, 2, 3], [0, 1, 1]]))
    with pytest.raises(ZeroCost):
        normalize_instance(raw_instance([[1, 2, 2], [0, 1, 3]]))


def test_normalize_accepts_int_rows_built_without_raw_instance():
    rows = ((3, 7, 3), (6, 14, 14), (5, 5, 5))
    direct = normalize_instance(RawInstance(3, 3, rows))
    assert direct == normalize_instance(raw_instance(rows))
    assert type(direct.k) is Fraction and direct.k == Fraction(7, 3)
    assert high_rows(direct) == ((False, True, False), (False, True, True),
                                 (False, False, False))


def test_normalize_rejects_float_rows_built_without_raw_instance():
    # floats are not exact: the same TypeError that raw_instance raises
    with pytest.raises(TypeError, match="floats are not exact"):
        normalize_instance(RawInstance(1, 2, ((1.0, 2.0),)))


def test_normalize_treats_uniform_row_as_all_low():
    # row 1 is uniformly 2: scaled by its own min it is all ones
    inst = normalize_instance(raw_instance([[1, 2], [2, 2]]))
    assert inst.k == Fraction(2)
    assert high_rows(inst) == ((False, True), (False, False))


@given(instances(), st.integers(2, 7), st.fractions(
    min_value=Fraction(1, 100), max_value=Fraction(100)))
def test_normalize_is_scale_free(inst, row, scale):
    """Multiplying one row by a positive rational changes nothing."""
    assume(any(any(r) for r in high_rows(inst)))
    raw = instance_to_raw(inst)
    i = row % inst.n
    costs = [list(r) for r in raw.costs]
    costs[i] = [c * scale for c in costs[i]]
    assert normalize_instance(raw_instance(costs)) == inst


def test_instance_unit_view_for_fractional_k():
    inst = owned_instance(Fraction(5, 2), [0, 1])
    assert inst.unit == 2
    assert inst.high_units == 5
    assert [[unit_cost(inst, i, e) for e in range(2)] for i in range(2)] \
        == [[2, 5], [5, 2]]
    assert inst.cost(0, 1) == Fraction(5, 2)


def test_instance_rejects_all_high_row():
    with pytest.raises(ValueError):
        Instance(2, 2, Fraction(2), ((True, True), (False, False)))


def test_instance_rejects_k_at_most_one():
    with pytest.raises(ValueError):
        Instance(1, 1, Fraction(1), ((False,),))


def test_allocation_bundles_partition_items():
    masks = bundle_masks((1, 0, 1, 1), 3)
    assert masks == [0b0010, 0b1101, 0]
    inst = owned_instance(2, [0, 1, 2, 2])
    assert build_market_state(inst, masks, 0).allocation == \
        Allocation((1, 0, 1, 1))


@given(instances(max_n=5, max_m=8), st.data())
def test_allocation_is_the_owner_vector_of_the_masks(inst, data):
    owner = tuple(data.draw(st.lists(st.integers(0, inst.n - 1),
                                     min_size=inst.m, max_size=inst.m)))
    state = build_market_state(inst, bundle_masks(owner, inst.n), 0)
    assert state.allocation.owner == owner


def _two_agent_state():
    inst = owned_instance(2, [0, 0, 1])
    return build_market_state(inst, (0b011, 0b100), 0b010)


@pytest.mark.parametrize("bundles, high, message", [
    ((0b011, 0b110), 0, "two bundles share a chore"),
    ((0b011, 0b000), 0, "some chore is in no bundle"),
    ((0b111,), 0, "expected 2 bundle masks, got 1"),
    ((0b0011, 0b1100), 0, "bit outside chores 0..2"),
    ((0b111, -8), 0, "bit outside chores 0..2"),
    ((0b011, 0b100), 0b1000, "bit at or above m=3"),
    ((0b011, 0b100), -1, "bit at or above m=3"),
])
def test_build_market_state_rejects_bad_masks(bundles, high, message):
    inst = owned_instance(2, [0, 0, 1])
    with pytest.raises(ValueError, match=message):
        build_market_state(inst, bundles, high)


# a valid record, one field change that its class rejects, and the error
RECORD_FAULTS = [
    (Instance(2, 3, Fraction(2), low_masks=(0b011, 0b100)),
     {"k": Fraction(1)}, ValueError, "k must exceed 1, got 1"),
    (Instance(2, 3, Fraction(2), low_masks=(0b011, 0b100)),
     {"low_masks": (0b011, 0)}, ValueError,
     "agent 1 has no cost-1 chore; instances require one per row"),
    (Instance(2, 3, Fraction(2), low_masks=(0b011, 0b100)),
     {"low_masks": (0b1000, 1)}, ValueError,
     "cost-1 masks do not match (n, m)"),
    (RawInstance(2, 2, ((1, 2), (2, 1))), {"m": 3}, ValueError,
     "cost matrix shape does not match (n, m)"),
    (RawInstance(2, 2, ((1, 2), (2, 1))), {"n": 0}, ValueError,
     "need n >= 1 and m >= 1, got n=0 m=2"),
    (GenParams(4, 8, 2, "1/2", 0), {"seed": -1}, ValueError,
     "seed must be in [0, 2^64), got -1"),
    (GenParams(4, 8, 2, "1/2", 0), {"k": "1"}, ValueError,
     "k must be above 1, got 1"),
    (GenParams(4, 8, 2, "1/2", 0), {"high_prob": 0.5}, TypeError,
     "floats are not exact; pass a Fraction, int or 'p/q' string"),
    (FairnessVerdict(True, None), {"holds": False}, AssertionError, ""),
    (FairnessVerdict(False, Witness(0, 1, 2, Fraction(3), Fraction(1))),
     {"witness": None}, AssertionError, ""),
]


@pytest.mark.parametrize("record, change, error, message", RECORD_FAULTS)
def test_checked_records_reject_bad_fields_however_built(record, change,
                                                          error, message):
    cls = type(record)
    fields = {**record._asdict(), **change}
    for build in (lambda: cls(**fields), lambda: record._replace(**change),
                  lambda: cls._make(fields.values())):
        with pytest.raises(error) as caught:
            build()
        assert str(caught.value) == message


@pytest.mark.parametrize("record", [
    *{type(r): r for r, *_ in RECORD_FAULTS}.values(),
    build_market_state(owned_instance(2, [0, 0, 1]), (0b011, 0b100), 0b010)])
def test_checked_records_copy_through_their_class(record):
    for duplicate in (record._replace(), copy.copy(record),
                      copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
        assert type(duplicate) is type(record)
        assert duplicate == record and hash(duplicate) == hash(record)
    # as for a frozen dataclass: equal only within the class, and immutable
    assert record != tuple(record)
    with pytest.raises(AttributeError):
        record.__setattr__(record._fields[0], None)


def test_a_market_state_copy_derives_its_earnings_again():
    state = _two_agent_state()
    assert state.earn_units == (3, 1)
    raised = state._replace(high=0b111)
    assert raised == build_market_state(state.instance, state.bundles, 0b111)
    assert raised.earn_units == (4, 2)
    # the earnings are derived from the masks, not a field to overwrite
    assert MarketState._fields == ("instance", "bundles", "high")
    with pytest.raises(ValueError, match="earn_units"):
        state._replace(earn_units=(0, 0))


def test_earning_views_agree_with_manual_sums():
    state = _two_agent_state()
    # agent 0 holds payments 1 and 2, agent 1 holds payment 1
    hats = state.hats(state.earn_units)
    assert Fraction(state.earn_units[0], state.pay_low) == Fraction(3)
    assert state.earn_units[0] == 3
    assert Fraction(hats[0], state.pay_low) == Fraction(1)
    assert hats[0] == 1
    assert Fraction(state.earn_units[1], state.pay_low) == Fraction(1)
    assert hats[1] == 0


def test_alpha_and_mpb_reflect_cost_payment_ratios():
    state = _two_agent_state()
    # agent 0: item 0 ratio 1, item 1 ratio 1/2, item 2 ratio 2
    assert state.raised(0)  # alpha = 1/k = 1/2
    assert state.mpb(0) == 0b010
    # agent 1: item 0 ratio 2, item 1 ratio 1, item 2 ratio 1
    assert not state.raised(1)  # alpha = 1
    assert state.mpb(1) == 0b110


@given(instances(max_n=4, max_m=6))
def test_earnings_sum_to_total_payment(inst):
    owner = [e % inst.n for e in range(inst.m)]
    pay = [inst.k if e % 2 == 0 else 1 for e in range(inst.m)]
    state = build_market_state(inst, bundle_masks(owner, inst.n),
                               sum(1 << e for e in range(0, inst.m, 2)))
    total = Fraction(sum(state.earn_units), state.pay_low)
    assert total == sum(pay)


@given(instances(max_n=4, max_m=6))
def test_hat_earning_drops_largest_payment(inst):
    owner = [0] * inst.m
    pay = [inst.k if e % 3 == 0 else 1 for e in range(inst.m)]
    state = build_market_state(inst, bundle_masks(owner, inst.n),
                               sum(1 << e for e in range(0, inst.m, 3)))
    biggest = max(pay)
    hat = state.hats(state.earn_units)[0]
    assert Fraction(state.earn_units[0] - hat, state.pay_low) == biggest


@given(instances(max_n=5, max_m=8), st.data())
def test_market_state_matches_the_ratio_definition(inst, data):
    owner = tuple(data.draw(st.lists(st.integers(0, inst.n - 1),
                                     min_size=inst.m, max_size=inst.m)))
    flags = data.draw(st.lists(st.booleans(), min_size=inst.m,
                               max_size=inst.m))
    pay = [inst.k if f else Fraction(1) for f in flags]
    state = build_market_state(inst, bundle_masks(owner, inst.n),
                               sum(1 << e for e, f in enumerate(flags) if f))
    for i in range(inst.n):
        ratios = [inst.cost(i, e) / pay[e] for e in range(inst.m)]
        assert (1 / inst.k if state.raised(i) else 1) == min(ratios)
        assert state.mpb(i) == sum(
            1 << e for e, r in enumerate(ratios) if r == min(ratios))
        mine = [pay[e] for e in range(inst.m) if owner[e] == i]
        hat = state.hats(state.earn_units)[i]
        assert Fraction(state.earn_units[i], state.pay_low) == \
            sum(mine, Fraction(0))
        assert Fraction(hat, state.pay_low) == \
            sum(mine, Fraction(0)) - max(mine, default=Fraction(0))


@given(instances(max_n=5, max_m=8), st.randoms(use_true_random=False))
def test_relabel_agents_permutes_rows_and_cost_1_masks(inst, rng):
    new_to_old = list(range(inst.n))
    rng.shuffle(new_to_old)
    fresh = Instance(inst.n, inst.m, inst.k,
                     tuple(high_rows(inst)[old] for old in new_to_old))
    relabeled = relabel_agents(inst, new_to_old)
    assert relabeled == fresh
    assert relabeled.low_masks == fresh.low_masks


def full_check_round(view, noun, touched):
    """MarketView.check_round as a recheck of the whole market, every agent
    rederived from the masks: the reference the view's check, which
    rederives only what changed since its last check, must agree with."""
    m = view.instance.m
    covered = held = 0
    for bundle in view.bundles:
        if bundle >> m:
            raise InternalInvariant(
                f"a bundle mask has a bit outside chores 0..{m - 1}")
        covered |= bundle
        held += bundle.bit_count()
    if held != covered.bit_count():
        raise InternalInvariant("two bundles share a chore")
    if covered != (1 << m) - 1:
        raise InternalInvariant("some chore is in no bundle")
    for i, bundle in enumerate(view.bundles):
        if bundle & ~view.mpb(i):
            raise MPBViolation(f"{noun} broke the equilibrium at agent {i}")
    earn = [view.earning(i) for i in range(view.n)]
    for i, (now, before) in enumerate(zip(earn, view.earn_units)):
        if now != before and i not in touched:
            raise LemmaViolation(
                f"earning of uninvolved agent {i} changed during the {noun}")
    return earn


def _outcome(check, *args):
    """What a check gives: its earnings, or its error's class and message."""
    try:
        return check(*args)
    except ChorefairError as exc:
        return type(exc), str(exc)


def _edit_move(view):
    # chore 1 goes to agent 1, which costs k for it at payment 1
    view.bundles[0] ^= 0b0010
    view.bundles[1] |= 0b0010


def _edit_high(view):
    # agent 1's cost-1 chore 2 pays k: agent 1 is raised, and chore 3, which
    # it still holds, leaves its MPB set
    view.high |= 0b0100


def _edit_earning(view):
    view.earn_units[1] += 1


def _edit_stray(view):
    view.bundles[0] |= 1 << 4  # m = 4


def _edit_share(view):
    view.bundles[0] |= 0b0100  # agent 1 holds chore 2


def _edit_share_both(view):
    # both agents change, and together they still hold every chore
    view.bundles[0] |= 0b0100
    view.bundles[1] |= 0b0001


def _edit_drop(view):
    view.bundles[0] &= ~0b0001


@pytest.mark.parametrize("edit,error,message", [
    (_edit_move, MPBViolation, "round broke the equilibrium at agent 1"),
    (_edit_high, MPBViolation, "round broke the equilibrium at agent 1"),
    (_edit_earning, LemmaViolation,
     "earning of uninvolved agent 1 changed during the round"),
    # the partition is checked on the changed agent 0 alone
    (_edit_stray, InternalInvariant,
     "a bundle mask has a bit outside chores 0..3"),
    (_edit_share, InternalInvariant, "two bundles share a chore"),
    (_edit_share_both, InternalInvariant, "two bundles share a chore"),
    (_edit_drop, InternalInvariant, "some chore is in no bundle"),
])
def test_check_round_catches_an_edit_between_two_checks(edit, error,
                                                        message):
    inst = owned_instance(2, [0, 0, 1, 1])
    view = MarketView(build_market_state(inst, (0b0011, 0b1100), 0))
    assert view.check_round("round", ()) == [2, 2]
    edit(view)
    for _ in range(2):  # a failed check leaves nothing behind
        with pytest.raises(error) as caught:
            view.check_round("round", {0})
        assert str(caught.value) == message


def test_move_rejects_a_chore_outside_the_receivers_mpb_set():
    # chore 1 costs agent 1 k at payment 1; the bundles stay as they were
    inst = owned_instance(2, [0, 0, 1, 1])
    view = MarketView(build_market_state(inst, (0b0011, 0b1100), 0))
    with pytest.raises(MPBViolation) as caught:
        view.move(1, 0, 1)
    assert str(caught.value) == "chore 1 is not ratio-minimal for agent 1"
    assert view.bundles == [0b0011, 0b1100]


def _solver_states(inst):
    """The entry market of the instance's pEF1 run, and the (bundles, high)
    of each market along the run from the entry on."""
    final = run_pef1(inst)
    entry = final.entry
    rounds = _Rounds(entry, final.groups)
    states = [(list(entry.bundles), entry.high)]

    def trade(view, round_no, b, l):
        events = rounds.trade(view, round_no, b, l)
        states.append((view.bundles[:], view.high))
        return events
    reallocate(entry, rounds.find, trade, "payment", final.round_count)
    return entry, states


@st.composite
def _view_edits(draw):
    """A step on a view: a solver round, a legal move, a raise, or an edit
    that may break the partition, an MPB set or an earning; then the
    touched agents and whether to adopt the earnings a passing check
    returns."""
    kind = draw(st.sampled_from((
        "solver", "move", "raise", "flip", "share", "twin", "drop", "stray",
        "force", "earn", "sync", "undo")))
    touched = draw(st.one_of(st.just(set(range(6))),
                             st.sets(st.integers(0, 5))))
    return kind, draw(st.integers(0, 63)), draw(st.integers(0, 63)), \
        touched, draw(st.booleans())


def _apply(view, kind, x, y, good, solver):
    n, m = view.n, view.instance.m
    e, u, v = x % m, y % n, (x + y) % n
    bit = 1 << e
    owner = next((a for a in range(n) if view.bundles[a] & bit), None)
    if kind == "solver":  # the masks after some round of the pEF1 run
        bundles, view.high = solver[x % len(solver)]
        view.bundles[:] = bundles
    elif kind == "move":  # a chore goes to an agent it is ratio-minimal for
        legal = [(c, a) for c in range(m) for a in range(n)
                 if a != v and view.bundles[a] >> c & 1
                 and view.mpb(v) >> c & 1]
        if legal:
            c, a = legal[x % len(legal)]
            view.move(c, a, v)
    elif kind == "raise":  # u's bundle starts paying k
        view.high |= view.bundles[u]
    elif kind == "flip":
        view.high ^= bit
    elif kind == "share":
        view.bundles[u] |= bit
    elif kind == "twin" and owner not in (None, u) and view.bundles[u]:
        # u takes e and its owner a chore of u's: the union is unchanged
        view.bundles[owner] |= view.bundles[u] & -view.bundles[u]
        view.bundles[u] |= bit
    elif kind == "drop":
        view.bundles[u] &= ~bit
    elif kind == "stray":
        view.bundles[u] |= 1 << (m + x % 3)
    elif kind == "force" and owner is not None:  # a move without its check
        view.bundles[owner] ^= bit
        view.bundles[u] |= bit
    elif kind == "earn":
        view.earn_units[u] += 1 + x % 2
    elif kind == "sync":  # earn_units as the masks give them
        view.earn_units = [view.earning(a) for a in range(n)]
    elif kind == "undo":  # back to the masks of the last passing check
        bundles, view.high = good
        view.bundles[:] = bundles


@given(generated_instances(max_n=6, max_m=9),
       st.lists(_view_edits(), min_size=1, max_size=12),
       st.sampled_from(("round", "exchange", "trade")))
@settings(max_examples=150)
def test_check_round_matches_the_full_recheck(inst, steps, noun):
    entry, solver = _solver_states(inst)
    view = MarketView(entry)
    good = solver[0]
    for kind, x, y, touched, adopt in steps:
        _apply(view, kind, x, y, good, solver)
        want = _outcome(full_check_round, view, noun, touched)
        assert _outcome(view.check_round, noun, touched) == want
        if isinstance(want, list):
            good = (view.bundles[:], view.high)
            if adopt:  # as the stages do after a checked step
                view.earn_units = want


@st.composite
def kernel_moves(draw):
    """An instance, a partial allocation (None for an unheld chore) and
    up to 30 (chore, agent) moves: each takes the chore back from its
    holder when it is held, and gives it to the agent otherwise."""
    inst = draw(instances(max_n=4, max_m=8))
    agents = st.integers(0, inst.n - 1)
    start = draw(st.lists(st.none() | agents, min_size=inst.m,
                          max_size=inst.m))
    moves = draw(st.lists(st.tuples(st.integers(0, inst.m - 1), agents),
                          max_size=30))
    return inst, start, moves


@given(kernel_moves())
@settings(max_examples=60)
def test_give_and_take_keep_the_kernel_a_fresh_build(case):
    inst, holder, moves = case
    n, m = inst.n, inst.m

    def bundles():
        return [sum(1 << e for e, o in enumerate(holder) if o == i)
                for i in range(n)]

    kernel = EnvyKernel(inst, bundles())
    for e, agent in moves:
        if holder[e] is None:
            kernel.give(e, agent)
            holder[e] = agent
        else:
            kernel.take(e, holder[e])
            holder[e] = None
        fresh = EnvyKernel(inst, bundles())
        assert (kernel.bundles, kernel.cost, kernel.cheapest) == \
            (fresh.bundles, fresh.cost, fresh.cheapest)
        # and each cost, summed chore by chore
        assert kernel.cost == [[sum(unit_cost(inst, i, c) for c in range(m)
                                    if holder[c] == j) for j in range(n)]
                               for i in range(n)]
    for e in range(m):  # take every chore still held back
        if holder[e] is not None:
            kernel.take(e, holder[e])
    assert (kernel.bundles, kernel.cost, kernel.cheapest) == \
        ([0] * n, [[0] * n for _ in range(n)], [0] * n)
