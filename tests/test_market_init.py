"""Entry equilibrium: forced allocation, chains, groups."""

from collections import deque
from fractions import Fraction
from itertools import cycle

import pytest
from hypothesis import given, strategies as st

from chorefair import Instance, normalize_instance
from chorefair import market_init
from chorefair.errors import (GroupPropertyViolation, InternalInvariant,
                              IterationCapExceeded)
from chorefair.harness import GenParams, gen_instance
from chorefair.market_init import (
    AgentGroups,
    _assert_group_properties,
    _best_chain,
    _ChainView,
    _fire,
    build_initial_state,
    partition_agent_groups,
    resolve_overpaid_paths,
)
from chorefair.model import MarketView, bits

from conftest import (K_VALUES, generated_instances, market_from_parts,
                      owned_instance, rotation_instance,
                      skewed_owned_instance)


def violating_chain(state):
    """The chain resolution would fire next on state; None at the fixed
    point."""
    return _best_chain(_ChainView(state))


class ReferenceChainView(MarketView):
    """The chain view on model.bits generators, with every chain agent's
    succ rebuilt from its bundle after a fire: the reference for the
    bitmask loops, the earning levels, the head's stale succ and the
    tail's grow-only update in _ChainView."""

    def __init__(self, state):
        super().__init__(state)
        self.takers = [0] * state.instance.m
        for v in range(self.n):
            for e in bits(self.mpb(v)):
                self.takers[e] |= 1 << v
        self.succ = [0] * self.n
        for u in range(self.n):
            self.refresh(u)

    def refresh(self, u):
        self.earn_units[u] = self.earning(u)
        reach = 0
        for e in bits(self.bundles[u]):
            reach |= self.takers[e]
        self.succ[u] = reach & ~(1 << u)

    def hat(self, i):
        return self.earn_units[i] - self.top_pay(i)


def reference_shortest_chain_from(view, i, max_len):
    hat_i = view.hat(i)
    seen = frontier = 1 << i
    layers = [frontier]
    while len(layers) < max_len:
        reached = 0
        for u in bits(frontier):
            reached |= view.succ[u]
        frontier = reached & ~seen
        if not frontier:
            return None
        hit = next((v for v in bits(frontier)
                    if hat_i > view.earn_units[v]), None)
        if hit is not None:
            path = [hit]
            for layer in reversed(layers):
                v = path[-1]
                path.append(next(u for u in bits(layer)
                                 if view.succ[u] >> v & 1))
            return path[::-1]
        seen |= frontier
        layers.append(frontier)
    return None


def reference_best_chain(view):
    best = None
    floor = min(view.earn_units)
    for i in range(view.n):
        if view.hat(i) <= floor:
            continue
        chain = reference_shortest_chain_from(
            view, i, view.n if best is None else len(best) - 1)
        if chain is not None:
            best = chain
            if len(best) == 2:
                break
    return best


def reference_fire(view, chain):
    for s in range(len(chain) - 2, -1, -1):
        u, v = chain[s], chain[s + 1]
        options = view.bundles[u] & view.mpb(v)
        low = options & ~view.high
        pick = low or options
        view.move((pick & -pick).bit_length() - 1, u, v)
    for u in chain:
        view.refresh(u)


def reference_chains(state):
    """The chains the reference fires from state to its fixed point, in
    order, and the bundles it ends at."""
    view = ReferenceChainView(state)
    fired = []
    while (chain := reference_best_chain(view)) is not None:
        fired.append(chain)
        reference_fire(view, chain)
    return fired, tuple(view.bundles)


def potential(view):
    """Sum of squared earnings, which every direct fire strictly lowers."""
    return sum(units * units for units in view.earn_units)


def fired_chains(state):
    """The same for the solver's view.  After every fire, its earnings and
    earning levels equal those of a view built afresh on its bundles, and
    so does the succ mask of every agent outside view.stale; a stale
    agent's succ is a superset of the fresh one.  Whenever _best_chain has
    run its searches (it returns None or a multi-hop chain), it has
    refreshed every stale agent first, so all succ masks are exact.  Every
    direct fire strictly lowers the potential."""
    view = _ChainView(state)
    reference = ReferenceChainView(state)
    assert (view.takers, view.succ) == (reference.takers, reference.succ)
    fired = []
    while True:
        chain = _best_chain(view)
        if chain is None or len(chain) > 2:
            assert view.stale == 0
            assert view.succ == _ChainView(view.market()).succ
        if chain is None:
            break
        fired.append(chain)
        before = potential(view)
        _fire(view, chain)
        if len(chain) == 2:
            assert potential(view) < before
        fresh = _ChainView(view.market())
        assert view.earn_units == fresh.earn_units
        assert view.levels == fresh.levels
        for u in range(view.n):
            if view.stale >> u & 1:
                assert view.succ[u] | fresh.succ[u] == view.succ[u]
            else:
                assert view.succ[u] == fresh.succ[u]
    return fired, tuple(view.bundles)


def assert_fires_like_the_reference(state):
    """The solver fires the reference's chains in the reference's order;
    returns them."""
    fired, end = fired_chains(state)
    assert (fired, end) == reference_chains(state)
    assert resolve_overpaid_paths(state).bundles == end
    return fired


def low_sets(*lows_per_item):
    """Instance from 'which agents cost 1 on item e' sets."""
    n = max(a for s in lows_per_item for a in s) + 1
    high = tuple(
        tuple(i not in s for s in lows_per_item) for i in range(n))
    return Instance(n, len(lows_per_item), Fraction(2), high)


def test_initial_state_assigns_low_items_to_smallest_low_agent():
    inst = Instance(2, 3, Fraction(2), ((False, True, True),
                                        (False, False, True)))
    state = build_initial_state(inst)
    assert state.allocation.owner[0] == 0
    assert state.allocation.owner[1] == 1
    # the all-high chore is paid k and goes to the min earner
    assert state.allocation.owner[2] == 0
    assert state.high == 0b100  # payments (1, 1, 2)
    assert not state.raised(0) and not state.raised(1)  # ratios 1


def test_single_hop_chain_moves_shared_low_chore():
    # a0 starts with everything; item 3 is the only chore a1 costs 1 on
    inst = low_sets({0}, {0}, {0}, {0, 1})
    entry = build_initial_state(inst)
    assert entry.earn_units[0] == 4
    assert violating_chain(entry) == [0, 1]
    resolved = resolve_overpaid_paths(entry)
    assert resolved.allocation.owner[3] == 1
    assert resolved.earn_units[0] == 3
    assert resolved.earn_units[1] == 1
    assert violating_chain(resolved) is None


def test_two_hop_chain_fires_when_no_single_hop_violates():
    # head a0 can spare a chore only for a1, a1 only for a2; both single
    # hops are tight, the composite hat(0) > earning(2) is not
    inst = low_sets({0}, {0}, {0}, {0, 1}, {1, 2}, {1}, {1}, {2}, {2})
    entry = build_initial_state(inst)
    assert [entry.earn_units[i] for i in range(3)] == [4, 3, 2]
    assert violating_chain(entry) == [0, 1, 2]
    assert assert_fires_like_the_reference(entry) == [[0, 1, 2]]
    resolved = resolve_overpaid_paths(entry)
    assert resolved.allocation.owner[3] == 1
    assert resolved.allocation.owner[4] == 2
    assert [resolved.earn_units[i] for i in range(3)] == [3, 3, 3]
    assert violating_chain(resolved) is None


def test_chain_ties_follow_the_smallest_parent_not_the_least_chain():
    # edge chores 0->1, 0->2, 1->4, 2->3, 3->5, 4->5 (held by the first
    # agent, cost 1 to both), then two padding chores per agent
    edges = [{0, 1}, {0, 2}, {1, 4}, {2, 3}, {3, 5}, {4, 5}]
    padding = [{a} for a in range(6) for _ in range(2)]
    entry = build_initial_state(low_sets(*edges, *padding))
    assert [entry.earn_units[i] for i in range(6)] == [4, 3, 3, 3, 3, 2]
    # both [0, 1, 4, 5] and [0, 2, 3, 5] are shortest; agent 5 is first
    # reached from 3, the smaller agent of the second layer {3, 4}, and 3
    # from 2, so the lexicographically larger chain wins
    assert violating_chain(entry) == [0, 2, 3, 5]
    assert assert_fires_like_the_reference(entry)[0] == [0, 2, 3, 5]


def test_a_later_heads_direct_chain_beats_the_first_heads_longer_one():
    # a0 (earning 4) can give only to a1 (3), which is not below hat(0) =
    # 3, so a0's shortest chain is [0, 1, 2]; a1 gives straight to a2 (1)
    inst = low_sets({0, 1}, {0}, {0}, {0}, {1, 2}, {1}, {1}, {2})
    entry = build_initial_state(inst)
    assert [entry.earn_units[i] for i in range(3)] == [4, 3, 1]
    assert violating_chain(entry) == [1, 2]
    assert assert_fires_like_the_reference(entry) == [[1, 2], [0, 1]]


def test_the_searches_run_on_refreshed_succ_when_no_head_gives_directly():
    # a1 gives chore 0, low to a1, a2 and a3, to a3 (a2 earns 2, not below
    # hat(1) = 2); a1 then reaches nobody, but its stale succ still holds
    # a2, through which a0's search would end at a4 (a0 -> a1 -> a2 -> a4)
    inst = low_sets({1, 2, 3}, {1}, {1}, {0, 1}, {0}, {0}, {2, 4}, {2},
                    {3}, {4})
    entry = build_initial_state(inst)
    assert [entry.earn_units[i] for i in range(5)] == [3, 3, 2, 1, 1]
    view = _ChainView(entry)
    _fire(view, _best_chain(view))
    assert (view.stale, view.succ[1]) == (0b00010, 0b01100)
    assert _best_chain(view) is None
    assert (view.stale, view.succ[1]) == (0, 0)
    assert assert_fires_like_the_reference(entry) == [[1, 3]]


def test_a_stale_succ_bit_is_pruned_before_the_next_receiver_is_taken():
    # a0 gives a1 chore 0, the only one a1 costs 1 on; a1 stays below
    # hat(0) and first in a0's stale succ, so a0's next chain goes to a2
    inst = low_sets({0, 1}, {0, 2}, {0}, {0}, {0}, {0}, {1}, {2})
    entry = build_initial_state(inst)
    view = _ChainView(entry)
    _fire(view, _best_chain(view))
    assert (view.stale, view.succ[0]) == (0b001, 0b110)
    assert _best_chain(view) == [0, 2]
    assert view.succ[0] == 0b100
    assert assert_fires_like_the_reference(entry) == [[0, 1], [0, 2]]


def test_a_multi_hop_chain_rebuilds_its_intermediates_succ():
    # the two-hop instance, with a3 also costing 1 on chore 3: a1 takes
    # chore 3 from a0 and hands chore 4 to a2, so a1 now reaches a0 and
    # a3 and no longer a2
    inst = low_sets({0}, {0}, {0}, {0, 1, 3}, {1, 2}, {1}, {1}, {2}, {2},
                    {3}, {3}, {3})
    entry = build_initial_state(inst)
    view = _ChainView(entry)
    assert view.succ[1] == 0b0100
    _fire(view, [0, 1, 2])
    assert (view.stale, view.succ[1]) == (0b0001, 0b1001)
    assert assert_fires_like_the_reference(entry) == [[0, 1, 2]]


def all_low_market(*owners):
    """Every agent costs 1 on every chore, all payments 1; owners[e] holds
    chore e."""
    n = max(owners) + 1
    inst = Instance(n, len(owners), Fraction(2),
                    tuple((False,) * len(owners) for _ in range(n)))
    return market_from_parts(inst, owners, set())


def test_multi_hop_chains_that_undo_each_other_are_caught(monkeypatch):
    # [0, 1, 2] then [2, 1, 0] restores the entry allocation; the one
    # after the first chain recurs after the third
    chains = cycle([[0, 1, 2], [2, 1, 0]])
    calls = []
    monkeypatch.setattr(market_init, "_best_chain",
                        lambda view: calls.append(1) or next(chains))
    with pytest.raises(IterationCapExceeded,
                       match="^chain resolution revisited an allocation$"):
        resolve_overpaid_paths(all_low_market(0, 1, 2))
    assert len(calls) == 3


def test_a_direct_chain_that_keeps_the_potential_raises(monkeypatch):
    # a0 earns 2 and a1 1, so hat(0) = 1 is not above earning(1): moving
    # one chore swaps the earnings and leaves the sum of squares at 5
    monkeypatch.setattr(market_init, "_best_chain", lambda view: [0, 1])
    with pytest.raises(InternalInvariant,
                       match="^direct chain did not lower the sum of "
                             "squared earnings$"):
        resolve_overpaid_paths(all_low_market(0, 0, 1))


CHAIN_KS = (Fraction(2), Fraction(5, 2), Fraction(3), Fraction(5))


@given(generated_instances(max_n=8, max_m=24, ks=CHAIN_KS))
def test_chains_fire_like_the_reference(inst):
    assert_fires_like_the_reference(build_initial_state(inst))


def test_chains_fire_like_the_reference_at_random_dense_size():
    # n = 64, m = 256, each cost k with probability 3/4
    inst = normalize_instance(gen_instance(
        GenParams(64, 256, Fraction(3), Fraction(3, 4), 111)))
    fired = assert_fires_like_the_reference(build_initial_state(inst))
    assert len(fired) > 100


def test_groups_merge_when_a_tight_give_edge_survives():
    # a0 holds chore 2, low to both; hat(0) = 2 = earning(1), so the
    # chain never fires and a1 stays attached to a0's group
    inst = low_sets({0}, {0}, {0, 1}, {1}, {1})
    resolved = resolve_overpaid_paths(build_initial_state(inst))
    assert resolved.allocation.owner == (0, 0, 0, 1, 1)
    groups = partition_agent_groups(resolved)
    assert groups.groups == (frozenset({0, 1}),)
    assert groups.new_to_old == (0, 1)


def test_two_hop_fixpoint_leaves_singleton_groups():
    inst = low_sets({0}, {0}, {0}, {0, 1}, {1, 2}, {1}, {1}, {2}, {2})
    resolved = resolve_overpaid_paths(build_initial_state(inst))
    groups = partition_agent_groups(resolved)
    assert groups.groups == tuple(frozenset({i}) for i in range(3))


def test_groups_stay_singletons_without_cross_edges():
    resolved = resolve_overpaid_paths(
        build_initial_state(rotation_instance()))
    groups = partition_agent_groups(resolved)
    assert groups.groups == tuple(frozenset({i}) for i in range(4))
    assert groups.new_to_old == (0, 1, 2, 3)


def test_group_representatives_ordered_by_entry_hat():
    # two isolated agents, the second one richer: it must head the order
    inst = low_sets({0}, {1}, {1}, {1})
    resolved = resolve_overpaid_paths(build_initial_state(inst))
    groups = partition_agent_groups(resolved)
    assert groups.groups == (frozenset({1}), frozenset({0}))
    assert groups.new_to_old == (1, 0)


@given(generated_instances(max_n=5, max_m=9))
def test_resolution_reaches_a_fixed_point(inst):
    entry = build_initial_state(inst)
    resolved = resolve_overpaid_paths(entry)
    assert violating_chain(resolved) is None
    again = resolve_overpaid_paths(resolved)
    assert again.allocation == resolved.allocation


@given(generated_instances(max_n=5, max_m=9))
def test_resolution_conserves_total_payment(inst):
    entry = build_initial_state(inst)
    resolved = resolve_overpaid_paths(entry)
    n = inst.n
    assert sum(entry.earn_units[i] for i in range(n)) == \
        sum(resolved.earn_units[i] for i in range(n))


@given(generated_instances(max_n=5, max_m=9))
def test_group_index_map_is_a_permutation_tiling_the_groups(inst):
    resolved = resolve_overpaid_paths(build_initial_state(inst))
    groups = partition_agent_groups(resolved)
    assert sorted(groups.new_to_old) == list(range(inst.n))
    # groups tile the agent set in group order
    assert groups.new_to_old == tuple(a for g in groups.groups
                                      for a in sorted(g))


def low_rows(k, m, *rows):
    """Instance from 'which chores cost agent i 1' sets, one per agent."""
    high = tuple(tuple(e not in row for e in range(m)) for row in rows)
    return Instance(len(rows), m, Fraction(k), high)


def test_group_check_rejects_a_later_group_costing_1_on_earlier_chores():
    # a1 is raised by chore 2's payment, so no MPB edge reaches a0's
    # bundle and a1 forms its own later group, yet it costs 1 on chore 1
    state = market_from_parts(low_rows(2, 3, {0, 1}, {1, 2}), (0, 0, 1), {2})
    with pytest.raises(GroupPropertyViolation,
                       match=r"^agent 1 \(later group\) costs 1 on chore 1 "
                             r"held by agent 0 \(earlier group\)$"):
        partition_agent_groups(state)


def test_group_check_rejects_pef1_failing_inside_a_group():
    state = market_from_parts(low_rows(2, 4, {0, 1, 2, 3}, {0, 1, 2, 3}),
                              (0, 0, 0, 1), set())
    with pytest.raises(GroupPropertyViolation,
                       match=r"^pEF1 fails inside a group: hat\(0\)=2 > "
                             r"earning\(1\)=1 \(units\)$"):
        partition_agent_groups(state)


def test_group_check_rejects_a_large_chore_outside_the_last_group():
    # chore 2 costs k to everyone but sits with a0, while the raised a1
    # forms the last group on its own
    state = market_from_parts(low_rows(2, 3, {0}, {1}), (0, 1, 0), {1, 2})
    with pytest.raises(GroupPropertyViolation,
                       match=r"^consistently large chore 2 held outside "
                             r"the last group$"):
        partition_agent_groups(state)


def reference_groups(state):
    """The partition by its definition, on frozensets: repeatedly take the
    largest hat earning among ungrouped agents (ties to the smaller index)
    and add every ungrouped agent with a directed path to it, where x
    points at y iff MPB_x meets y's bundle.  The groups, in order."""
    n = state.instance.n
    owner = state.allocation.owner
    bundles = [frozenset(e for e, o in enumerate(owner) if o == i)
               for i in range(n)]
    hats = [state.hats(state.earn_units)[i] for i in range(n)]
    mpb = [frozenset(e for e in range(state.instance.m)
                     if state.mpb(x) >> e & 1) for x in range(n)]
    ungrouped = set(range(n))
    groups = []
    while ungrouped:
        b = min(ungrouped, key=lambda a: (-hats[a], a))
        members, queue = {b}, deque([b])
        while queue:
            y = queue.popleft()
            for x in ungrouped - members:
                if bundles[y] & mpb[x]:
                    members.add(x)
                    queue.append(x)
        groups.append(frozenset(members))
        ungrouped -= members
    return tuple(groups)


def assert_matches_reference(inst):
    resolved = resolve_overpaid_paths(build_initial_state(inst))
    groups = partition_agent_groups(resolved)
    assert groups.groups == reference_groups(resolved)
    assert groups.new_to_old == tuple(a for g in groups.groups
                                      for a in sorted(g))


@given(generated_instances(max_n=8, max_m=12))
def test_partition_matches_the_frozenset_reference(inst):
    assert_matches_reference(inst)


@given(st.sampled_from(K_VALUES),
       st.lists(st.integers(1, 9), min_size=2, max_size=6),
       st.integers(0, 2**32 - 1),
       st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(1, 3)]))
def test_partition_matches_the_reference_on_skewed_owned_states(
        k, sizes, seed, sprinkle):
    assert_matches_reference(skewed_owned_instance(k, sizes, seed, sprinkle))


def reference_partition(state):
    """The partition as a reverse breadth-first search over a _ChainView's
    succ masks, the algorithm partition_agent_groups used before it read
    the groups off the state's own masks."""
    view = _ChainView(state)
    hats = view.hats(view.earn_units)
    ungrouped = (1 << view.n) - 1
    groups: list[int] = []
    while ungrouped:
        b = min(bits(ungrouped), key=lambda a: (-hats[a], a))
        # reverse reachability to b: the predecessors of y are the agents
        # whose MPB set meets y's bundle, which is succ[y]
        members = frontier = 1 << b
        while frontier:
            reach = 0
            while frontier:
                reach |= view.succ[(frontier & -frontier).bit_length() - 1]
                frontier &= frontier - 1
            frontier = reach & ungrouped & ~members
            members |= frontier
        groups.append(members)
        ungrouped &= ~members

    _assert_group_properties(view, hats, groups)
    return AgentGroups(tuple(frozenset(bits(g)) for g in groups),
                       tuple(a for g in groups for a in bits(g)))


def outcome(partition, state):
    """partition(state), or the text of the GroupPropertyViolation it
    raises."""
    try:
        return partition(state)
    except GroupPropertyViolation as err:
        return f"GroupPropertyViolation: {err}"


def owned_states():
    """Skewed owned instances, as the owned-rounds workload draws them:
    one agent owns many chores, the rest few, and a sprinkle of extra
    cost-1 entries joins some of the small owners into groups."""
    return st.builds(
        skewed_owned_instance, st.sampled_from(K_VALUES),
        st.lists(st.integers(1, 9), min_size=2, max_size=16),
        st.integers(0, 2**32 - 1),
        st.sampled_from([Fraction(0), Fraction(1, 32), Fraction(1, 8)]))


@given(st.one_of(generated_instances(max_n=8, max_m=12), owned_states()),
       st.booleans())
def test_partition_matches_the_chain_view_reference(inst, resolved):
    # entry states are compared too: there pEF1 can fail inside a group,
    # and both must then raise the same violation
    state = build_initial_state(inst)
    if resolved:
        state = resolve_overpaid_paths(state)
    assert outcome(partition_agent_groups, state) == \
        outcome(reference_partition, state)


@pytest.mark.parametrize("seed", [111, 999])
def test_partition_matches_the_reference_on_many_groups(seed):
    # 21 agents whose chores cost 1 to their owner alone, with a few
    # extra cost-1 entries: the resolved state splits into many groups,
    # some of them joined by the extra entries
    inst = skewed_owned_instance(3, [30] + [2] * 20, seed, Fraction(1, 64))
    state = resolve_overpaid_paths(build_initial_state(inst))
    groups = partition_agent_groups(state)
    assert len(groups.groups) > 10
    assert any(len(g) > 1 for g in groups.groups)
    assert groups == reference_partition(state)


def reference_group_check(state, hats, groups):
    """_assert_group_properties as it was before the suffix union: the
    cost-1 masks of every later group are ORed again for each group."""
    low, earn, bundles = state.low_cost, state.earn_units, state.bundles

    def union(masks, group):
        out = 0
        for a in bits(group):
            out |= masks[a]
        return out

    for r, g in enumerate(groups):
        held = union(bundles, g)
        for g2 in groups[r + 1:]:
            if held & union(low, g2):
                i, j = next((i, j) for i in bits(g) for j in bits(g2)
                            if bundles[i] & low[j])
                shared = bundles[i] & low[j]
                raise GroupPropertyViolation(
                    f"agent {j} (later group) costs 1 on chore "
                    f"{(shared & -shared).bit_length() - 1} held by "
                    f"agent {i} (earlier group)")
        members = list(bits(g))
        if max(hats[a] for a in members) > min(earn[a] for a in members):
            i, j = next((i, j) for i in members for j in members
                        if i != j and hats[i] > earn[j])
            raise GroupPropertyViolation(
                f"pEF1 fails inside a group: hat({i})={hats[i]} > "
                f"earning({j})={earn[j]} (units)")
    large = ((1 << state.instance.m) - 1) & ~union(low, (1 << len(low)) - 1)
    stray = large & ~union(bundles, groups[-1])
    if stray:
        raise GroupPropertyViolation(
            f"consistently large chore {(stray & -stray).bit_length() - 1} "
            f"held outside the last group")


@given(st.one_of(generated_instances(max_n=8, max_m=12), owned_states()),
       st.booleans(), st.data())
def test_the_group_check_names_the_quadratic_references_witness(
        inst, resolved, data):
    # any ordered partition of the agents, so that most of them clash
    state = build_initial_state(inst)
    if resolved:
        state = resolve_overpaid_paths(state)
    order = data.draw(st.permutations(range(inst.n)))
    cuts = sorted(data.draw(st.sets(st.integers(1, inst.n - 1))))
    groups = [sum(1 << a for a in order[lo:hi])
              for lo, hi in zip([0, *cuts], [*cuts, inst.n])]
    hats = state.hats(state.earn_units)
    assert outcome(lambda s: _assert_group_properties(s, hats, groups),
                   state) == \
        outcome(lambda s: reference_group_check(s, hats, groups), state)


def test_the_group_check_matches_the_reference_on_crafted_states():
    # the three violations above, under every ordered grouping of 2 agents
    states = [market_from_parts(low_rows(2, 3, {0, 1}, {1, 2}), (0, 0, 1),
                                {2}),
              market_from_parts(low_rows(2, 4, {0, 1, 2, 3}, {0, 1, 2, 3}),
                                (0, 0, 0, 1), set()),
              market_from_parts(low_rows(2, 3, {0}, {1}), (0, 1, 0), {1, 2})]
    seen = set()
    for state in states:
        hats = state.hats(state.earn_units)
        for groups in ([1, 2], [2, 1], [3]):
            got = outcome(lambda s: _assert_group_properties(s, hats, groups),
                          state)
            assert got == outcome(
                lambda s: reference_group_check(s, hats, groups), state)
            seen.add(str(got).split(":")[1].split()[0] if got else None)
    assert seen == {None, "agent", "pEF1", "consistently"}
