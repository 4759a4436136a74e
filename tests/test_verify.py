"""Fairness verifiers against naive Fraction-arithmetic references."""

from fractions import Fraction
from itertools import product

from hypothesis import example, given, settings, strategies as st

from chorefair import Instance, check_equilibrium, check_pEF1, min_beta_EFX
from chorefair.approx_efx import strong_envy_target
from chorefair.efx_k2 import efx_violation
from chorefair.model import EnvyKernel, bundle_masks
from chorefair.verify import (
    FairnessVerdict,
    UNBOUNDED,
    Witness,
    beta_le,
    BetaResult,
    check_EF1,
    kernel_beta_EFX,
    min_beta_pEFX,
)

from conftest import (K_VALUES, high_matrices, instances, market_from_parts,
                      owned_instance, unit_cost)
from test_oracle import _cost_matrix, _exact_efx


def naive_beta_efx(inst, owner):
    """Smallest beta with cost(X_i - e) <= beta * cost_i(X_j) for all i,j,e."""
    bundles = [[e for e in range(inst.m) if owner[e] == i]
               for i in range(inst.n)]
    best = Fraction(1)
    for i, j in product(range(inst.n), repeat=2):
        if i == j or not bundles[i]:
            continue
        worst = max(
            sum((inst.cost(i, f) for f in bundles[i] if f != e), Fraction(0))
            for e in bundles[i])
        if worst == 0:
            continue
        envied = sum((inst.cost(i, e) for e in bundles[j]), Fraction(0))
        if envied == 0:
            return UNBOUNDED
        best = max(best, worst / envied)
    return best


def naive_ef1_holds(inst, owner):
    bundles = [[e for e in range(inst.m) if owner[e] == i]
               for i in range(inst.n)]
    for i, j in product(range(inst.n), repeat=2):
        if i == j:
            continue
        mine = sum((inst.cost(i, e) for e in bundles[i]), Fraction(0))
        after_drop = mine - max(
            (inst.cost(i, e) for e in bundles[i]), default=Fraction(0))
        envied = sum((inst.cost(i, e) for e in bundles[j]), Fraction(0))
        if after_drop > envied:
            return False
    return True


def _state(inst, owner, high_pay=()):
    return market_from_parts(inst, owner, frozenset(high_pay))


def test_beta_le_orders_unbounded_last():
    assert beta_le(Fraction(3, 2), Fraction(2))
    assert beta_le(Fraction(2), UNBOUNDED)
    assert not beta_le(UNBOUNDED, Fraction(2))
    assert beta_le(UNBOUNDED, UNBOUNDED)


def test_equilibrium_detects_off_mpb_holding():
    inst = owned_instance(2, [0, 1])
    good = _state(inst, [0, 1])
    assert check_equilibrium(good).holds
    bad = _state(inst, [1, 0])  # each agent holds the other's cheap chore
    verdict = check_equilibrium(bad)
    assert not verdict.holds
    assert verdict.witness.agent == 0
    assert verdict.witness.item == 1


def test_pef1_witness_names_the_binding_pair():
    # agent 0 earns 3 with top payment 1; agent 1 earns 1
    inst = owned_instance(2, [0, 0, 0, 1])
    state = _state(inst, [0, 0, 0, 1])
    verdict = check_pEF1(state)
    assert not verdict.holds
    assert (verdict.witness.agent, verdict.witness.other) == (0, 1)
    assert verdict.witness.lhs == Fraction(2)
    assert verdict.witness.rhs == Fraction(1)


def test_pef1_holds_with_empty_bundle_present():
    # hat earning of a singleton bundle is 0, so an empty agent is fine
    from chorefair import Instance
    inst = Instance(2, 1, Fraction(2), ((False,), (False,)))
    state = _state(inst, [0])
    assert check_pEF1(state).holds


def test_min_beta_pefx_unbounded_against_empty_bundle():
    inst = owned_instance(2, [0, 0, 1])
    state = _state(inst, [0, 0, 0])
    result = min_beta_pEFX(state)
    assert result.value is UNBOUNDED
    assert result.binding_pair == (0, 1)


def test_min_beta_clamps_below_one():
    inst = owned_instance(2, [0, 1])
    state = _state(inst, [0, 1])
    assert min_beta_pEFX(state).value == Fraction(1)
    assert min_beta_pEFX(state).binding_pair is None


def test_min_beta_pefx_exact_ratio():
    # agent 0 keeps payments (1, 1, 1); worst residual 2 against earning 1
    inst = owned_instance(2, [0, 0, 0, 1])
    state = _state(inst, [0, 0, 0, 1])
    assert min_beta_pEFX(state).value == Fraction(2)


def test_ef1_vs_pef1_can_disagree_under_payments():
    # payments say pEF1 fails but the cost view is EF1: agent 0's chores
    # are paid 2 each yet cost it 1 each.
    inst = owned_instance(2, [0, 0, 1], rows={1: [True, True, False]})
    state = _state(inst, [0, 0, 1], high_pay={0, 1})
    assert not check_pEF1(state).holds
    assert check_EF1(state).holds


@given(instances(max_n=4, max_m=6), st.data())
def test_ef1_matches_naive(inst, data):
    owner = tuple(
        data.draw(st.integers(0, inst.n - 1), label=f"owner[{e}]")
        for e in range(inst.m))
    got = check_EF1(_state(inst, owner)).holds
    assert got == naive_ef1_holds(inst, owner)


@given(instances(max_n=4, max_m=6), st.data())
def test_efx_beta_matches_naive(inst, data):
    owner = tuple(
        data.draw(st.integers(0, inst.n - 1), label=f"owner[{e}]")
        for e in range(inst.m))
    got = min_beta_EFX(_state(inst, owner)).value
    want = naive_beta_efx(inst, owner)
    if want is UNBOUNDED:
        assert got is UNBOUNDED
    else:
        assert got == max(want, Fraction(1))


@given(instances(max_n=4, max_m=6), st.data())
def test_beta_one_implies_no_strong_envy_anywhere(inst, data):
    owner = tuple(
        data.draw(st.integers(0, inst.n - 1)) for e in range(inst.m))
    result = min_beta_EFX(_state(inst, owner))
    if result.value == Fraction(1):
        assert naive_beta_efx(inst, owner) in (Fraction(1), Fraction(0)) or \
            naive_beta_efx(inst, owner) <= Fraction(1)


def test_witness_reproduces_violated_inequality():
    inst = owned_instance(3, [0, 0, 0, 1, 2])
    verdict = check_pEF1(_state(inst, [0, 0, 0, 1, 2]))
    w = verdict.witness
    assert w is not None
    assert w.lhs > w.rhs


def naive_ef1(inst, owner):
    """check_EF1 by a per-chore scan: the first (i, j) in order failing EF1,
    dropping the first chore of largest cost in i's bundle."""
    bundles = [[e for e in range(inst.m) if owner[e] == i]
               for i in range(inst.n)]
    for i, j in product(range(inst.n), repeat=2):
        if i == j or not bundles[i]:
            continue
        top = max(unit_cost(inst, i, e) for e in bundles[i])
        lhs = sum(unit_cost(inst, i, e) for e in bundles[i]) - top
        rhs = sum(unit_cost(inst, i, e) for e in bundles[j])
        if lhs > rhs:
            drop = next(e for e in bundles[i] if unit_cost(inst, i, e) == top)
            return FairnessVerdict(False, Witness(
                i, j, drop, Fraction(lhs, inst.unit), Fraction(rhs, inst.unit)))
    return FairnessVerdict(True, None)


@st.composite
def owned_instances(draw):
    """An instance with an owner vector; small agent counts against up to
    eight chores make empty bundles and singletons common."""
    inst = draw(instances(max_n=5, max_m=8))
    owner = tuple(draw(st.lists(st.integers(0, inst.n - 1),
                                min_size=inst.m, max_size=inst.m)))
    return inst, owner


@given(owned_instances())
@example((owned_instance(3, [0, 1, 2, 0]), (0, 0, 0, 0)))  # two empty
@example((owned_instance(2, [0, 1, 2]), (2, 0, 1)))  # all singletons
def test_envy_kernel_matches_the_oracle_reference(case):
    inst, owner = case
    kernel = EnvyKernel(inst, bundle_masks(owner, inst.n))
    assert kernel.cost == _cost_matrix(inst, owner)
    market = _state(inst, owner)
    assert min_beta_EFX(market).value == naive_beta_efx(inst, owner)
    assert (efx_violation(market) is None) == _exact_efx(inst, owner)
    assert check_EF1(market) == naive_ef1(inst, owner)


def _pay(inst, high_pay, e):
    return inst.k if e in high_pay else Fraction(1)


def naive_equilibrium(inst, owner, high_pay):
    """check_equilibrium by a per-chore scan: the first agent holding a chore
    whose cost-to-payment ratio exceeds the agent's least ratio alpha_i."""
    for i in range(inst.n):
        ratios = [inst.cost(i, e) / _pay(inst, high_pay, e)
                  for e in range(inst.m)]
        alpha = min(ratios)
        for e in range(inst.m):
            if owner[e] == i and ratios[e] != alpha:
                return FairnessVerdict(False, Witness(i, None, e, ratios[e], alpha))
    return FairnessVerdict(True, None)


def _bundle_pays(inst, owner, high_pay):
    return [[(_pay(inst, high_pay, e), e) for e in range(inst.m) if owner[e] == i]
            for i in range(inst.n)]


def naive_pef1(inst, owner, high_pay):
    """check_pEF1 by a per-chore scan, dropping the first chore of largest
    payment from i's bundle."""
    pays = _bundle_pays(inst, owner, high_pay)
    earn = [sum((p for p, _ in b), Fraction(0)) for b in pays]
    for i, j in product(range(inst.n), repeat=2):
        if i == j or not pays[i]:
            continue
        top = max(p for p, _ in pays[i])
        if earn[i] - top > earn[j]:
            drop = next(e for p, e in pays[i] if p == top)
            return FairnessVerdict(False, Witness(i, j, drop, earn[i] - top, earn[j]))
    return FairnessVerdict(True, None)


def naive_beta_pefx(inst, owner, high_pay):
    """min_beta_pEFX by a per-chore scan: the first pair of largest ratio of
    p(X_i) less its cheapest payment to p(X_j), clamped to 1."""
    pays = _bundle_pays(inst, owner, high_pay)
    earn = [sum((p for p, _ in b), Fraction(0)) for b in pays]
    best, pair = None, None
    for i, j in product(range(inst.n), repeat=2):
        if i == j or not pays[i]:
            continue
        residual = earn[i] - min(p for p, _ in pays[i])
        if residual == 0:
            continue
        if earn[j] == 0:
            return UNBOUNDED, (i, j)
        if best is None or residual / earn[j] > best:
            best, pair = residual / earn[j], (i, j)
    if best is None or best < 1:
        return Fraction(1), None
    return best, pair


@st.composite
def paid_markets(draw):
    """An instance with an owner vector and a set of payment-k chores."""
    inst, owner = draw(owned_instances())
    high_pay = frozenset(e for e in range(inst.m) if draw(st.booleans()))
    return inst, owner, high_pay


@given(paid_markets())
@example((owned_instance(3, [0, 1, 2, 0]), (0, 0, 0, 0), frozenset({1})))
@example((owned_instance(3, [0, 1, 2, 0]), (1, 1, 0, 1), frozenset({0, 3})))
@example((owned_instance(2, [0, 1, 2]), (2, 0, 1), frozenset()))
@example((owned_instance(2, [0, 1, 2]), (0, 1, 2), frozenset({0, 1, 2})))
def test_payment_verifiers_match_a_per_chore_reference(case):
    inst, owner, high_pay = case
    market = _state(inst, owner, high_pay)
    assert check_equilibrium(market) == naive_equilibrium(inst, owner, high_pay)
    assert check_pEF1(market) == naive_pef1(inst, owner, high_pay)
    result = min_beta_pEFX(market)
    assert (result.value, result.binding_pair) == \
        naive_beta_pefx(inst, owner, high_pay)


# -- the O(n^2) pair loops that the row-minimum scans replaced, kept as the
# reference: each visits every ordered pair (i, j) in order

def pairwise_min_beta(residuals, against):
    best_num, best_den = 0, 1
    best_pair = None
    for i, num in enumerate(residuals):
        if num == 0:
            continue
        for j, den in enumerate(against(i)):
            if i == j:
                continue
            if den == 0:
                return BetaResult(UNBOUNDED, (i, j))
            if best_pair is None or num * best_den > best_num * den:
                best_num, best_den, best_pair = num, den, (i, j)
    if best_pair is None or best_num < best_den:
        return BetaResult(Fraction(1), None)
    return BetaResult(Fraction(best_num, best_den), best_pair)


def pairwise_kernel_beta(kernel):
    return pairwise_min_beta([kernel.residual(i)
                              for i in range(len(kernel.cost))],
                             kernel.cost.__getitem__)


def pairwise_beta_pefx(state):
    q, p = state.pay_low, state.pay_high
    residuals = [earn - ((q if b & ~state.high else p) if b else 0)
                 for b, earn in zip(state.bundles, state.earn_units)]
    return pairwise_min_beta(residuals, lambda i: state.earn_units)


def pairwise_ef1(state):
    instance, bundles, kernel = state.instance, state.bundles, state.kernel
    p, q = instance.high_units, instance.unit
    for i, row in enumerate(kernel.cost):
        costly = bundles[i] & ~instance.low_masks[i]
        lhs_units = row[i] - (p if costly else q if bundles[i] else 0)
        for j, rhs_units in enumerate(row):
            if j != i and lhs_units > rhs_units:
                top = costly or bundles[i]
                drop = (top & -top).bit_length() - 1
                return FairnessVerdict(False, Witness(
                    i, j, drop, Fraction(lhs_units, q),
                    Fraction(rhs_units, q)))
    return FairnessVerdict(True, None)


def pairwise_strong_envy_target(market):
    p, q = market.pay_high, market.pay_low
    earn = market.earn_units
    kernel = market.kernel
    for i, row in enumerate(kernel.cost):
        lhs = p * kernel.residual(i)
        targets = [j for j, c in enumerate(row)
                   if j != i and lhs > (2 * p - q) * c]
        if targets:
            return i, min(targets, key=lambda j: (earn[j], j))
    return None


@st.composite
def paid_states(draw):
    """A market of a drawn owner vector and payment-k set; agent counts of 1
    and 2 are drawn often, and few chores leave bundles empty."""
    n = draw(st.sampled_from((1, 2, 2, 3, 4, 5)))
    m = draw(st.integers(1, 7))
    inst = Instance(n, m, draw(st.sampled_from(K_VALUES)),
                    draw(high_matrices(n, m)))
    owner = draw(st.lists(st.integers(0, n - 1), min_size=inst.m,
                          max_size=inst.m))
    high_pay = draw(st.sets(st.integers(0, inst.m - 1)))
    return _state(inst, owner, high_pay)


@given(paid_states())
@example(_state(owned_instance(2, [0, 0, 0]), [0, 0, 0]))  # one agent
@example(_state(owned_instance(2, [0, 0, 1]), [0, 0, 0]))  # an empty bundle
@example(_state(owned_instance(2, [0, 1, 2, 0, 1, 2]),
                [0, 1, 2, 0, 1, 2]))  # every pair ties
@settings(max_examples=300)
def test_row_minimum_scans_match_the_pairwise_loops(market):
    assert min_beta_EFX(market) == pairwise_kernel_beta(market.kernel)
    assert min_beta_pEFX(market) == pairwise_beta_pefx(market)
    assert check_EF1(market) == pairwise_ef1(market)
    assert strong_envy_target(market) == pairwise_strong_envy_target(market)


def bare_kernel(cost, cheapest):
    """An EnvyKernel of an integer matrix, with heavy ties and zero columns
    that no instance of a few chores produces.  As in every kernel, an
    agent's cheapest own chore is positive iff its own bundle costs it
    something, and costs at most that."""
    kernel = EnvyKernel.__new__(EnvyKernel)
    kernel.cost, kernel.cheapest = cost, cheapest
    return kernel


@st.composite
def integer_kernels(draw):
    n = draw(st.integers(1, 6))
    entries = st.integers(0, 3)
    cost = [draw(st.lists(entries, min_size=n, max_size=n))
            for _ in range(n)]
    cheapest = [draw(st.integers(min(1, row[i]), row[i]))
                for i, row in enumerate(cost)]
    return bare_kernel(cost, cheapest)


@given(integer_kernels())
@example(bare_kernel([[2, 0, 0], [0, 1, 0], [1, 1, 1]], [1, 1, 1]))
@example(bare_kernel([[3, 1, 1], [1, 3, 1], [1, 1, 3]], [1, 1, 1]))
@settings(max_examples=300)
def test_kernel_beta_matches_the_pairwise_loop_on_any_matrix(kernel):
    assert kernel_beta_EFX(kernel) == pairwise_kernel_beta(kernel)
