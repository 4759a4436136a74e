"""Fairness verifiers: equilibrium, EF1, pEF1, and the minimal EFX factors.

Each check returns either a verdict with a reproducible witness (the first
violating tuple in lexicographic order) or an exact minimal factor.  Pareto
optimality is deliberately not decided here; see oracle.py for the
exhaustive check.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from operator import getitem, sub
from typing import Iterable

from .model import ONE, CheckedRecord, EnvyKernel, MarketState


class Unbounded:
    """Distinct result for ratios with empty comparison bundles; not a number."""
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unbounded"


UNBOUNDED = Unbounded()


def beta_le(a, b) -> bool:
    """Compare two factor values, treating Unbounded as +infinity."""
    if isinstance(b, Unbounded):
        return True
    if isinstance(a, Unbounded):
        return False
    return a <= b


class Witness(namedtuple("Witness", "agent other item lhs rhs")):
    """The tuple that reproduces a violated inequality: lhs > rhs."""
    __slots__ = ()


class FairnessVerdict(CheckedRecord,
                      namedtuple("FairnessVerdict", "holds witness")):
    """Whether a notion holds; when it does not, the witness of the first
    violation."""
    __slots__ = ()

    def __new__(cls, holds: bool, witness: Witness | None):
        assert holds == (witness is None)
        return super().__new__(cls, holds, witness)


class BetaResult(namedtuple("BetaResult", "value binding_pair")):
    """Minimal factor for which the corresponding beta-notion holds."""
    __slots__ = ()


_OK = FairnessVerdict(holds=True, witness=None)


def check_equilibrium(state: MarketState) -> FairnessVerdict:
    """Every agent's bundle must sit inside its minimal pain-per-buck set."""
    for i, bundle in enumerate(state.bundles):
        stray = bundle & ~state.mpb(i)
        if stray:
            e = (stray & -stray).bit_length() - 1
            k = state.instance.k
            lhs = state.instance.cost(i, e) / (k if state.high >> e & 1 else 1)
            alpha = 1 / k if state.raised(i) else Fraction(1)
            return FairnessVerdict(False, Witness(i, None, e, lhs, alpha))
    return _OK


def check_pEF1(state: MarketState) -> FairnessVerdict:
    """Payment envy-freeness up to one chore.

    Holds iff for every pair i != j with X_i nonempty, dropping i's largest
    payment leaves earning at most p(X_j).  Since hat(i) <= p(X_i), the pair
    (i, i) never fails, so the first failing i is the first whose hat
    exceeds the smallest earning.
    """
    earn = state.earn_units
    hats = state.hats(earn)
    floor = min(earn)
    for i, hat in enumerate(hats):
        if hat > floor:
            j = next(j for j, e in enumerate(earn) if hat > e)
            # the first chore of largest payment in i's bundle
            top = state.bundles[i] & state.high or state.bundles[i]
            return FairnessVerdict(False, Witness(
                i, j, (top & -top).bit_length() - 1,
                Fraction(hat, state.pay_low), Fraction(earn[j], state.pay_low)))
    return _OK


def min_beta_pEFX(state: MarketState) -> BetaResult:
    """Smallest beta with p(X_i - e) <= beta * p(X_j) for all pairs and all e.

    The binding removal is always the cheapest chore in X_i.  Unbounded iff
    some agent keeps positive payment after the removal while the compared
    bundle pays nothing.
    """
    q, p = state.pay_low, state.pay_high
    earn = state.earn_units
    # less the cheapest payment: q when some chore of b pays 1
    residuals = [e - ((q if b & ~state.high else p) if b else 0)
                 for b, e in zip(state.bundles, earn)]
    # every pair compares against the same earnings, whose minimum is read once
    return _min_beta(residuals, repeat(earn), min(earn))


def check_EF1(state: MarketState) -> FairnessVerdict:
    """Cost envy-freeness up to one chore (drop the costliest own chore)."""
    instance, bundles, kernel = state.instance, state.bundles, state.kernel
    p, q = instance.high_units, instance.unit
    for i, row in enumerate(kernel.cost):
        costly = bundles[i] & ~instance.low_masks[i]  # i's cost-k chores
        lhs_units = row[i] - (p if costly else q if bundles[i] else 0)
        # lhs_units <= row[i], so i's own column never fails: read the row
        # minimum, and find the first failing j only when some j fails
        if lhs_units > min(row):
            j = next(j for j, rhs_units in enumerate(row)
                     if lhs_units > rhs_units)
            # the first chore of largest cost in i's bundle
            top = costly or bundles[i]
            drop = (top & -top).bit_length() - 1
            return FairnessVerdict(False, Witness(
                i, j, drop, Fraction(lhs_units, q), Fraction(row[j], q)))
    return _OK


def min_beta_EFX(state: MarketState) -> BetaResult:
    """Smallest beta with c_i(X_i - e) <= beta * c_i(X_j) for all pairs, all e."""
    return kernel_beta_EFX(state.kernel)


def kernel_beta_EFX(kernel: EnvyKernel) -> BetaResult:
    """min_beta_EFX read off an envy kernel alone, for callers (the oracle)
    that score bundles without building a market."""
    cost = kernel.cost
    # each kernel.residual(i), read at C speed off the diagonal
    residuals = map(sub, map(getitem, cost, range(len(cost))), kernel.cheapest)
    return _min_beta(residuals, cost)


def _min_beta(residuals: Iterable[int], rows: Iterable[list[int]],
              low: int | None = None) -> BetaResult:
    """Shared scan: maximize residuals[i]/rows[i][j] over ordered pairs
    i != j.  low, when given, is the minimum of every row.

    A positive residuals[i] is below rows[i][i] (the cheapest chore or
    payment is dropped from it), so i's own column only yields ratios below
    1, where beta is clamped, and never a zero.  Row i's best ratio is
    therefore residuals[i]/min(rows[i]) wherever it matters, taken at the
    first j holding that minimum, which is not i.  Ratios are compared by
    cross-multiplying their integer parts; the first maximal pair wins and
    one Fraction is built at the end.
    """
    best_num, best_den, best_i, best_row = 0, 1, None, None
    for i, (num, row) in enumerate(zip(residuals, rows)):
        if num == 0:
            continue  # removing the cheapest chore clears the bundle's excess
        den = min(row) if low is None else low
        if den == 0:
            return BetaResult(UNBOUNDED, (i, row.index(0)))
        if best_row is None or num * best_den > best_num * den:
            best_num, best_den, best_i, best_row = num, den, i, row
    if best_row is None or best_num < best_den:
        # beta is defined for beta >= 1; with no pair forcing more the notion
        # holds vacuously at 1 (single agent, no envy, or all singletons)
        return BetaResult(ONE, None)
    return BetaResult(Fraction(best_num, best_den),
                      (best_i, best_row.index(best_den)))

