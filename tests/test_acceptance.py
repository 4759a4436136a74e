"""Acceptance gate: ten checks, one visible PASS/FAIL line each.

Every numeric claim here is exact rational arithmetic; the only tolerances
are the wall-clock budgets stated alongside the timing checks.
"""

import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from chorefair import (
    AlreadyUniform,
    ChorefairError,
    check_equilibrium,
    check_pEF1,
    min_beta_EFX,
    normalize_instance,
    raw_instance,
    report_fingerprint,
    run_approx_efx,
    run_efx_k2,
    run_pipeline,
)
from chorefair.approx_efx import approx_from_equilibrium, strong_envy_target
from chorefair.efx_k2 import k2_from_equilibrium
from chorefair.errors import (
    GroupPropertyViolation,
    InternalInvariant,
    IterationCapExceeded,
    LemmaViolation,
    MPBViolation,
    MissingIntermediary,
    PreconditionViolated,
    RaiseOverflow,
    TierViolation,
)
from chorefair.harness import GenParams, gen_instance
from chorefair.model import Allocation
from chorefair.oracle import is_pareto_optimal
from chorefair.trace import replay_trace
from chorefair.verify import beta_le, check_EF1, min_beta_pEFX

from conftest import golden6_market, move_market, swap_market

ENGINE_FAULTS = (LemmaViolation, PreconditionViolated, MPBViolation,
                 RaiseOverflow, IterationCapExceeded,
                 MissingIntermediary, InternalInvariant,
                 GroupPropertyViolation, TierViolation)


def emit(capsys, num, detail):
    with capsys.disabled():
        print(f"\nacceptance {num:>2}: PASS  {detail}")


@dataclass
class Record:
    k: Fraction
    inst: object = None
    result: object = None
    error: BaseException | None = None


def _mixed_params():
    ks = (Fraction(2), Fraction(3), Fraction(5, 2))
    probs = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    seed = 0
    while True:
        yield GenParams(2 + seed % 5, 2 + seed % 11, ks[seed % 3],
                        probs[seed % 3], seed)
        seed += 1


def _k2_params():
    probs = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    seed = 500_000
    while True:
        yield GenParams(2 + seed % 5, 2 + seed % 11, Fraction(2),
                        probs[seed % 3], seed)
        seed += 1


def _run_suite(param_iter, runner, count):
    """Solve generated instances until `count` records exist.

    Seeds whose draw degenerates to a uniform matrix are skipped; the
    skip is deterministic, so every run sees the same population.
    """
    records = []
    skipped = 0
    for params in param_iter:
        if len(records) == count:
            break
        try:
            inst = normalize_instance(gen_instance(params))
        except AlreadyUniform:
            skipped += 1
            continue
        rec = Record(k=params.k, inst=inst)
        try:
            rec.result = runner(inst)
        except ChorefairError as err:
            rec.error = err
        records.append(rec)
    return records, skipped


@pytest.fixture(scope="module")
def mixed_suite():
    start = time.perf_counter()
    records, skipped = _run_suite(_mixed_params(), run_approx_efx, 1000)
    return records, skipped, time.perf_counter() - start


@pytest.fixture(scope="module")
def k2_suite():
    start = time.perf_counter()
    records, skipped = _run_suite(_k2_params(), run_efx_k2, 1000)
    return records, skipped, time.perf_counter() - start


@pytest.fixture(scope="module")
def oracle_suite():
    ks = (Fraction(2), Fraction(3))
    start = time.perf_counter()
    records = []
    seed = 900_000
    while len(records) < 200:
        params = GenParams(2 + seed % 3, 2 + seed % 7, ks[seed % 2],
                           Fraction(1, 2), seed)
        seed += 1
        try:
            inst = normalize_instance(gen_instance(params))
        except AlreadyUniform:
            continue
        rec = Record(k=params.k, inst=inst)
        try:
            rec.result = run_pipeline(inst, oracle_budget=1 << 24)
        except ChorefairError as err:
            rec.error = err
        records.append(rec)
    return records, time.perf_counter() - start


def test_c01_high_ratio_exchange_script(capsys):
    market = golden6_market()
    assert strong_envy_target(market) == (6, 0)
    best = min(
        _timed(lambda: approx_from_equilibrium(market)) for _ in range(5))
    elapsed, result = best
    assert len(result.trace) == 1
    assert result.trace[0].kind == "bundle_swap"
    assert result.trace[0].agents == (6, 0)
    assert result.market.earn_units[6] == 4
    assert result.market.earn_units[0] == 6
    for i in (1, 2, 3, 4, 5):
        assert result.market.earn_units[i] == market.earn_units[i]
    assert strong_envy_target(result.market) is None
    assert elapsed < 0.001
    emit(capsys, 1, f"k=6 exchange (6,0), one round, {elapsed * 1e6:.0f}us")


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def test_c02_two_valued_swap_script(capsys):
    market = swap_market()
    result = k2_from_equilibrium(market)
    assert len(result.trace) == 1
    ev = result.trace[0]
    assert ev.kind == "swap"
    assert ev.agents == (4, 0)
    given, taken = ev.items
    assert market.instance.k == 2
    assert market.high >> given & 1  # pays 2
    assert not market.high >> taken & 1  # pays 1
    assert result.market.earn_units[4] == 5
    assert result.market.earn_units[0] == 5
    beta = min_beta_EFX(result.market).value
    assert beta == Fraction(1)
    emit(capsys, 2, "k=2 swap (4,0) payments (2,1), both land on 5, beta=1")


def test_c03_two_valued_move_script(capsys):
    market = move_market()
    result = k2_from_equilibrium(market)
    assert len(result.trace) == 1
    ev = result.trace[0]
    assert ev.kind == "move"
    assert ev.agents == (4, 0)
    assert result.market.earn_units[0] == 6
    assert result.market.earn_units[4] == 4
    final = result.market
    assert not final.bundles[0] & ~final.high  # every chore pays 2
    beta = min_beta_EFX(final).value
    assert beta == Fraction(1)
    emit(capsys, 3, "k=2 move (4,0), receiver 6 all-high, giver 4, EFX exact")


def test_c04_mixed_ratio_sweep(capsys, mixed_suite):
    records, skipped, elapsed = mixed_suite
    assert len(records) == 1000
    worst = Fraction(1)
    for rec in records:
        assert rec.error is None, rec.error
        market = rec.result.market
        beta = min_beta_EFX(market).value
        bound = 2 - 1 / rec.k
        assert beta_le(beta, bound)
        assert check_equilibrium(market).holds
        assert len(rec.result.trace) <= market.instance.n
        if beta_le(worst, beta):
            worst = beta
    assert elapsed < 10.0
    emit(capsys, 4, f"1000 instances, worst beta {worst}, "
                    f"{skipped} uniform skips, {elapsed:.2f}s < 10s")


def test_c05_two_valued_sweep(capsys, k2_suite):
    records, skipped, elapsed = k2_suite
    assert len(records) == 1000
    for rec in records:
        assert rec.error is None, rec.error
        market = rec.result.market
        beta = min_beta_EFX(market).value
        assert beta == Fraction(1)
        assert check_equilibrium(market).holds
        assert check_pEF1(market).holds
        assert len(rec.result.trace) <= market.instance.n
    assert elapsed < 10.0
    emit(capsys, 5, f"1000 instances, exact EFX everywhere, "
                    f"{skipped} uniform skips, {elapsed:.2f}s < 10s")


def test_c06_ground_truth_pareto(capsys, oracle_suite):
    records, elapsed = oracle_suite
    assert len(records) == 200
    for rec in records:
        assert rec.error is None, rec.error
        report = rec.result
        assert report.success, report.error
        assert report.verdicts.oracle_po is True
    # the verdict came from the exhaustive check; redo one by hand
    sample = records[0]
    report = sample.result
    owner = tuple(report.new_to_old[o] for o in report.owner)
    assert is_pareto_optimal(sample.inst, Allocation(owner))
    assert elapsed < 60.0
    emit(capsys, 6, f"200 instances Pareto-checked exhaustively, "
                    f"{elapsed:.2f}s < 60s")


def _states_along(result):
    """Every event-boundary state of a run, each prefix of its events
    replayed from the entry (so each round's earnings are checked against
    its start, also between a raise and its transfer)."""
    events = (*result.pef1.trace, *result.trace)
    for idx in range(len(events) + 1):
        yield replay_trace(result.pef1.entry, events[:idx])


def test_c07_relations_between_notions(capsys, mixed_suite, k2_suite):
    checked = 0
    for rec in mixed_suite[0] + k2_suite[0]:
        assert rec.error is None
        pef1 = rec.result.pef1
        assert check_EF1(pef1.market).holds
        last = None
        for state in _states_along(rec.result):
            assert check_equilibrium(state).holds
            efx = min_beta_EFX(state).value
            assert beta_le(efx, min_beta_pEFX(state).value)
            checked += 1
            last = state
        assert last.allocation == rec.result.market.allocation
        assert last.high == rec.result.market.high
    emit(capsys, 7, f"EF1 on every run's pEF1 output; "
                    f"beta_EFX <= beta_pEFX on {checked} replayed states")


def test_c08_no_engine_faults(capsys, mixed_suite, k2_suite, oracle_suite):
    faults = []
    for rec in mixed_suite[0] + k2_suite[0] + oracle_suite[0]:
        if rec.error is not None and isinstance(rec.error, ENGINE_FAULTS):
            faults.append(type(rec.error).__name__)
    assert faults == []
    total = len(mixed_suite[0]) + len(k2_suite[0]) + len(oracle_suite[0])
    emit(capsys, 8, f"zero invariant faults across {total} runs")


def test_c09_least_earner_monotone(capsys, mixed_suite, k2_suite):
    traced = 0
    for rec in mixed_suite[0] + k2_suite[0]:
        seq = [ev.least_earning for ev in rec.result.pef1.trace
               if ev.least_earning is not None]
        assert seq == sorted(seq)
        traced += len(seq)
    emit(capsys, 9, f"least earning never drops across {traced} rounds")


def test_c10_scale_freeness(capsys):
    ks = (Fraction(2), Fraction(3), Fraction(5, 2))
    done = 0
    seed = 42
    while done < 100:
        params = GenParams(2 + seed % 5, 2 + seed % 9, ks[seed % 3],
                           Fraction(1, 2), seed)
        try:
            raw = gen_instance(params)
            base = normalize_instance(raw)
        except AlreadyUniform:
            seed += 1
            continue
        row = seed % base.n
        scale = Fraction(seed % 7 + 2, seed % 5 + 3)
        costs = [list(r) for r in raw.costs]
        costs[row] = [c * scale for c in costs[row]]
        scaled = normalize_instance(raw_instance(costs))
        assert scaled == base
        assert report_fingerprint(run_pipeline(scaled)) == \
            report_fingerprint(run_pipeline(base))
        done += 1
        seed += 1
    emit(capsys, 10, "100 seeds: row rescaling changes nothing, "
                     "fingerprints identical")
