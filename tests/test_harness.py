"""Generator determinism, text formats, pipeline reports, report
verification, bench grid."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from chorefair import (
    AlreadyUniform,
    ChorefairError,
    Instance,
    check_equilibrium,
    normalize_instance,
    report_fingerprint,
    run_pef1,
    run_pipeline,
)
from chorefair import harness
from chorefair.errors import (InternalInvariant, NotBiValued, ParseError,
                              ZeroCost)
from chorefair.harness import (
    GenParams,
    RunReport,
    SplitMix64,
    bench,
    gen_instance,
    instance_digest,
    instance_text,
    load_instance,
    parse_instance,
    parse_rational,
    parse_report,
    report_text,
    verify_report,
)
from chorefair.model import RawInstance, relabel_agents
from chorefair.trace import TraceEvent, replay_trace

from conftest import (high_rows, rendered_fingerprint,
                      rotation_instance, save_instance, skewed_owned_instance)


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
    for seed in range(6):
        for n, m, k in ((3, 5, Fraction(5, 2)), (4, 9, Fraction(3)),
                        (2, 70, Fraction(7, 2))):
            raw = gen_instance(GenParams(n, m, k, Fraction(1, 2), seed))
            assert parse_instance(instance_text(raw)) == \
                normalize_instance(raw)


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


def stage_fault(*args):
    raise InternalInvariant("stage fault")


def test_a_failed_report_keeps_the_instance_and_the_resolved_mode(
        monkeypatch):
    raw = gen_instance(GenParams(3, 6, Fraction(3), Fraction(1, 2), 5))
    identity = (instance_digest(normalize_instance(raw)), 3, 6, Fraction(3))
    report = run_pipeline(raw, "exact2")
    assert not report.success
    assert "needs k = 2" in report.error
    assert (report.digest, report.n, report.m, report.k) == identity
    assert (report.mode, report.requested_mode) == ("exact2", "exact2")

    monkeypatch.setattr(harness, "approx_from_equilibrium", stage_fault)
    report = run_pipeline(raw)
    assert report.error == "InternalInvariant: stage fault"
    assert (report.digest, report.n, report.m, report.k) == identity
    assert (report.mode, report.requested_mode) == ("approx", "auto")
    parsed = parse_report(report_text(report))
    assert (parsed.digest, parsed.n, parsed.m, parsed.k) == identity
    assert parsed.mode == "approx"


# the golden grid's skewed k = 5/2 case: payment rounds at q = 2, where an
# earning's 1/q units differ from its value (at the rotation's k = 2 they
# coincide)
SKEWED_Q2 = (Fraction(5, 2), (30, 25, 20, 2, 2, 1, 1, 1), 0, Fraction(1, 20))
# the k = 3 recipe instance of tests/test_cli.py; small enough for oracle-po
RECIPE = GenParams(3, 6, Fraction(3), Fraction(1, 2), 5)


def test_report_text_round_trips_through_parse(monkeypatch):
    reports = [run_pipeline(rotation_instance(), oracle_budget=1 << 24),
               run_pipeline(skewed_owned_instance(*SKEWED_Q2)),
               # failed before normalizing: no digest, k = 0, no vectors
               run_pipeline(gen_instance(GenParams(2, 2, Fraction(2),
                                                   Fraction(0), 0)))]
    monkeypatch.setattr(harness, "approx_from_equilibrium", stage_fault)
    reports.append(run_pipeline(gen_instance(RECIPE)))
    assert [r.success for r in reports] == [True, True, False, False]
    assert reports[2].digest == "" and reports[2].k == 0
    assert reports[3].error == "InternalInvariant: stage fault"
    for report in reports:
        text = report_text(report)
        parsed = parse_report(text)
        assert parsed._replace(timings={}) == report._replace(timings={})
        assert set(parsed.timings) == set(report.timings)
        assert report_text(parsed) == text


def _not_decimal(where):
    return f"{where}: not written as a decimal without sign or leading " \
        f"zero: 'x'"


# each header and verdict line of a report, garbled to 'x': the ParseError
# message, or for a free-text field the problems verify_report finds
GARBLED_LINES = {
    "digest": ["digest mismatch: report was made for a different instance"],
    "mode": ["mode: 'x' is not what requested mode 'auto' resolves to"],
    "requested-mode": [
        "mode: 'approx' is not what requested mode 'x' resolves to"],
    "status": "status: expected ok or failed, got 'x'",
    # an ok report has no error line: 'error: x' is added
    "error": ["error: report says 'x', but a run with verdicts has no error"],
    "n": _not_decimal("field n"),
    "m": _not_decimal("field m"),
    "k": "field k: not a rational: 'x'",
    "new-to-old": _not_decimal("field new-to-old"),
    "entry-owner": _not_decimal("field entry-owner"),
    "entry-pay-high": "field entry-pay-high: expected characters 0/1",
    "owner": _not_decimal("field owner"),
    "pay-high": "field pay-high: expected characters 0/1",
    **{f"verdict {key}": f"verdict {key}: expected true or false, got 'x'"
       for key in ("entry-equilibrium", "entry-pef1", "entry-ef1",
                   "final-equilibrium", "final-pef1", "oracle-po")},
    **{f"verdict {key}": f"verdict {key}: not a rational: 'x'"
       for key in ("beta-pefx", "beta-efx")},
}
# a dropped line is 'missing field ...' or 'missing verdict ...', except
# these two, which a report may leave out
OPTIONAL_LINES = ("error", "verdict oracle-po")
@functools.cache
def recipe_report_lines() -> tuple[str, ...]:
    report = run_pipeline(gen_instance(RECIPE), oracle_budget=1 << 24)
    assert report.success and report.verdicts.oracle_po
    return tuple(report_text(report, timings=False).splitlines())


def parse_outcome(lines) -> str | list[str]:
    """parse_report's ParseError message, or verify_report's problems."""
    try:
        report = parse_report("\n".join(lines) + "\n")
    except ParseError as err:
        return str(err)
    return verify_report(normalize_instance(gen_instance(RECIPE)), report)


@pytest.mark.parametrize("key", GARBLED_LINES)
def test_each_report_line_dropped_or_garbled_fails_as_pinned(key):
    lines = list(recipe_report_lines())
    if key == "error":
        at = lines.index("status: ok") + 1
        lines.insert(at, "error: x")
    else:
        at = next(no for no, line in enumerate(lines)
                  if line.startswith(f"{key}: "))
        lines[at] = f"{key}: x"
    assert parse_outcome(lines) == GARBLED_LINES[key]
    del lines[at]
    group, _, name = key.rpartition(" ")
    assert parse_outcome(lines) == ([] if key in OPTIONAL_LINES else
                                    f"missing {group or 'field'} {name!r}")


def test_of_two_bad_header_lines_the_first_is_named():
    lines = [{"status": "status: x", "n": "n: x"}.get(line.split(":")[0],
                                                      line)
             for line in recipe_report_lines()]
    assert parse_outcome(lines) == "status: expected ok or failed, got 'x'"


def test_a_beta_verdict_may_read_unbounded():
    lines = [line.replace("beta-pefx: 3/2", "beta-pefx: unbounded")
             for line in recipe_report_lines()]
    assert parse_outcome(lines) == [
        "beta-pefx: recomputed 3/2, report says unbounded"]


def test_report_file_round_trip(tmp_path):
    from chorefair.harness import load_report
    report = run_pipeline(rotation_instance())
    path = tmp_path / "report.txt"
    path.write_text(report_text(report), encoding="utf-8")
    assert load_report(str(path)).digest == report.digest


def test_fingerprint_ignores_timings():
    report = run_pipeline(rotation_instance())
    jittered = type(report)(
        **{**report._asdict(), "timings": {"total": 123.456}})
    assert report_fingerprint(jittered) == report_fingerprint(report)
    assert report_fingerprint(report) != report.digest


def test_replay_report_reproduces_the_final_state():
    inst = rotation_instance()
    report = run_pipeline(inst)
    final = replay_trace(run_pef1(inst).entry, report.trace)
    assert final.allocation.owner == report.owner
    assert harness._flags(final.high, inst.m) == report.pay_high


# ---------------------------------------------------- verify_report directly

def stored(report):
    """The report as `chorefair verify` reads it back from its file."""
    return parse_report(report_text(report))


def with_pef1_events(report, events):
    pef1, *later = report.stages
    return report._replace(stages=(pef1._replace(events=tuple(events)),
                                   *later))


def test_verify_report_names_a_chore_raised_twice():
    inst = rotation_instance()
    report = stored(run_pipeline(inst))
    first, *rest = report.stages[0].events
    assert first.kind == "raise"
    # the same raise again, in the same round: its earnings still match
    tampered = with_pef1_events(report, [first, first, *rest])
    assert verify_report(inst, tampered) == [
        f"trace replay failed: replay: chore {first.items[0]} raised twice"]


def test_verify_report_names_a_chore_moved_by_a_non_owner():
    inst = rotation_instance()
    report = stored(run_pipeline(inst))
    events = list(report.stages[0].events)
    t = next(t for t, ev in enumerate(events) if ev.kind == "transfer")
    giver = events[t].agents[0]
    owner = replay_trace(run_pef1(inst).entry, events[:t]).allocation.owner
    e = next(e for e, o in enumerate(owner) if o != giver)
    events[t] = events[t]._replace(items=(e,))
    assert verify_report(inst, with_pef1_events(report, events)) == [
        f"trace replay failed: replay: chore {e} owned by {owner[e]}, "
        f"event says {giver}"]


def test_verify_report_rejects_a_new_to_old_that_is_no_permutation():
    inst = rotation_instance()
    report = stored(run_pipeline(inst))
    assert verify_report(inst, report) == []
    tampered = report._replace(new_to_old=(0,) * inst.n)
    assert verify_report(inst, tampered) == [
        "new-to-old is not a permutation"]


# a report built in code whose stored vectors do not fit the instance: each
# is a problem that verify_report returns, not a ValueError it raises
MIS_SHAPED = {
    "pay-high short": (lambda r: {"pay_high": r.pay_high[:-1]},
                       "chores in pay-high: report says 16, instance has 17"),
    "entry-pay-high long": (
        lambda r: {"entry_pay_high": r.entry_pay_high + (False,)},
        "chores in entry-pay-high: report says 18, instance has 17"),
    "entry-owner short": (lambda r: {"entry_owner": r.entry_owner[1:]},
                          "chores in entry-owner: report says 16, "
                          "instance has 17"),
    "owner index n": (lambda r: {"owner": (4,) + r.owner[1:]},
                      "owner: agent 4 is not in 0..3"),
}


@pytest.mark.parametrize("case", sorted(MIS_SHAPED))
def test_verify_report_returns_a_mis_shaped_vector_as_a_problem(case):
    change, problem = MIS_SHAPED[case]
    inst = rotation_instance()
    report = run_pipeline(inst)
    assert (inst.n, inst.m) == (4, 17)
    assert verify_report(inst, report._replace(**change(report))) == [problem]


# (n, m, k, high_prob, seed) of drawn instances whose payment rounds and
# later stage both move chores: a move at k = 2, a bundle_swap at k = 3
ROUNDS_THEN_STAGE = [(4, 8, 2, Fraction(3, 4), 52),
                     (5, 8, 3, Fraction(1, 2), 47)]


@pytest.mark.parametrize("params", ROUNDS_THEN_STAGE)
def test_verify_report_rebuilds_the_pef1_output_between_the_stages(params):
    inst = normalize_instance(gen_instance(GenParams(*params)))
    report = stored(run_pipeline(inst))
    pef1, stage = report.stages
    assert pef1.rounds > 0 and stage.rounds > 0
    state = run_pef1(inst)
    assert replay_trace(state.entry, pef1.events) == state.market
    assert state.market.allocation.owner not in (report.entry_owner,
                                                 report.owner)
    assert verify_report(inst, report) == []
    # the entry-* verdicts are judged on that rebuilt state
    forged = report.verdicts._replace(entry_ef1=False)
    assert verify_report(inst, report._replace(verdicts=forged)) == [
        "entry-ef1: recomputed true, report says false"]


@pytest.mark.parametrize("params", ROUNDS_THEN_STAGE)
def test_verify_report_names_an_event_stating_another_stage(params):
    inst = normalize_instance(gen_instance(GenParams(*params)))
    report = stored(run_pipeline(inst))
    pef1, stage = report.stages
    first, *rest = pef1.events
    # the later stage's events state a stage no mode has: only that is wrong
    renamed = stage._replace(events=tuple(ev._replace(stage="x")
                                          for ev in stage.events))
    assert verify_report(inst, report._replace(stages=(pef1, renamed))) == [
        f"stage {stage.name}: the event of round 1 says stage=x"]
    # the two stages' names swapped on one event each: the replay then
    # fails too, but the stage is named first
    for stages, problem in (
            ((pef1._replace(events=(first._replace(stage=stage.name),
                                    *rest)), stage),
             f"stage pef1: the event of round 1 says stage={stage.name}"),
            ((pef1, stage._replace(events=tuple(
                ev._replace(stage="pef1") for ev in stage.events))),
             f"stage {stage.name}: the event of round 1 says stage=pef1")):
        assert verify_report(inst, report._replace(stages=stages))[0] == \
            problem


def test_a_pef1_output_equal_to_the_final_state_is_checked_once(
        monkeypatch):
    inst = rotation_instance()
    report = stored(run_pipeline(inst))
    pef1, stage = report.stages
    assert pef1.events and not stage.events
    checked = []

    def counted(market):
        checked.append(market)
        return check_equilibrium(market)
    monkeypatch.setattr(harness, "check_equilibrium", counted)
    assert verify_report(inst, report) == []
    # the stored entry, then the pEF1 output, which is the final state
    assert len(checked) == 2 and checked[0] != checked[1]


def test_an_unknown_stored_mode_is_named_once():
    inst = normalize_instance(gen_instance(GenParams(4, 8, 3,
                                                     Fraction(1, 2), 5)))
    report = stored(run_pipeline(inst, "approx"))
    # beta-efx 3/2 meets approx's bound 5/3, not exact2's 1
    assert report.verdicts.beta_efx == Fraction(3, 2) and report.success
    relabeled = report._replace(mode="bogus", requested_mode="bogus")
    assert verify_report(inst, relabeled) == [
        "mode: 'bogus' is not what requested mode 'bogus' resolves to"]


TRACE_KINDS = ("raise", "transfer", "rotate", "bundle_swap", "swap", "move",
               "x")


def single_event_tamperings(report, n, m, rng):
    """(event, what takes its place or None, stage slots) for each event of
    the report in turn: it with a drawn first item, first agent, first
    earn_after or kind, nothing, or a drawn event that it swaps with.  A
    slot is a (stage index, event) pair; a swapped event takes the other's
    slot.  The slots differ from the report's iff the two events differ."""
    slots = [(s, ev) for s, stage in enumerate(report.stages)
             for ev in stage.events]
    for t, (s, ev) in enumerate(slots):
        u = rng.randrange(len(slots))
        for new in (
                ev._replace(items=(rng.randrange(m), *ev.items[1:])),
                ev._replace(agents=(rng.randrange(n), *ev.agents[1:])),
                ev._replace(earn_after=(ev.earn_after[0] + rng.choice((-1, 1)),
                                        *ev.earn_after[1:])),
                ev._replace(kind=rng.choice([kind for kind in TRACE_KINDS
                                             if kind != ev.kind]))):
            yield ev, new, slots[:t] + [(s, new)] + slots[t + 1:]
        yield ev, None, slots[:t] + slots[t + 1:]
        swapped = slots[:]
        swapped[t], swapped[u] = (s, slots[u][1]), (slots[u][0], ev)
        yield ev, slots[u][1], swapped


def replays_alike(ev, new):
    """Whether new is ev relabeled to a kind that moves the same chores:
    transfer, move and a one-chore bundle_swap; swap and a two-chore
    bundle_swap."""
    kinds = {1: {"transfer", "move", "bundle_swap"},
             2: {"swap", "bundle_swap"}}.get(len(ev.items), set())
    return new is not None and new == ev._replace(kind=new.kind) and \
        {ev.kind, new.kind} <= kinds


@pytest.mark.parametrize("params", [None, *ROUNDS_THEN_STAGE])
def test_verify_report_names_every_single_event_change(params):
    inst = rotation_instance() if params is None else \
        normalize_instance(gen_instance(GenParams(*params)))
    report = stored(run_pipeline(inst))
    rng = random.Random(33)
    tried = 0
    for ev, new, slots in single_event_tamperings(report, inst.n, inst.m,
                                                  rng):
        stages = tuple(stage._replace(events=tuple(
            e for s, e in slots if s == i))
            for i, stage in enumerate(report.stages))
        problems = verify_report(inst, report._replace(stages=stages))
        # no check ties an event's kind to its stage yet, so a relabel that
        # replays alike verifies
        if new != ev and not replays_alike(ev, new):
            assert problems, (ev, new)
            tried += 1
    assert tried >= 4 * len(report.trace)


def test_bench_emits_one_row_per_cell_plus_aggregates():
    grid = [GenParams(n, 4, k, Fraction(1, 2), seed)
            for n in (2, 3)
            for k in (Fraction(2), Fraction(3))
            for seed in (0, 1)]
    csv, failed = bench(grid)
    assert failed == 0
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


# ------------------------------------------- parse contract, token by token

def reference_rational(token, where):
    """The parse rules restated: one Fraction per token, no sharing."""
    num_s, _, den_s = token.partition("/") if "/" in token \
        else (token, "", "1")
    try:
        num, den = int(num_s), int(den_s)
    except ValueError:
        raise ParseError(f"{where}: not a rational: {token!r}") from None
    if den == 0:
        raise ParseError(f"{where}: zero denominator in {token!r}")
    return Fraction(num, den)


def reference_normalize(rows):
    """Per-entry classification by (numerator, denominator) pairs."""
    ratio, high = None, []
    for i, row in enumerate(rows):
        pairs = [(c.numerator, c.denominator) for c in row]
        values = set(pairs)
        if min(values)[0] <= 0:
            bad = next(c for c in row if c <= 0)
            raise ZeroCost(f"cost {bad} is not strictly positive")
        if len(values) > 2:
            scaled = sorted({c / min(row) for c in row})
            raise NotBiValued(
                f"agent {i} has {len(scaled)} distinct scaled costs: {scaled}")
        if len(values) == 1:
            high.append((False,) * len(row))
            continue
        low, top = sorted(values, key=lambda p: Fraction(*p))
        row_ratio = Fraction(*top) / Fraction(*low)
        if ratio is None:
            ratio = row_ratio
        elif row_ratio != ratio:
            raise NotBiValued(
                f"rows disagree on the cost ratio: {ratio} vs {row_ratio}")
        high.append(tuple(p == top for p in pairs))
    if ratio is None:
        raise AlreadyUniform("every row is uniform; ratio k would be 1")
    return Instance(len(rows), len(rows[0]), ratio, tuple(high))


def outcome(fn, *args):
    """fn's result, or the class and message of the error it raised."""
    try:
        return fn(*args)
    except ChorefairError as err:
        return type(err), str(err)


# each value under its spellings
VALUES = (("1", "1/1", "2/2"), ("2", "4/2", "2/1"), ("3", "3/1", "6/2"),
          ("1/2", "2/4"), ("3/2", "6/4"))
GOOD_TOKENS = tuple(t for spellings in VALUES for t in spellings)
# nonpositive, then malformed and zero-denominator tokens
BAD_TOKENS = ("0", "0/5", "-1", "1/-2", "abc", "1/", "/2", "1//2", "3/0",
              "0/0")
# weighted four to one toward the good tokens, so that most rows parse
TOKENS = st.sampled_from(GOOD_TOKENS * 4 + BAD_TOKENS)
# a row's tokens come from a palette: any few tokens; one value (a uniform
# row); or two values, whose ratio the other rows may not share
PALETTES = st.one_of(
    st.lists(TOKENS, min_size=1, max_size=4),
    st.sampled_from(VALUES),
    st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES)).map(
        lambda pair: pair[0] + pair[1]))


@st.composite
def raw_texts(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    rows = []
    for _ in range(n):
        palette = draw(PALETTES)
        rows.append(draw(st.lists(st.sampled_from(palette), min_size=m,
                                  max_size=m)))
    if draw(st.booleans()):  # a bad token in the last row
        rows[-1][draw(st.integers(0, m - 1))] = draw(st.sampled_from(
            BAD_TOKENS))
    return rows


@given(raw_texts())
@example([["1", "2", "3"], ["2", "abc", "1"]])  # not bi-valued, then bad
@example([["0", "1"], ["1", "3/0"]])  # nonpositive, then bad
@example([["1", "2", "3"], ["1", "2", "2"], ["1", "1/", "1"]])  # two later
@example([["1", "2"], ["3/2", "1/2"], ["1", "1"]])  # ratios 2 and 3
@example([["2", "4/2"], ["1/1", "1"]])  # all uniform
@example([["2", "1", "4/2", "2/2", "2/1"]])  # equal values, three spellings
@settings(max_examples=300)
def test_parse_then_normalize_matches_the_per_token_reference(rows):
    text = "\n".join(["format: chorefair-instance/1", "kind: raw",
                      f"n: {len(rows)}", f"m: {len(rows[0])}"]
                     + ["row: " + " ".join(row) for row in rows]) + "\n"

    def reference():
        # row lines start at line 5, after the four head lines
        return tuple(tuple(reference_rational(t, f"line {5 + i}")
                           for t in row) for i, row in enumerate(rows))

    def reference_instance():
        return reference_normalize(reference())

    assert outcome(parse_instance, text) == outcome(reference_instance)
    costs = outcome(reference)
    if not isinstance(costs[0], type):  # the object-keyed path agrees too
        raw = RawInstance(len(rows), len(rows[0]), costs)
        assert outcome(normalize_instance, raw) == \
            outcome(reference_normalize, costs)


# -- the Fraction path that integer pairs replaced, kept as the reference:
# each spelling parsed to a Fraction, the values of a row classified by
# Fraction comparison and division, in first-seen order

def fraction_rational(token, where):
    try:
        if "/" in token:
            num_s, den_s = token.split("/", 1)
            num, den = int(num_s), int(den_s)
        else:
            num, den = int(token), 1
    except ValueError:
        raise ParseError(f"{where}: not a rational: {token!r}") from None
    if den == 0:
        raise ParseError(f"{where}: zero denominator in {token!r}")
    return Fraction(num, den)


def fraction_raw_rows(rows, m):
    known = {}
    for lineno, value in rows:
        tokens = value.split()
        if len(tokens) != m:
            raise ParseError(
                f"line {lineno}: expected {m} entries, found {len(tokens)}")
        spellings = dict.fromkeys(tokens)
        for t in spellings:
            if t not in known:
                known[t] = fraction_rational(t, f"line {lineno}")
            spellings[t] = known[t]
        yield reversed(tokens), spellings


def fraction_normalize_rows(n, m, rows):
    ratio, masks, fault = None, [], None
    for i, (cells, value_of) in enumerate(rows):
        if fault is not None:
            continue
        values = list(dict.fromkeys(value_of.values()))
        low = min(values)
        bad = next((c for c in values if c <= 0), None)
        if bad is not None:
            fault = ZeroCost(f"cost {bad} is not strictly positive")
            continue
        if len(values) > 2:
            scaled = sorted({c / low for c in values})
            fault = NotBiValued(
                f"agent {i} has {len(scaled)} distinct scaled costs: {scaled}")
            continue
        if len(values) == 2:
            row_ratio = Fraction(max(values)) / low
            if ratio is not None and row_ratio != ratio:
                fault = NotBiValued(
                    f"rows disagree on the cost ratio: {ratio} vs {row_ratio}")
                continue
            ratio = row_ratio
        digit = {key: "1" if c == low else "0" for key, c in value_of.items()}
        masks.append(int("".join(map(digit.__getitem__, cells)), 2))
    if fault is not None:
        raise fault
    if ratio is None:
        raise AlreadyUniform("every row is uniform; ratio k would be 1")
    return Instance(n, m, ratio, low_masks=tuple(masks))


# each positive value under its spellings, signs and unreduced forms
# included; rows drawn from two of them share ratio 2, 3, 3/2, ...
SPELLED_VALUES = (("1", "1/1", "2/2", "-1/-1"), ("2", "4/2", "-2/-1"),
                  ("3", "6/2", "-6/-2"), ("1/2", "2/4", "-1/-2", "3/6"),
                  ("3/2", "6/4", "-3/-2"), ("4", "8/2"), ("11", "22/2"),
                  ("4/5", "8/10"), ("14/5", "28/10"))
NONPOSITIVE = ("0", "0/7", "-1", "1/-2", "-3/2")
MALFORMED = ("x", "1/", "/2", "1//2", "3/0", "0/0", "1.5", "+-1")


@st.composite
def spelled_rows(draw):
    """Raw row lines: each row spells one to three values, maybe with a
    nonpositive one; then maybe malformed tokens in one row or a wrong
    count, and maybe a tab or a second space after one token."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rows = []
    for _ in range(n):
        values = draw(st.lists(st.sampled_from(SPELLED_VALUES), min_size=1,
                               max_size=3, unique=True))
        palette = [t for spellings in values for t in spellings]
        if draw(st.integers(0, 5)) == 0:
            palette.append(draw(st.sampled_from(NONPOSITIVE)))
        rows.append(draw(st.lists(st.sampled_from(palette), min_size=m,
                                  max_size=m)))
    fault = draw(st.sampled_from(("none", "none", "token", "count")))
    r = draw(st.integers(0, n - 1))
    if fault == "token":  # one or more, so that the first one must be named
        for e in draw(st.sets(st.integers(0, m - 1), min_size=1)):
            rows[r][e] = draw(st.sampled_from(MALFORMED))
    elif fault == "count":
        if draw(st.booleans()):
            rows[r].append("1")
        else:
            rows[r].pop()
    if rows[r] and draw(st.integers(0, 4)) == 0:
        rows[r][draw(st.integers(0, len(rows[r]) - 1))] += draw(
            st.sampled_from(("\t", " ")))
    return m, rows


@given(spelled_rows())
@example((2, [["1", "2"], ["-1/-2", "1"]]))  # ratio 2, signs cancelled
@example((2, [["1", "3"], ["1/2", "2/4"], ["2", "4/2"]]))  # uniform rows
@example((3, [["1", "2", "3"], ["2", "x", "1"]]))  # third value, then bad
@example((2, [["0", "1"], ["1", "1", "1"]]))  # zero cost, then a count
@example((2, [["1", "2"], ["3/2", "1/2"]]))  # ratios 2 and 3
@example((2, [["1", "2"], ["2", "4"], ["1/2", "1"]]))  # ratio 2, unreduced
@example((4, [["1", "x", "1/", "3/0"]]))  # three bad tokens, first named
# rows read whole, and the rows beside them that are split into tokens
@example((3, [["4/5", "14/5", "4/5"], ["14/5", "4/5", "4/5"]]))  # nested
@example((3, [["1", "11", "1"], ["11", "11", "1"]]))  # nested, ratio 11
@example((3, [["1", "2", "1"], ["3", "3", "6"]]))  # spellings of one length
@example((2, [["1", "2"], ["3/2", "3/2"], ["5", "5"]]))  # uniform rows
@example((1, [["2"], ["1"]]))  # m = 1, every row uniform
@example((1, [["2"], ["1/0"]]))  # m = 1, a bad spelling
@example((3, [["1\t2", "2"], ["1", "", "2", "2"]]))  # a tab; two spaces
@example((3, [["1", "1", "x"]]))  # a bad second spelling
@example((3, [["1", "2", "2/1"], ["2/1", "1", "1/1"]]))  # three spellings
@example((4, [["1", "2", "121"]]))  # 2m - 1 characters, but not m tokens
@example((2, [["1/\t2", "1"]]))  # whitespace inside the first spelling
@example((2, [["1", "3/\t2"]]))  # and inside the second
@settings(max_examples=300)
def test_parse_instance_matches_the_fraction_path(case):
    m, rows = case
    lines = [" ".join(row) for row in rows]
    text = "\n".join(["format: chorefair-instance/1", "kind: raw",
                      f"n: {len(rows)}", f"m: {m}"]
                     + ["row: " + line for line in lines]) + "\n"
    numbered = [(5 + i, line) for i, line in enumerate(lines)]
    assert outcome(parse_instance, text) == outcome(
        lambda: fraction_normalize_rows(len(rows), m,
                                        fraction_raw_rows(numbered, m)))


@pytest.mark.parametrize("seed", range(3))
def test_dense_raw_files_match_the_fraction_path(seed):
    # the random-dense shape: 64 rows of 256 entries, each entry k times
    # the row's cost 1 with chance 3/4, every row scaled by its own rational
    rng = random.Random(seed)
    n, m = 64, 256
    k = Fraction(rng.choice(("2", "3", "5/2")))
    lines = []
    for _ in range(n):
        low = Fraction(rng.randint(1, 99), rng.randint(1, 99))
        spell = {False: f"{low.numerator}/{low.denominator}",
                 True: f"{(low * k).numerator}/{(low * k).denominator}"}
        lines.append(" ".join(spell[rng.random() < 3 / 4] for _ in range(m)))
    text = "\n".join(["format: chorefair-instance/1", "kind: raw", f"n: {n}",
                      f"m: {m}"] + ["row: " + line for line in lines]) + "\n"
    numbered = [(5 + i, line) for i, line in enumerate(lines)]
    expected = fraction_normalize_rows(n, m, fraction_raw_rows(numbered, m))
    assert parse_instance(text) == expected
    # every row is read whole: its cells are one key character per chore
    assert all(isinstance(cells, str)
               for cells, _ in harness._raw_rows(numbered, m))


EARNINGS = ("3", "3/1", "6/2", "5/2", "10/4", "0", "-1/2", "1/3", "x", "2/0",
            "1/")
EARNING_FIELDS = st.tuples(st.lists(st.sampled_from(EARNINGS), max_size=6),
                           st.lists(st.sampled_from(EARNINGS), max_size=6),
                           st.none() | st.sampled_from(EARNINGS))


@functools.cache
def report_lines(case):
    """The text lines of the round-trip test's reports, by k."""
    instance = rotation_instance() if case == "k=2" \
        else skewed_owned_instance(*SKEWED_Q2)
    return tuple(report_text(run_pipeline(instance)).splitlines())


@given(st.sampled_from(("k=2", "k=5/2")),
       st.lists(EARNING_FIELDS, min_size=1, max_size=3))
@example("k=2", [(["3/1"], ["5/2"], None)])  # a half unit at q = 1
@example("k=5/2", [(["5/2", "3/1"], ["5/2"], "-1/2")])  # whole at q = 2
@example("k=5/2", [(["3/1"], [], "1/3"), (["x"], [], None)])  # bad token wins
@example("k=5/2", [(["5/2"], ["10/4"], None), (["x"], [], None)])  # unreduced
@example("k=2", [(["3"], [], None)])  # no denominator
@settings(max_examples=200)
def test_event_earnings_match_the_per_token_reference(case, events):
    # the events share one stage, so a spelling recurs across lines
    lines = list(report_lines(case))
    at = next(i for i, line in enumerate(lines) if line.startswith("stage:"))
    for e, (before, after, least) in enumerate(events):
        event = (f"event: stage=pef1 round={e + 1} kind=raise agents=0 "
                 f"items= earn_before={','.join(before)} "
                 f"earn_after={','.join(after)}")
        if least is not None:
            event += f" least={least}"
        lines.insert(at + 1 + e, event)
    k = Fraction(case[len("k="):])

    def reference():
        stated = [(f"line {at + 2 + e}", before, after, least)
                  for e, (before, after, least) in enumerate(events)]
        # every token is parsed, in line order, before any is read in
        # units, and must be spelled as its own lowest-terms num/den
        for where, before, after, least in stated:
            for t in before + after + ([] if least is None else [least]):
                x = reference_rational(t, where)
                if t != f"{x.numerator}/{x.denominator}":
                    raise ParseError(f"{where}: event earning {t!r} is not "
                                     f"written as num/den in lowest terms")

        def units(t, where):
            u = reference_rational(t, where) * k.denominator
            if u.denominator != 1:
                raise ParseError(
                    f"{where}: event earning {t!r} is not a whole number of "
                    f"1/{k.denominator} units at k = {k}")
            return u.numerator

        return [(tuple(units(t, where) for t in before),
                 tuple(units(t, where) for t in after),
                 None if least is None else units(least, where))
                for where, before, after, least in stated]

    expected = outcome(reference)
    parsed = outcome(parse_report, "\n".join(lines) + "\n")
    if isinstance(expected[0], type):
        assert parsed == expected
        return
    got = parsed.stages[0].events[:len(events)]
    assert [(ev.earn_before, ev.earn_after, ev.least_earning)
            for ev in got] == expected


def test_equal_values_under_other_spellings_share_a_mask_bit():
    text = ("format: chorefair-instance/1\nkind: raw\nn: 1\nm: 4\n"
            "row: 3/6 2 1/2 2\n")
    inst = parse_instance(text)
    assert inst.k == 4
    assert inst.low_masks == (0b0101,)  # chores 0 and 2 cost 1/2


@given(st.integers(1, 4), st.integers(1, 70), st.data())
@settings(max_examples=100)
def test_instance_text_matches_the_per_cell_rendering(n, m, data):
    high = [data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
            for _ in range(n)]
    for row in high:
        row[data.draw(st.integers(0, m - 1))] = False
    inst = Instance(n, m, Fraction(5, 2), tuple(map(tuple, high)))
    perm = data.draw(st.permutations(range(n)))
    for case in (inst, relabel_agents(inst, perm)):
        expected = "\n".join(
            ["format: chorefair-instance/1", "kind: normalized", f"n: {n}",
             f"m: {m}", "k: 5/2"]
            + ["row: " + "".join("1" if h else "0" for h in row)
               for row in high_rows(case)]) + "\n"
        assert instance_text(case) == expected


# ------------------------------------------ the canonical event line parse

# each value of an event body, as _event_line writes it ...
EVENT_PARTS = (("stage", ("pef1", "approx_efx", "", "a=b")),
               ("round", ("1", "0", "17", "120")),
               ("kind", ("raise", "transfer", "", "rotate")),
               ("agents", ("0", "3,1", "", "10,0,2")),
               ("items", ("2", "", "0,11", "5,6,7")),
               ("earn_before", ("3/1", "5/2,1/1", "", "0/1,7/2")),
               ("earn_after", ("1/1", "", "3/1,5/2", "9/2")),
               ("least", ("1/1", "5/2", "0/1")))
# ... and what an edit puts in or around a value: a spelling int() or
# Fraction reads but _event_line never writes, a separator or a bad token
VALUE_EDITS = ("01", "+1", "-0", "1_0", "٣", "\t", "  ", ",", "", "x",
               "2/2", "3", "-0/1", "1/0", "1/2", "-1")


@st.composite
def event_bodies(draw):
    """A canonical event body (least optional), with up to three edits:
    a value replaced, or something put in front of, after or inside it;
    two keys swapped; a key repeated or dropped; a separator replaced."""
    parts = [[key, draw(st.sampled_from(values))]
             for key, values in EVENT_PARTS[:-1]]
    if draw(st.booleans()):
        parts.append(["least", draw(st.sampled_from(EVENT_PARTS[-1][1]))])
    seps = [" "] * len(parts)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(parts) - 1))
        action = draw(st.sampled_from(("value", "before", "after", "inside",
                                       "swap", "repeat", "drop", "sep")))
        edit = draw(st.sampled_from(VALUE_EDITS))
        value = parts[i][1]
        if action == "value":
            parts[i][1] = edit
        elif action in ("before", "after"):
            parts[i][1] = edit + value if action == "before" else value + edit
        elif action == "inside":
            at = draw(st.integers(0, len(value)))
            parts[i][1] = value[:at] + edit + value[at:]
        elif action == "swap":
            j = draw(st.integers(0, len(parts) - 1))
            parts[i], parts[j] = parts[j], parts[i]
        elif action == "repeat":
            parts.insert(i, list(parts[i]))
            seps.insert(i, " ")
        elif action == "drop" and len(parts) > 1:
            del parts[i], seps[i]
        elif action == "sep":
            seps[i] = draw(st.sampled_from(("\t", "  ", "\xa0")))
    body = "".join(sep + f"{key}={value}" for sep, (key, value)
                   in zip(seps, parts))
    return body.strip()  # as parse_report reads a line's value


def lenient_rendering(body):
    """The body _event_line writes for the values a lenient reading of body
    finds (keys in any order and repeated, any whitespace, indices as int()
    reads them but not negative, earnings as Fraction reads them), or None
    when that reading fails."""
    def ints(value):
        out = tuple(map(int, filter(None, value.split(","))))
        if any(i < 0 for i in out):
            raise ValueError("a negative index")
        return out

    def earnings(value):
        return tuple(f"{x.numerator}/{x.denominator}" for x in
                     map(Fraction, filter(None, value.split(","))))

    try:
        kv = dict(token.split("=", 1) for token in body.split())
        least = earnings(kv["least"])[0] if "least" in kv else None
        event = TraceEvent(kv["stage"], ints(kv["round"])[0], kv["kind"],
                           ints(kv["agents"]), ints(kv["items"]),
                           earnings(kv["earn_before"]),
                           earnings(kv["earn_after"]), least)
    except (ValueError, KeyError, IndexError, ZeroDivisionError):
        return None
    return harness._event_line(event, str)[len("event: "):]


@given(event_bodies())
@example("stage=pef1 round=1٣ kind=raise agents=0 items= "
         "earn_before=3/1 earn_after=1/1 least=1/1")  # [0-9], not \d
@example("stage=pef1 round=1 kind=transfer agents=3,1٣ items=2 "
         "earn_before=3/1 earn_after=1/1")
@example("stage=pef1 round=1 kind=raise agents=0 items= "
         "earn_before=2/2 earn_after=1/1 least=1/1")  # a spelling of 1/1
@example("stage=pef1 round=1 kind=raise agents=0 items=1_0 "
         "earn_before=3/1 earn_after=1/1")
@example("stage=pef1 round=1 kind=raise agents=0 items=-1 "
         "earn_before=3/1 earn_after=1/1")  # an index is never negative
@example("stage=pef1 round=1 kind=raise agents=0 items= "
         "earn_before=-1/2 earn_after=-0/1")  # -1/2 is canonical, -0/1 not
@example("stage=pef1 round=1 kind=raise agents=0 items=" + "7" * 5000
         + " earn_before=3/1 earn_after=1/1")  # past int()'s digit limit
@settings(max_examples=400)
def test_an_event_body_parses_iff_it_is_the_line_its_values_render_to(body):
    parsed = outcome(harness._parse_event, 7, body, {})
    if isinstance(parsed[0], type):
        error, message = parsed
        assert error is ParseError and message.startswith("line 7: ")
        assert lenient_rendering(body) != body
        return
    _, head, before, after, least = parsed
    event = TraceEvent(*head, tuple(before), tuple(after), least)
    assert harness._event_line(event, str) == f"event: {body}"
    assert lenient_rendering(body) == body
    # in a whole report, a kept line is exactly the rendered one
    lines = list(report_lines("k=5/2"))
    at = next(i for i, line in enumerate(lines) if line.startswith("event:"))
    lines[at] = f"event: {body}"
    report = outcome(parse_report, "\n".join(lines) + "\n")
    if isinstance(report, RunReport):
        assert report_fingerprint(report) == rendered_fingerprint(report)


def test_a_parsed_report_keeps_its_event_lines_until_replaced():
    inst = skewed_owned_instance(*SKEWED_Q2)
    report = run_pipeline(inst)
    text = report_text(report)
    parsed = parse_report(text)
    lines = [line for line in text.splitlines() if line.startswith("event:")]
    assert len(lines) > 1
    assert parsed.event_lines == tuple(lines)
    # the kept lines are neither compared nor shown
    copy = parsed._replace()
    assert copy.event_lines is None
    assert copy == parsed and repr(copy) == repr(parsed)
    assert report_text(copy) == report_text(parsed) == text
    first, *rest = parsed.stages[0].events
    moved = first._replace(round=first.round + 7)
    tampered = with_pef1_events(parsed, [moved, *rest])
    assert tampered.event_lines is None
    want = text.replace(lines[0], lines[0].replace(
        f" round={first.round} ", f" round={moved.round} "), 1)
    assert want != text
    assert report_text(tampered) == want
    # the copy is checked as edited, not as its source's lines say
    assert verify_report(inst, parsed) == []
    [problem] = verify_report(inst, tampered)
    assert problem.startswith("trace replay failed: replay: round 1 ")


def test_report_equality_ignores_event_lines():
    report = run_pipeline(skewed_owned_instance(*SKEWED_Q2))
    parsed = parse_report(report_text(report))
    other = parse_report(report_text(report))
    other.event_lines = ("event: not compared",)
    assert parsed.event_lines is not None
    assert other == parsed and repr(other) == repr(parsed)
    assert other._replace() == parsed._replace() == parsed
    assert RunReport(*parsed) == parsed and RunReport(*parsed).event_lines \
        is None


def test_a_report_with_a_non_canonical_event_exits_2_naming_its_line():
    text = report_text(run_pipeline(skewed_owned_instance(*SKEWED_Q2)))
    no, canonical = next((no, line) for no, line
                         in enumerate(text.splitlines(), start=1)
                         if line.startswith("event:"))
    for spelled in (canonical.replace(" kind=", "  kind="),
                    canonical.replace("earn_after=", "earn_after=,")):
        with pytest.raises(ParseError,
                           match=rf"^line {no}: expected an event as "):
            parse_report(text.replace(canonical, spelled))
