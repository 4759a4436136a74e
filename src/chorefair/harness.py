"""Instance generation, text formats, pipeline orchestration, report
verification, benchmarking.

File formats are line-oriented text with a leading format/version field.
A report's header and verdict lines are the rows of one table (key, field,
value kind) that report_text writes and parse_report reads, each value only
as written.  So is an event line, and a parsed report keeps its event
lines, to be written as read.  Reports carry every verdict needed to
re-check a run from the stored allocation alone; timing lines are excluded
from the report fingerprint so identical runs fingerprint identically.

The generator uses splitmix64 (Steele, Lea and Flood's 64-bit mixer) so
instances reproduce bit-for-bit across implementations: draws are
row-major, one cost per draw, with one extra draw immediately after any
all-high row to pick the entry that gets lowered.
"""
from __future__ import annotations

import hashlib
import io
import re
import time
from collections import namedtuple
from collections.abc import Callable
from functools import cache
from itertools import islice
from math import gcd
from fractions import Fraction

from .approx_efx import approx_from_equilibrium
from .efx_k2 import k2_from_equilibrium
from .errors import ChorefairError, ParseError
from .model import (CheckedRecord, Instance, MarketState, RawInstance,
                    as_rational, build_market_state, bundle_masks,
                    normalize_instance, normalize_rows, relabel_agents)
from .oracle import is_pareto_optimal
from .pef1 import run_pef1
from .trace import TraceEvent, replay_trace
from .verify import UNBOUNDED, Unbounded, beta_le, check_EF1, check_pEF1, \
    check_equilibrium, min_beta_EFX, min_beta_pEFX

INSTANCE_FORMAT = "chorefair-instance/1"
REPORT_FORMAT = "chorefair-report/1"

_MASK = (1 << 64) - 1
_BITS = {"0": False, "1": True}  # a checked 0/1 string's flags, by map
# a normalized row's 1 (cost k) is binary digit 0 of the cost-1 mask
_LOW_DIGITS = str.maketrans("01", "10")


class SplitMix64:
    """splitmix64; state advances by the golden-gamma constant per draw."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)


class GenParams(CheckedRecord,
                namedtuple("GenParams", "n m k high_prob seed")):
    """A generator draw: shape, cost ratio k, the chance that a cost is k,
    and the seed; k and high_prob are coerced by as_rational."""
    __slots__ = ()

    def __new__(cls, n: int, m: int, k: Fraction, high_prob: Fraction,
                seed: int):
        self = super().__new__(cls, n, m, as_rational(k),
                               as_rational(high_prob), seed)
        # each message starts with the field's name, which the CLI maps to
        # its option
        for name, ok, need in (
                ("n", self.n >= 1, "at least 1"),
                ("m", self.m >= 1, "at least 1"),
                ("k", self.k > 1, "above 1"),
                ("high_prob", 0 <= self.high_prob <= 1, "in [0, 1]"),
                ("seed", 0 <= self.seed < 1 << 64, "in [0, 2^64)")):
            if not ok:
                raise ValueError(
                    f"{name} must be {need}, got {getattr(self, name)}")
        return self


def gen_instance(params: GenParams) -> RawInstance:
    """Each cost is high with probability high_prob, independently; any
    all-high row gets one uniformly drawn entry lowered so the result
    normalizes.  Deterministic in the seed.
    """
    rng = SplitMix64(params.seed)
    hp = params.high_prob
    one = Fraction(1)
    rows = []
    for _ in range(params.n):
        row = [params.k if rng.next_u64() * hp.denominator < hp.numerator << 64
               else one
               for _ in range(params.m)]
        if all(c == params.k for c in row):
            row[rng.next_u64() % params.m] = one
        rows.append(tuple(row))
    return RawInstance(params.n, params.m, tuple(rows))


# ---------------------------------------------------------------- formats

def _fmt_rational(x: Fraction | Unbounded) -> str:
    if isinstance(x, Unbounded):
        return "unbounded"
    return f"{x.numerator}/{x.denominator}"


def parse_rational(token: str, where: str = "value") -> Fraction:
    return Fraction(*_parse_pair(token, where))


def _parse_pair(token: str, where: str) -> tuple[int, int]:
    """A 'p/q' or 'p' token's value as (numerator, denominator) in lowest
    terms with a positive denominator, as a Fraction holds it."""
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
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


def _fields(text: str, fmt: str,
            repeatable: tuple[str, ...]) -> list[tuple[int, str, str]]:
    """(line number, key, value) triples of the lines after the leading
    'format: fmt' line; '#' starts a comment line.  A key outside
    repeatable may occur once, like the format line itself.
    """
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if ":" not in stripped:
            raise ParseError(f"line {lineno}: expected 'key: value'")
        key, value = stripped.split(":", 1)
        out.append((lineno, key.strip(), value.strip()))
    if not out or out[0][1:] != ("format", fmt):
        raise ParseError(f"line 1: expected 'format: {fmt}'")
    seen = {"format"}
    for lineno, key, _ in out[1:]:
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate field {key!r}")
        if key not in repeatable:
            seen.add(key)
    return out[1:]


def instance_text(instance: RawInstance | Instance) -> str:
    lines = [f"format: {INSTANCE_FORMAT}"]
    if isinstance(instance, Instance):
        lines.append("kind: normalized")
        lines.append(f"n: {instance.n}")
        lines.append(f"m: {instance.m}")
        lines.append(f"k: {_fmt_rational(instance.k)}")
        full, width = (1 << instance.m) - 1, f"0{instance.m}b"
        for low in instance.low_masks:
            lines.append("row: " + format(~low & full, width)[::-1])
    else:
        lines.append("kind: raw")
        lines.append(f"n: {instance.n}")
        lines.append(f"m: {instance.m}")
        for row in instance.costs:
            lines.append("row: " + " ".join(_fmt_rational(c) for c in row))
    return "\n".join(lines) + "\n"


def _read_text(path: str) -> str:
    """A file's text; a byte sequence that is not UTF-8 is a ParseError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"byte {err.start}: not UTF-8 "
                         f"(0x{data[err.start]:02x})") from None


def load_instance(path: str) -> Instance:
    return parse_instance(_read_text(path))


# the fields of each kind of instance file, besides its row lines
_INSTANCE_FIELDS = {"normalized": ("kind", "n", "m", "k"),
                    "raw": ("kind", "n", "m")}


def parse_instance(text: str) -> Instance:
    """The normalized instance of an instance file's text, raw or normalized.

    A normalized row is its cost-1 mask, read by one translate.  A raw row
    is read in one pass: each spelling new to the file is parsed once into
    an integer (numerator, denominator) pair, the row's pairs are
    classified by cross-multiplication, and its mask is emitted directly;
    a row of one or two spellings one space apart, as instance_text writes
    it, is read whole, any other row token by token (see _raw_rows).
    A ParseError names the first bad token in row order, and beats a
    normalize error in an earlier row (see normalize_rows).  A field the
    file's kind does not define is a ParseError naming its line.
    """
    head: dict[str, str] = {}
    head_line: dict[str, int] = {}
    rows: list[tuple[int, str]] = []
    for lineno, key, value in _fields(text, INSTANCE_FORMAT, ("row",)):
        if key == "row":
            rows.append((lineno, value))
        else:
            head[key] = value
            head_line[key] = lineno
    for need in ("kind", "n", "m"):
        if need not in head:
            raise ParseError(f"missing field {need!r}")
    try:
        n, m = int(head["n"]), int(head["m"])
    except ValueError:
        raise ParseError("fields n, m must be integers") from None
    for key, size in (("n", n), ("m", m)):
        if size < 1:
            raise ParseError(
                f"line {head_line[key]}: field {key} must be at least 1")
    if len(rows) != n:
        raise ParseError(f"expected {n} row lines, found {len(rows)}")
    kind = head["kind"]
    if kind not in _INSTANCE_FIELDS:
        raise ParseError(f"unknown kind {kind!r}")
    stray = next((key for key in head if key not in _INSTANCE_FIELDS[kind]),
                 None)
    if stray is not None:
        raise ParseError(f"line {head_line[stray]}: kind {kind} has no "
                         f"field {stray!r}")

    if kind == "normalized":
        if "k" not in head:
            raise ParseError("missing field 'k'")
        k = parse_rational(head["k"], "field k")
        if k <= 1:
            raise ParseError(f"line {head_line['k']}: k must exceed 1")
        masks = []
        for lineno, value in rows:
            if len(value) != m or value.strip("01"):
                raise ParseError(f"line {lineno}: row must be {m} of 0/1")
            if "0" not in value:
                raise ParseError(
                    f"line {lineno}: row has no cost-1 chore (a 0 entry)")
            masks.append(int(value[::-1].translate(_LOW_DIGITS), 2))
        return Instance(n, m, k, low_masks=tuple(masks))
    return normalize_rows(n, m, _raw_rows(rows, m))


def _raw_rows(rows: list[tuple[int, str]], m: int):
    """Per raw row line, its cells and each distinct cell's value pair, as
    normalize_rows takes them; one row at a time.  A spelling new to the
    file is parsed once.  A row that _whole_row reads and whose spellings
    parse yields its key characters; any other row is split into tokens,
    and on a bad spelling a pass over the row's spellings in first-seen
    order names the first bad token."""
    known: dict[str, tuple[int, int]] = {}

    def pair(t: str, lineno: int) -> tuple[int, int]:
        if t not in known:
            known[t] = _parse_pair(t, f"line {lineno}")
        return known[t]

    for lineno, value in rows:
        whole = _whole_row(value, m)
        if whole is not None:
            cells, spelling = whole
            try:
                value_of = {key: pair(t, lineno)
                            for key, t in spelling.items()}
            except ParseError:
                pass  # the token path names the first bad token
            else:
                yield cells, value_of
                continue
        tokens = value.split()
        if len(tokens) != m:
            raise ParseError(
                f"line {lineno}: expected {m} entries, found {len(tokens)}")
        try:
            value_of = {t: pair(t, lineno) for t in set(tokens)}
        except ParseError:
            for t in dict.fromkeys(tokens):
                _parse_pair(t, f"line {lineno}")
            raise
        yield tokens, value_of


def _whole_row(value: str, m: int) -> tuple[str, dict[str, str]] | None:
    """A row line's key characters and each key's spelling in first-seen
    order, when the row is m tokens one space apart in at most two
    spellings, as instance_text writes it; else None.

    The spellings are a, the first token, and b, the first other one.  A
    row line holds no '\\r' or '\\n', since splitlines ends a line at
    either, so the longer spelling is replaced by '\\r' and then the
    shorter by '\\n' (the shorter cannot match inside the longer).  The row
    is taken when a and b are nonempty and hold no whitespace, and the
    result is 2m - 1 characters with a space at every odd index and a key
    character at every even one.  Then every character of the result
    stands for itself or for its key's spelling, so the row is exactly m
    tokens, each a or b, one space apart: value.split() would give them.
    Nothing sized by m is built before the length test, as m is read from
    the file."""
    a = value.partition(" ")[0]
    lead, at = a + " ", 0
    while value.startswith(lead, at):
        at += len(lead)
    b = value[at:].partition(" ")[0]
    if f"{a} {b}".split() != [a, b]:
        return None
    long, short = (a, b) if len(a) >= len(b) else (b, a)
    text = value.replace(long, "\r").replace(short, "\n")
    cells = text[::2]
    if len(text) != 2 * m - 1 or text[1::2] != " " * (m - 1) \
            or cells.count("\r") + cells.count("\n") != m:
        return None
    # a uniform row (b == a) has the one key '\r'
    return cells, {"\r" if t == long else "\n": t for t in (a, b)}


def instance_digest(instance: Instance) -> str:
    return hashlib.sha256(instance_text(instance).encode()).hexdigest()


# --------------------------------------------------------------- pipeline

class StageSummary(namedtuple("StageSummary", "name rounds events")):
    """A report's stage: its name, its round count and its TraceEvents."""
    __slots__ = ()


class Verdicts(namedtuple("Verdicts", "entry_equilibrium entry_pef1 entry_ef1 "
                          "final_equilibrium final_pef1 beta_pefx beta_efx "
                          "oracle_po", defaults=(None,))):
    """A run's verdicts: booleans, and the two envy factors as Fractions
    or UNBOUNDED; oracle_po is None when the oracle did not run."""
    __slots__ = ()


class RunReport(namedtuple(
        "RunReport", "digest mode requested_mode n m k new_to_old entry_owner "
        "entry_pay_high owner pay_high stages verdicts success timings "
        "error", defaults=(None,))):
    """A run: the instance's identity, the entry and final states, the
    stages' events, the verdicts, and the error of a run without verdicts.
    event_lines is not a field: it holds parse_report's event lines, and
    equality, repr and _replace copies leave it out."""
    event_lines: tuple[str, ...] | None = None

    @property
    def trace(self) -> tuple[TraceEvent, ...]:
        return tuple(ev for stage in self.stages for ev in stage.events)


# each mode's stage names, in run order; auto resolves to approx or exact2
MODE_STAGES = {"pef1": ("pef1",), "approx": ("pef1", "approx_efx"),
               "exact2": ("pef1", "efx_k2")}
MODES = ("auto", *MODE_STAGES)


def resolve_mode(mode: str, k: Fraction) -> str:
    if mode == "auto":
        return "exact2" if k == 2 else "approx"
    return mode


def verdicts_succeed(v: Verdicts, mode: str, k: Fraction) -> bool:
    """A run's status: every verdict holds and the mode's bound is met
    (pEF1 for pef1, beta-efx <= 2 - 1/k for approx, exact EFX plus pEF1
    for exact2); an oracle-po verdict, when present, must hold."""
    if mode == "pef1":
        bound_ok = v.entry_pef1
    elif mode == "approx":
        bound_ok = beta_le(v.beta_efx, 2 - 1 / k)
    else:
        bound_ok = v.beta_efx == 1 and v.final_pef1
    return (v.entry_equilibrium and v.entry_pef1 and v.entry_ef1
            and v.final_equilibrium and bound_ok and v.oracle_po is not False)


def run_pipeline(instance: Instance | RawInstance, mode: str = "auto", *,
                 oracle_budget: int | None = None) -> RunReport:
    """pEF1 equilibrium, then the mode's reallocation stage, then verdicts.

    Modes: pef1 stops after the equilibrium; approx runs the high-to-low
    exchange stage; exact2 runs the {1,2} trade stage; auto picks exact2
    when k = 2 and approx otherwise.  Engine errors come back as a failed
    report with the message in .error rather than raising.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    inst, resolved = None, mode
    try:
        inst = normalize_instance(instance) \
            if isinstance(instance, RawInstance) else instance
        resolved = resolve_mode(mode, inst.k)
        t1 = time.perf_counter()
        state = run_pef1(inst)
        timings["pef1"] = time.perf_counter() - t1
        entry = state.entry
        names = MODE_STAGES[resolved]
        stages = [StageSummary(names[0], state.round_count, state.trace)]

        pef1_market = state.market
        t1 = time.perf_counter()
        if resolved == "pef1":
            final = pef1_market
        else:
            if resolved == "approx":
                result = approx_from_equilibrium(pef1_market)
            else:
                result = k2_from_equilibrium(pef1_market)
            stages.append(StageSummary(names[1], len(result.trace),
                                       result.trace))
            final = result.market
        timings["stage"] = time.perf_counter() - t1
    except ChorefairError as err:
        timings["total"] = time.perf_counter() - t0
        # an instance that normalized keeps its identity in the report
        digest, n, m, k = ("", 0, 0, Fraction(0)) if inst is None else \
            (instance_digest(inst), inst.n, inst.m, inst.k)
        return RunReport(
            digest=digest, mode=resolved, requested_mode=mode, n=n, m=m,
            k=k, new_to_old=(), entry_owner=(), entry_pay_high=(),
            owner=(), pay_high=(), stages=(), verdicts=None, success=False,
            error=f"{type(err).__name__}: {err}", timings=timings)

    t1 = time.perf_counter()
    reindexed = pef1_market.instance
    oracle_po = None
    if oracle_budget is not None and \
            reindexed.n ** reindexed.m < oracle_budget:
        oracle_po = is_pareto_optimal(reindexed, final.allocation,
                                      budget=oracle_budget)
    verdicts = compute_verdicts(pef1_market, final, oracle_po)
    timings["verify"] = time.perf_counter() - t1

    success = verdicts_succeed(verdicts, resolved, inst.k)
    timings["total"] = time.perf_counter() - t0
    return RunReport(
        digest=instance_digest(inst), mode=resolved, requested_mode=mode,
        n=inst.n, m=inst.m, k=inst.k,
        new_to_old=state.groups.new_to_old,
        entry_owner=entry.allocation.owner,
        entry_pay_high=_flags(entry.high, inst.m),
        owner=final.allocation.owner, pay_high=_flags(final.high, inst.m),
        stages=tuple(stages), verdicts=verdicts, success=success,
        timings=timings)


def compute_verdicts(pef1: MarketState, final: MarketState,
                     oracle_po: bool | None) -> Verdicts:
    """The recomputable verdicts of a run whose pEF1 stage ended at pef1
    and whose last stage ended at final (the same object when that stage
    moved nothing: checked once, on one envy kernel); oracle-po is given."""
    entry = check_equilibrium(pef1).holds, check_pEF1(pef1).holds
    end = entry if final is pef1 else \
        (check_equilibrium(final).holds, check_pEF1(final).holds)
    return Verdicts(*entry, check_EF1(pef1).holds, *end,
                    min_beta_pEFX(final).value, min_beta_EFX(final).value,
                    oracle_po)


def _flags(mask: int, m: int) -> tuple[bool, ...]:
    """The m per-chore flags of a bitmask, chore 0 first."""
    return tuple(bit == "1" for bit in format(mask, f"0{m}b")[::-1])


# ---------------------------------------------------------------- report IO

def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _fmt_status(success: bool) -> str:
    return "ok" if success else "failed"


def _event_line(ev: TraceEvent, text: Callable[[int], str]) -> str:
    """The event's line; text renders an earning's 1/q units."""
    parts = [
        f"stage={ev.stage}", f"round={ev.round}", f"kind={ev.kind}",
        "agents=" + ",".join(map(str, ev.agents)),
        "items=" + ",".join(map(str, ev.items)),
        "earn_before=" + ",".join(map(text, ev.earn_before)),
        "earn_after=" + ",".join(map(text, ev.earn_after)),
    ]
    if ev.least_earning is not None:
        parts.append(f"least={text(ev.least_earning)}")
    return "event: " + " ".join(parts)


def report_text(report: RunReport, *, timings: bool = True) -> str:
    lines = [f"format: {REPORT_FORMAT}", *_render(report, _HEADER, "")]
    q = report.k.denominator  # each distinct earning is rendered once
    text = cache(lambda units: _fmt_rational(Fraction(units, q)))
    events = iter(report.event_lines
                  or [_event_line(ev, text) for ev in report.trace])
    for stage in report.stages:
        lines.append(f"stage: {stage.name} rounds={stage.rounds}")
        lines.extend(islice(events, len(stage.events)))
    if report.verdicts is not None:
        lines += _render(report.verdicts, _VERDICTS, "verdict ")
    if timings:
        for name in sorted(report.timings):
            lines.append(f"timing {name}: {report.timings[name]:.6f}")
    return "\n".join(lines) + "\n"


def report_fingerprint(report: RunReport) -> str:
    """sha256 of the report text without its timing lines."""
    return hashlib.sha256(
        report_text(report, timings=False).encode()).hexdigest()


def parse_int(token: str, where: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{where}: not an integer: {token!r}") from None


# a count or index as report_text writes it; [0-9]: int() also reads '+',
# '_', surrounding spaces and other digits
_INDEX = "(?:0|[1-9][0-9]*)"
_INDEX_TOKEN = re.compile(_INDEX)
_INDEX_TOKENS = re.compile(f"(?:{_INDEX}(?: {_INDEX})*)?")


def _parse_index(token: str, where: str) -> int:
    if _INDEX_TOKEN.fullmatch(token) is None:
        raise ParseError(f"{where}: not written as a decimal without sign "
                         f"or leading zero: {token!r}")
    try:
        return int(token)
    except ValueError:  # past int()'s digit limit
        raise ParseError(f"{where}: too many digits in {token!r}") from None


def _parse_ints(value: str, where: str) -> tuple[int, ...]:
    """The indices of a list written one space apart, at C speed; in any
    other list a pass over its one-space pieces names the first bad one."""
    if _INDEX_TOKENS.fullmatch(value):
        try:
            return tuple(map(int, value.split()))
        except ValueError:  # past int()'s digit limit
            pass
    return tuple(_parse_index(t, where) for t in value.split(" "))


def _parse_lowest_terms(token: str, where: str,
                        what: str) -> tuple[int, int]:
    """_parse_pair of a token that is its own lowest-terms 'num/den', as
    _fmt_rational writes it; any other spelling is a ParseError."""
    num, den = pair = _parse_pair(token, where)
    if token != f"{num}/{den}":
        raise ParseError(f"{where}: {what} {token!r} is not written as "
                         f"num/den in lowest terms")
    return pair


def _parse_choice(token: str, choices: tuple[str, str], where: str) -> bool:
    """True for the first choice, False for the second."""
    if token not in choices:
        raise ParseError(f"{where}: expected {' or '.join(choices)}, "
                         f"got {token!r}")
    return token == choices[0]


# A value kind is a (render, read) pair: read(token, where) gives back the
# value that render wrote as token, or raises a ParseError starting with where

def _read_rational(token: str, where: str) -> Fraction:
    return Fraction(*_parse_lowest_terms(token, where, "value"))


def _read_flags(token: str, where: str) -> tuple[bool, ...]:
    if token.strip("01"):
        raise ParseError(f"{where}: expected characters 0/1")
    return tuple(map(_BITS.__getitem__, token))


_TEXT = (str, lambda token, where: token)
_COUNT = (str, _parse_index)
_RATIONAL = (_fmt_rational, _read_rational)
_INDEX_LIST = (lambda v: " ".join(map(str, v)), _parse_ints)
_FLAGS = (lambda v: "".join("1" if h else "0" for h in v), _read_flags)
_STATUS = (_fmt_status, lambda token, where:  # named by its key alone
           _parse_choice(token, ("ok", "failed"), "status"))
_BOOLEAN = (_fmt_bool, lambda token, where:
            _parse_choice(token, ("true", "false"), where))
_BETA = (_fmt_rational, lambda token, where: UNBOUNDED
         if token == "unbounded" else _read_rational(token, where))

# Every header line and every verdict line of a report, in report order:
# key -> (record field, value kind).  A field that is None writes no line,
# and a line may be missing only when its field defaults to None.
_HEADER = {
    "digest": ("digest", _TEXT), "mode": ("mode", _TEXT),
    "requested-mode": ("requested_mode", _TEXT),
    "status": ("success", _STATUS), "error": ("error", _TEXT),
    "n": ("n", _COUNT), "m": ("m", _COUNT), "k": ("k", _RATIONAL),
    "new-to-old": ("new_to_old", _INDEX_LIST),
    "entry-owner": ("entry_owner", _INDEX_LIST),
    "entry-pay-high": ("entry_pay_high", _FLAGS),
    "owner": ("owner", _INDEX_LIST), "pay-high": ("pay_high", _FLAGS)}
_VERDICTS = {
    "entry-equilibrium": ("entry_equilibrium", _BOOLEAN),
    "entry-pef1": ("entry_pef1", _BOOLEAN),
    "entry-ef1": ("entry_ef1", _BOOLEAN),
    "final-equilibrium": ("final_equilibrium", _BOOLEAN),
    "final-pef1": ("final_pef1", _BOOLEAN),
    "beta-pefx": ("beta_pefx", _BETA), "beta-efx": ("beta_efx", _BETA),
    "oracle-po": ("oracle_po", _BOOLEAN)}


def _render(record, rows: dict, prefix: str) -> list[str]:
    """The lines of rows' fields of record that are not None."""
    return [f"{prefix}{key}: {render(value)}"
            for key, (field, (render, _)) in rows.items()
            if (value := getattr(record, field)) is not None]


def _read(record: type, rows: dict, raw: dict[str, str],
          group: str) -> dict:
    """The fields of record that rows read from raw, the values by key, in
    row order; the first line that does not read is a ParseError, and so
    is a missing line whose field has no default."""
    fields = {}
    for key, (field, (_, read)) in rows.items():
        if key in raw:
            fields[field] = read(raw[key], f"{group} {key}")
        elif field not in record._field_defaults:
            raise ParseError(f"missing {group} {key!r}")
    return fields


# a body as _event_line writes it
_INDICES = f"((?:{_INDEX}(?:,{_INDEX})*)?)"
_SPELLINGS = r"((?:[^\s,]+(?:,[^\s,]+)*)?)"
_CANONICAL_EVENT = re.compile(
    rf"stage=(\S*) round=({_INDEX}) kind=(\S*) agents={_INDICES} "
    rf"items={_INDICES} earn_before={_SPELLINGS} earn_after={_SPELLINGS}"
    r"(?: least=([^\s,]+))?")
_EVENT_FORM = ("stage=S round=R kind=K agents=A items=I earn_before=E "
               "earn_after=E [least=L]")


def _parse_event(lineno: int, body: str, known: dict[str, tuple[int, int]]):
    """(lineno, (stage, round, kind, agents, items), earn_before,
    earn_after, least) of an event body as _event_line writes it, earnings
    as spellings; any other body is a ParseError naming its line.  A
    spelling new to the report must be its own lowest-terms 'num/den'; it
    is parsed once, into known."""
    where = f"line {lineno}"
    match = _CANONICAL_EVENT.fullmatch(body)
    if match is None:
        raise ParseError(f"{where}: expected an event as {_EVENT_FORM}")
    stage, rnd, kind, agents, items, before, after, least = match.groups()
    try:
        head = (stage, int(rnd), kind,
                tuple(map(int, agents.split(","))) if agents else (),
                tuple(map(int, items.split(","))) if items else ())
    except ValueError:  # past int()'s digit limit
        raise ParseError(f"{where}: an event index has too many digits") \
            from None
    before, after = [s.split(",") if s else [] for s in (before, after)]
    for t in (*before, *after) if least is None else (*before, *after, least):
        if t not in known:
            known[t] = _parse_lowest_terms(t, where, "event earning")
    return lineno, head, before, after, least


def load_report(path: str) -> RunReport:
    return parse_report(_read_text(path))


def parse_report(text: str) -> RunReport:
    """The report of a report file's text, which keeps its event lines in
    event_lines.  The header lines are read (_read), then the chore vectors
    checked against n and each other, then the verdicts read; a stage line
    must be NAME rounds=R, an event line as _event_line writes it.  Event
    earnings become 1/q units last, once k is known: one that is not a
    whole number of units is a ParseError naming its line."""
    head: dict[str, str] = {}
    verdict_raw: dict[str, str] = {}
    stages: list[tuple[str, int, list]] = []  # name, rounds, parsed events
    event_lines: list[str] = []
    timings: dict[str, float] = {}
    known: dict[str, tuple[int, int]] = {}  # event earnings, by spelling

    for lineno, key, value in _fields(text, REPORT_FORMAT,
                                      ("stage", "event")):
        if key == "stage":
            # NAME rounds=R, with no whitespace in NAME
            name, sep, rounds = value.partition(" rounds=")
            if not sep or name.split() != [name]:
                raise ParseError(f"line {lineno}: bad stage line")
            if rounds[:1] == "-" and _INDEX_TOKEN.fullmatch(rounds[1:]):
                raise ParseError(f"line {lineno}: negative stage rounds "
                                 f"{rounds}")
            stages.append((name, _parse_index(
                rounds, f"line {lineno}: stage rounds"), []))
        elif key == "event":
            if not stages:
                raise ParseError(f"line {lineno}: event outside a stage")
            stages[-1][2].append(_parse_event(lineno, value, known))
            event_lines.append("event: " + value)
        elif key.startswith("verdict "):
            name = key[len("verdict "):]
            if name not in _VERDICTS:
                raise ParseError(f"line {lineno}: unknown verdict {name!r}")
            verdict_raw[name] = value
        elif key.startswith("timing "):
            try:
                timings[key[len("timing "):]] = float(value)
            except ValueError:
                raise ParseError(f"line {lineno}: timing is not a number: "
                                 f"{value!r}") from None
        elif key in _HEADER:
            head[key] = value
        else:
            raise ParseError(f"line {lineno}: unknown field {key!r}")

    fields = _read(RunReport, _HEADER, head, "field")
    n = fields["n"]
    for key, owners in (("entry-owner", fields["entry_owner"]),
                        ("owner", fields["owner"])):
        if owners and max(owners) >= n:
            raise ParseError(f"field {key}: an agent index is not below {n}")
    # one entry per chore in each; verify compares them with m
    if len({len(fields[name]) for name in ("entry_owner", "entry_pay_high",
                                           "owner", "pay_high")}) > 1:
        raise ParseError("fields entry-owner, entry-pay-high, owner and "
                         "pay-high differ in length")
    verdicts = Verdicts(**_read(Verdicts, _VERDICTS, verdict_raw,
                                "verdict")) if verdict_raw else None
    report = RunReport(**fields, verdicts=verdicts, timings=timings,
                       stages=_stages_in_units(stages, known, fields["k"]))
    report.event_lines = tuple(event_lines)
    return report


def _stages_in_units(stages, known: dict[str, tuple[int, int]],
                     k: Fraction) -> tuple[StageSummary, ...]:
    """parse_report's stages with their events built, each earning in 1/q
    units (q the denominator of k)."""
    q = k.denominator
    # (num, den) in lowest terms is a whole number of units iff den | q
    units = {t: num * (q // den) for t, (num, den) in known.items()
             if q % den == 0}
    out = []
    for name, rounds, parsed in stages:
        events = []
        for lineno, head, before, after, least in parsed:
            try:
                events.append(TraceEvent(
                    *head, tuple(map(units.__getitem__, before)),
                    tuple(map(units.__getitem__, after)),
                    None if least is None else units[least]))
            except KeyError as bad:
                raise ParseError(
                    f"line {lineno}: event earning {bad.args[0]!r} is not a "
                    f"whole number of 1/{q} units at k = {k}") from None
        out.append(StageSummary(name, rounds, tuple(events)))
    return tuple(out)


# ------------------------------------------------------------ verification

def verify_report(inst: Instance, report: RunReport) -> list[str]:
    """Every inconsistency of a stored report with the instance, in a fixed
    order; empty when the report verifies.

    The stored entry and final states are built once each, as markets.
    The entry-* verdicts describe the pEF1 output, the market that the
    report's pef1 events reach from the stored entry one, which must itself
    be an equilibrium; the later stages' events must take it to the stored
    final market, on which the final verdicts are recomputed.  oracle-po is
    taken from the report; the status is recomputed for a known mode only.
    """
    problems: list[str] = []
    if report.digest != instance_digest(inst):
        problems.append("digest mismatch: report was made for a different instance")
    if report.verdicts is None:
        return problems + ["report carries no verdicts"]
    if report.error is not None:  # run_pipeline's failed runs have no verdicts
        problems.append(f"error: report says {report.error!r}, but a run "
                        f"with verdicts has no error")
    if sorted(report.new_to_old) != list(range(inst.n)):
        return problems + ["new-to-old is not a permutation"]
    # the stored states cannot be built for an instance of another shape
    shape = [f"{name}: report says {got}, instance has {want}"
             for name, got, want in (
                 ("n", report.n, inst.n), ("m", report.m, inst.m),
                 ("k", report.k, inst.k),
                 ("chores in owner", len(report.owner), inst.m),
                 ("chores in pay-high", len(report.pay_high), inst.m),
                 ("chores in entry-owner", len(report.entry_owner), inst.m),
                 ("chores in entry-pay-high", len(report.entry_pay_high),
                  inst.m))
             if got != want]
    for key, owner in (("owner", report.owner),
                       ("entry-owner", report.entry_owner)):
        stray = next((o for o in owner if not 0 <= o < inst.n), None)
        if stray is not None:
            shape.append(f"{key}: agent {stray} is not in 0..{inst.n - 1}")
    if shape:
        return problems + shape
    problems += _verify_stages(report)
    reindexed = relabel_agents(inst, report.new_to_old)

    def market(owner, flags):  # a pay-high line reversed is the mask in binary
        return build_market_state(reindexed, bundle_masks(owner, inst.n),
                                  int(_FLAGS[0](flags)[::-1], 2))
    entry = market(report.entry_owner, report.entry_pay_high)
    final = market(report.owner, report.pay_high)
    # replay the first stage's events, then the later ones' from their end
    trace = report.trace
    cut = len(report.stages[0].events) if report.stages else 0
    try:
        pef1_out = replay_trace(entry, trace[:cut])
        replayed = replay_trace(pef1_out, trace[cut:])
    except ValueError as err:
        return problems + [f"trace replay failed: {err}"]
    if replayed != final:
        problems.append("trace replay does not reach the final state")
    if pef1_out == final:  # no later stage moved a chore: check it once
        pef1_out = final
    if not check_equilibrium(entry).holds:
        problems.append("the stored entry state is not an equilibrium")
    v = report.verdicts
    fresh = compute_verdicts(pef1_out, final, v.oracle_po)
    for key, (name, (render, _)) in _VERDICTS.items():
        got, said = getattr(fresh, name), getattr(v, name)
        if got != said:
            problems.append(f"{key}: recomputed {render(got)}, "
                            f"report says {render(said)}")
    if report.mode not in MODE_STAGES or \
            report.mode != resolve_mode(report.requested_mode, inst.k):
        problems.append(f"mode: {report.mode!r} is not what requested mode "
                        f"{report.requested_mode!r} resolves to")
    if report.mode in MODE_STAGES:  # an unknown mode has no status to check
        status = verdicts_succeed(fresh, report.mode, inst.k)
        if status != report.success:
            problems.append(f"status: recomputed {_fmt_status(status)}, "
                            f"report says {_fmt_status(report.success)}")
    return problems


def _verify_stages(report: RunReport) -> list[str]:
    """Stage names against the mode; each stage's name against its events'
    stage fields, and its rounds against its events, which number the
    rounds 1..R."""
    problems = []
    names = [stage.name for stage in report.stages]
    want = list(MODE_STAGES.get(report.mode, names))
    if names != want:
        problems.append(f"stages: {names} are not {want} "
                        f"for mode {report.mode}")
    for stage in report.stages:
        stray = next((ev for ev in stage.events if ev.stage != stage.name),
                     None)
        if stray is not None:
            problems.append(f"stage {stage.name}: the event of round "
                            f"{stray.round} says stage={stray.stage}")
        numbers = {ev.round for ev in stage.events}
        # compare the counts first: rounds= may be any size
        if len(numbers) != stage.rounds or \
                numbers != set(range(1, len(numbers) + 1)):
            problems.append(f"stage {stage.name}: rounds={stage.rounds} but "
                            f"its events number rounds {sorted(numbers)}")
    return problems


# -------------------------------------------------------------------- bench

BENCH_COLUMNS = ("n", "m", "k", "high_prob", "seed", "mode", "status",
                 "pef1_rounds", "stage_rounds", "beta_efx", "beta_pefx",
                 "equilibrium", "pef1", "ef1", "elapsed_ms")


def bench(grid: list[GenParams], *, mode: str = "auto") -> tuple[str, int]:
    """One CSV row per grid cell in order, then one aggregate row per k
    with the largest envy factor observed for that k; and the count of
    failed rows: a failed status, or an error other than AlreadyUniform,
    which is a property of the seed's draw.
    """
    import csv  # only bench writes CSV; solve and verify never load it

    failed = 0
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(BENCH_COLUMNS)
    worst: dict[str, Fraction | Unbounded] = {}
    for params in grid:
        cell = [params.n, params.m, _fmt_rational(params.k),
                _fmt_rational(params.high_prob), params.seed]
        report = run_pipeline(gen_instance(params), mode)
        v = report.verdicts
        if v is None:
            writer.writerow(cell + [mode, f"error:{report.error}"] + [""] * 8)
            failed += not report.error.startswith("AlreadyUniform")
            continue
        key = _fmt_rational(params.k)
        if key not in worst or beta_le(worst[key], v.beta_efx):
            worst[key] = v.beta_efx
        stage_rounds = sum(s.rounds for s in report.stages[1:])
        writer.writerow(cell + [
            report.mode, _fmt_status(report.success),
            report.stages[0].rounds, stage_rounds,
            _fmt_rational(v.beta_efx), _fmt_rational(v.beta_pefx),
            _fmt_bool(v.final_equilibrium), _fmt_bool(v.entry_pef1),
            _fmt_bool(v.entry_ef1),
            f"{report.timings.get('total', 0.0) * 1000:.3f}"])
        failed += not report.success
    for key in sorted(worst):
        writer.writerow(["aggregate", "", key, "", "", mode, "",
                         "", "", _fmt_rational(worst[key]), "",
                         "", "", "", ""])
    return out.getvalue(), failed

