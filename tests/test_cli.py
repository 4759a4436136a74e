"""Command-line surface: gen, solve, verify, oracle, bench."""

import argparse
import io
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chorefair.errors import ParseError
from chorefair.harness import (load_instance, load_report,
                               report_fingerprint, verify_report)
from chorefair.cli import build_parser, main

from conftest import rendered_fingerprint, rotation_instance, save_instance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INPUTS = os.path.join(ROOT, "bench", "inputs")


@pytest.fixture
def paths(tmp_path):
    return {
        "inst": str(tmp_path / "instance.txt"),
        "report": str(tmp_path / "report.txt"),
        "csv": str(tmp_path / "grid.csv"),
    }


def gen_ok(paths, *extra):
    code = main(["gen", "--n", "4", "--m", "8", "--k", "2",
                 "--high-prob", "1/2", "--seed", "11",
                 "--out", paths["inst"], *extra])
    assert code == 0


def test_gen_solve_verify_round_trip(paths, capsys):
    gen_ok(paths)
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    report = load_report(paths["report"])
    assert report.success
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_solve_prints_the_report_without_out(paths, capsys):
    gen_ok(paths)
    assert main(["solve", paths["inst"]]) == 0
    out = capsys.readouterr().out
    assert "status: ok" in out


def run_module(*argv, cwd, **kwargs):
    """`python -m chorefair ARGV` in a new interpreter, with the package
    taken from this checkout's src/; kwargs go to subprocess.run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"),
                      os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "chorefair", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120, **kwargs)


def test_the_module_entry_point_round_trips_and_fails_cleanly(tmp_path):
    for argv in (["gen", "--n", "4", "--m", "8", "--k", "2", "--seed", "11",
                  "--out", "demo.inst"],
                 ["solve", "demo.inst", "--out", "demo.report"],
                 ["verify", "demo.inst", "demo.report"]):
        proc = run_module(*argv, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("verify: ok (fingerprint ")
    (tmp_path / "bad.inst").write_text(
        "format: chorefair-instance/1\nkind: raw\nn: 0\nm: 2\n")
    proc = run_module("solve", "bad.inst", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("ParseError: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_solve_out_dash_prints_the_report(paths, capsys, tmp_path,
                                         monkeypatch):
    gen_ok(paths)
    monkeypatch.chdir(tmp_path)
    assert main(["solve", paths["inst"], "--out", "-"]) == 0
    assert "status: ok" in capsys.readouterr().out
    assert not os.path.exists("-")


def test_verify_rejects_a_tampered_report(paths, capsys):
    gen_ok(paths)
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    lines = open(paths["report"]).read().splitlines()
    # swap two owners on the final allocation line only, so the replayed
    # trace no longer lands on the stored state
    for idx, line in enumerate(lines):
        if line.startswith("owner:"):
            fields = line.split()
            assert fields[1] != fields[2]
            fields[1], fields[2] = fields[2], fields[1]
            lines[idx] = " ".join(fields)
            break
    open(paths["report"], "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 1
    err = capsys.readouterr().err
    assert "replay" in err or "equilibrium" in err


def test_verify_rejects_a_report_for_another_instance(paths, capsys, tmp_path):
    gen_ok(paths)
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    other = str(tmp_path / "other.txt")
    assert main(["gen", "--n", "4", "--m", "8", "--k", "2",
                 "--high-prob", "1/2", "--seed", "12",
                 "--out", other]) == 0
    capsys.readouterr()
    assert main(["verify", other, paths["report"]]) == 1
    assert "digest mismatch" in capsys.readouterr().err


def test_verify_fails_a_failed_report_on_its_missing_verdicts(paths,
                                                              capsys):
    # exact2 needs k = 2: the solve fails after normalizing the instance
    assert main(["gen", "--n", "3", "--m", "6", "--k", "3",
                 "--high-prob", "1/2", "--seed", "5",
                 "--out", paths["inst"]]) == 0
    assert main(["solve", paths["inst"], "--mode", "exact2",
                 "--out", paths["report"]]) == 1
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 1
    err = capsys.readouterr().err
    assert err == "verify: report carries no verdicts\n"


def test_verify_rejects_a_forged_verdict(paths, capsys):
    gen_ok(paths)
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    text = open(paths["report"]).read()
    assert "verdict beta-efx: 1/1" in text
    open(paths["report"], "w").write(
        text.replace("verdict beta-efx: 1/1", "verdict beta-efx: 2/1"))
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 1


def test_verify_rejects_a_forged_error_line(paths, capsys):
    # a run that stored verdicts ended without an error
    edit_report(paths, "status: ok", "status: ok\nerror: boom")
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 1
    assert capsys.readouterr() == (
        "", "verify: error: report says 'boom', but a run with verdicts has "
        "no error\n")


def test_verify_accepts_a_report_whose_payment_rounds_ran(paths, capsys):
    # the entry-* verdicts describe the pEF1 output, after the rounds
    save_instance(paths["inst"], rotation_instance())
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    report = load_report(paths["report"])
    assert report.stages[0].name == "pef1" and report.stages[0].rounds > 0
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 0
    assert "verify: ok" in capsys.readouterr().out


def test_verify_rejects_a_forged_entry_verdict(paths, capsys):
    save_instance(paths["inst"], rotation_instance())
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    text = open(paths["report"]).read()
    assert "verdict entry-pef1: true" in text
    open(paths["report"], "w").write(
        text.replace("verdict entry-pef1: true", "verdict entry-pef1: false"))
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 1
    assert "entry-pef1: recomputed true, report says false" in \
        capsys.readouterr().err


def test_verify_recomputes_status_and_beta_pefx(paths, capsys):
    gen_ok(paths)
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    lines = open(paths["report"]).read().splitlines()
    assert "status: ok" in lines
    lines = ["status: failed" if line == "status: ok"
             else "verdict beta-pefx: 99/1"
             if line.startswith("verdict beta-pefx:") else line
             for line in lines]
    open(paths["report"], "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 1
    err = capsys.readouterr().err
    assert "verify: status: recomputed ok, report says failed" in err
    assert "verify: beta-pefx: recomputed" in err


def test_verify_rejects_a_forged_mode(paths, capsys):
    # at k = 2 auto resolves to exact2; approx would judge by another bound
    gen_ok(paths)
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    text = open(paths["report"]).read()
    assert "mode: exact2" in text
    open(paths["report"], "w").write(
        text.replace("mode: exact2", "mode: approx"))
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 1
    assert "verify: mode: 'approx'" in capsys.readouterr().err


def test_verify_reports_an_unreplayable_trace(paths, capsys):
    save_instance(paths["inst"], rotation_instance())
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    lines = open(paths["report"]).read().splitlines()
    idx = next(i for i, line in enumerate(lines)
               if "kind=transfer" in line)
    lines[idx] = lines[idx].replace("agents=", "agents=3,")
    open(paths["report"], "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 1
    err = capsys.readouterr().err
    assert "trace replay failed" in err
    assert "Traceback" not in err


def test_normalized_gen_writes_zero_one_rows(paths):
    gen_ok(paths, "--normalized")
    text = open(paths["inst"]).read()
    assert "kind: normalized" in text
    assert "k: 2" in text


def test_oracle_command_finds_an_efx_po_witness(paths, capsys):
    assert main(["gen", "--n", "2", "--m", "4", "--k", "2",
                 "--high-prob", "1/2", "--seed", "3",
                 "--out", paths["inst"]]) == 0
    assert main(["oracle", paths["inst"], "--expect-efx"]) == 0
    out = capsys.readouterr().out
    assert "witness" in out or "beta" in out


def test_solve_exit_codes(paths):
    # missing file is an I/O failure, not a crash
    assert main(["solve", str(paths["inst"]) + ".nope"]) == 2


def test_solve_rejects_uniform_instances_cleanly(paths, capsys):
    # gen refuses a draw whose rows are all uniform and writes nothing
    for prob, seed in (("0", "0"), ("1/4", "1")):
        assert main(["gen", "--n", "2", "--m", "3", "--k", "2",
                     "--high-prob", prob, "--seed", seed,
                     "--out", paths["inst"]]) == 2
        assert "AlreadyUniform" in capsys.readouterr().err
        assert not os.path.exists(paths["inst"])
    # all costs are 1; the solver cannot infer k from a raw matrix
    open(paths["inst"], "w").write(
        "format: chorefair-instance/1\nkind: raw\nn: 2\nm: 2\n"
        "row: 1 1\nrow: 1 1\n")
    assert main(["solve", paths["inst"]]) in (1, 2)


# (event text of the report of gen --n 4 --m 10 --k 3 --high-prob 3/4
# --seed 7, its tampered form); the first match is replaced
TAMPERED_EVENTS = {
    "raise of a chore past m": ("kind=raise agents=0 items=1,3,6,9",
                                "kind=raise agents=0 items=999"),
    "transfer with one agent": ("kind=transfer agents=0,3 items=1",
                                "kind=transfer agents=0 items=1"),
    "transfer with no chore": ("kind=transfer agents=0,3 items=1",
                               "kind=transfer agents=0,3 items="),
    "transfer to agent n+5": ("kind=transfer agents=0,3 items=1",
                              "kind=transfer agents=0,9 items=1"),
}


@pytest.mark.parametrize("case", sorted(TAMPERED_EVENTS))
def test_verify_reports_a_malformed_trace_event(paths, capsys, case):
    assert main(["gen", "--n", "4", "--m", "10", "--k", "3",
                 "--high-prob", "3/4", "--seed", "7",
                 "--out", paths["inst"]]) == 0
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    old, new = TAMPERED_EVENTS[case]
    text = open(paths["report"]).read()
    assert old in text
    open(paths["report"], "w").write(text.replace(old, new, 1))
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 1
    assert "verify: trace replay failed: replay: " in capsys.readouterr().err


# event kind -> the instance whose report has one: a bench input for the
# reallocation stages, the rotation fixture for the payment rounds
EARNING_SOURCES = {"swap": "swap-2382.inst", "move": "move-88.inst",
                   "bundle_swap": "bundle_swap-838.inst", "raise": None,
                   "transfer": None, "rotate": None}
EARNING_CLAIMS = [(kind, key) for kind, source in EARNING_SOURCES.items()
                  for key in ("earn_before", "earn_after")
                  + (() if source else ("least",))]


@pytest.mark.parametrize("kind, key", EARNING_CLAIMS)
def test_verify_rejects_a_false_event_earning(paths, capsys, kind, key):
    source = EARNING_SOURCES[kind]
    if source:
        paths["inst"] = os.path.join(INPUTS, source)
    else:
        save_instance(paths["inst"], rotation_instance())
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    lines = open(paths["report"]).read().splitlines()
    idx = next(i for i, line in enumerate(lines) if f" kind={kind} " in line)
    # the first earning the event states, one more than it is
    tokens = lines[idx].split()
    t = next(t for t, token in enumerate(tokens)
             if token.startswith(f"{key}="))
    first, *rest = tokens[t].split("=", 1)[1].split(",")
    more = Fraction(first) + 1  # written as report_text writes it
    tokens[t] = f"{key}=" + ",".join(
        [f"{more.numerator}/{more.denominator}", *rest])
    lines[idx] = " ".join(tokens)
    open(paths["report"], "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 1
    err = capsys.readouterr().err
    assert "verify: trace replay failed: replay: " in err
    assert f" {kind} says {key} " in err


@pytest.mark.parametrize("k, earning", [("2", "1/3"), ("5/2", "1/4")])
def test_verify_rejects_an_earning_of_no_whole_unit(paths, capsys, k,
                                                    earning):
    # earnings are whole 1/q units at k = p/q; any other is a parse error
    assert main(["gen", "--n", "4", "--m", "10", "--k", k,
                 "--high-prob", "3/4", "--seed", "7",
                 "--out", paths["inst"]]) == 0
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    lines = open(paths["report"]).read().splitlines()
    idx = next(i for i, line in enumerate(lines) if " kind=raise " in line)
    before = lines[idx].split(" earn_before=", 1)[1].split()[0]
    lines[idx] = lines[idx].replace(f" earn_before={before} ",
                                    f" earn_before={earning} ")
    open(paths["report"], "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 2
    q = Fraction(k).denominator
    assert capsys.readouterr().err == (
        f"ParseError: line {idx + 1}: event earning {earning!r} is not a "
        f"whole number of 1/{q} units at k = {k}\n")


def test_verify_rejects_a_pef1_event_without_least(paths, capsys):
    # the payment rounds state the least earning on every event they write
    assert main(["gen", "--n", "4", "--m", "8", "--k", "2", "--seed", "13",
                 "--out", paths["inst"]]) == 0
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    text = open(paths["report"]).read()
    raise_line = next(line for line in text.splitlines()
                      if " round=1 kind=raise " in line)
    assert raise_line.endswith(" least=1/1")
    open(paths["report"], "w").write(
        text.replace(raise_line, raise_line[:-len(" least=1/1")]))
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 1
    assert capsys.readouterr().err == ("verify: trace replay failed: replay: "
                                       "round 1 raise states no least\n")


MALFORMED_INSTANCES = {
    "normalized k below 1": ("kind: normalized", "n: 2", "m: 2", "k: 1/2",
                             "row: 01", "row: 10"),
    "normalized all-1 row": ("kind: normalized", "n: 2", "m: 2", "k: 2",
                             "row: 01", "row: 11"),
    "normalized n zero": ("kind: normalized", "n: 0", "m: 2", "k: 2"),
    "raw n zero": ("kind: raw", "n: 0", "m: 2"),
    "raw m zero": ("kind: raw", "n: 1", "m: 0", "row:"),
}


# a byte that is not UTF-8 first, midway (a lead byte before a '(') and last
NON_UTF8 = {
    "first byte": lambda data: b"\xff" + data[1:],
    "midway": lambda data: data[:len(data) // 2] + b"\xc3(" +
    data[len(data) // 2:],
    "last byte": lambda data: data[:-1] + b"\x80",
}


@pytest.mark.parametrize("case", sorted(NON_UTF8))
@pytest.mark.parametrize("command, target", [("solve", "inst"),
                                             ("oracle", "inst"),
                                             ("verify", "inst"),
                                             ("verify", "report")])
def test_non_utf8_input_exits_2_naming_the_byte(paths, capsys, case,
                                                command, target):
    gen_ok(paths)
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    with open(paths[target], "rb") as fh:
        data = fh.read()
    bad = NON_UTF8[case](data)
    with open(paths[target], "wb") as fh:
        fh.write(bad)
    at = next(i for i, byte in enumerate(bad) if byte > 0x7f)
    argv = [command, paths["inst"]] + \
        ([paths["report"]] if command == "verify" else [])
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        f"ParseError: byte {at}: not UTF-8 (0x{bad[at]:02x})\n"


@pytest.mark.parametrize("case", sorted(MALFORMED_INSTANCES))
def test_malformed_instances_exit_2_without_a_traceback(paths, capsys, case):
    lines = ("format: chorefair-instance/1",) + MALFORMED_INSTANCES[case]
    open(paths["inst"], "w").write("\n".join(lines) + "\n")
    assert main(["solve", paths["inst"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ParseError: line ")
    assert "Traceback" not in err


def test_a_huge_declared_m_with_a_short_row_exits_2(paths, capsys):
    # m is read from the file: nothing sized by it is built before a row
    # is found to hold m entries
    lines = ("format: chorefair-instance/1", "kind: raw", "n: 1",
             f"m: {10**12}", "row: 1 2 2")
    open(paths["inst"], "w").write("\n".join(lines) + "\n")
    assert main(["solve", paths["inst"]]) == 2
    assert capsys.readouterr().err == \
        f"ParseError: line 5: expected {10**12} entries, found 3\n"


def test_bench_writes_the_grid(paths):
    assert main(["bench", "--n", "2,3", "--m", "4", "--k", "2,3",
                 "--high-prob", "1/2", "--seeds", "2",
                 "--out", paths["csv"]]) == 0
    lines = open(paths["csv"]).read().strip().splitlines()
    assert lines[0].startswith("n,m,k")
    assert len(lines) == 1 + 8 + 2  # header, cells, aggregates


def test_bench_takes_a_high_prob_list_and_aggregates_per_k(paths):
    assert main(["bench", "--n", "2,3", "--m", "2,3,4", "--k", "2,3",
                 "--high-prob", "1/4,1/2", "--seeds", "1",
                 "--out", paths["csv"]]) == 0
    rows = open(paths["csv"]).read().strip().splitlines()
    assert len(rows) == 1 + 2 * 3 * 2 * 2 + 2
    assert {row.split(",")[3] for row in rows[1:-2]} == {"1/4", "1/2"}
    assert [row.split(",")[2] for row in rows
            if row.startswith("aggregate")] == ["2/1", "3/1"]


def test_bench_exits_1_on_a_failed_row(paths, capsys):
    # exact2 refuses k = 3, so every row is an error
    assert main(["bench", "--n", "2", "--m", "3", "--k", "3",
                 "--seeds", "2", "--mode", "exact2",
                 "--out", paths["csv"]]) == 1
    assert "bench: 2 of 2 rows failed" in capsys.readouterr().err


def solved_report_lines(paths):
    """The report of the k = 3 recipe instance, as lines."""
    assert main(["gen", "--n", "3", "--m", "6", "--k", "3",
                 "--high-prob", "1/2", "--seed", "5",
                 "--out", paths["inst"]]) == 0
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    return open(paths["report"]).read().splitlines()


def edit_report(paths, old, new):
    lines = solved_report_lines(paths)
    assert old in lines
    lines[lines.index(old)] = new
    open(paths["report"], "w").write("\n".join(lines) + "\n")


TAMPERED_HEADERS = {
    "k": ("k: 3/1", "k: 5/1", "k: report says 5, instance has 3"),
    "n": ("n: 3", "n: 4", "n: report says 4, instance has 3"),
    "m": ("m: 6", "m: 7", "m: report says 7, instance has 6"),
    "rounds": ("stage: pef1 rounds=0", "stage: pef1 rounds=7",
               "stage pef1: rounds=7 but its events number rounds []"),
    # the same bundles under another payment-k mask
    "pay-high": ("pay-high: 000001", "pay-high: 000011",
                 "trace replay does not reach the final state"),
}


@pytest.mark.parametrize("field", sorted(TAMPERED_HEADERS))
def test_verify_rejects_a_tampered_header(paths, capsys, field):
    old, new, problem = TAMPERED_HEADERS[field]
    edit_report(paths, old, new)
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 1
    assert f"verify: {problem}" in capsys.readouterr().err


def _cap_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_verify_reads_a_huge_stated_round_count_in_bounded_memory(paths):
    # verify once built the set 1..R from a report's rounds=R; the child
    # runs under a 1 GiB address-space limit, so that would fail fast
    rounds = 10 ** 12
    edit_report(paths, "stage: pef1 rounds=0", f"stage: pef1 rounds={rounds}")
    proc = run_module("verify", paths["inst"], paths["report"],
                      cwd=os.path.dirname(paths["inst"]),
                      preexec_fn=_cap_address_space)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == (f"verify: stage pef1: rounds={rounds} but its "
                           "events number rounds []\n")


def test_verify_rejects_stages_that_do_not_fit_the_mode(paths, capsys):
    edit_report(paths, "stage: approx_efx rounds=0",
                "stage: efx_k2 rounds=0")
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 1
    assert "verify: stages: ['pef1', 'efx_k2'] are not ['pef1', " \
        "'approx_efx'] for mode approx" in capsys.readouterr().err


@pytest.mark.parametrize("stated", ["anything", "efx_k2"])
def test_verify_rejects_an_event_stating_another_stage(paths, capsys,
                                                      stated):
    inst = os.path.join(INPUTS, "bundle_swap-838.inst")
    assert main(["solve", inst, "--out", paths["report"]]) == 0
    text = open(paths["report"]).read()
    assert text.count("event: stage=approx_efx ") == 1
    open(paths["report"], "w").write(text.replace(
        "event: stage=approx_efx ", f"event: stage={stated} "))
    capsys.readouterr()
    assert main(["verify", inst, paths["report"]]) == 1
    assert capsys.readouterr().err == (
        f"verify: stage approx_efx: the event of round 1 says "
        f"stage={stated}\n")


def test_verify_rejects_an_event_outside_the_stated_rounds(paths, capsys):
    save_instance(paths["inst"], rotation_instance())
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    text = open(paths["report"]).read()
    rounds = load_report(paths["report"]).stages[0].rounds
    stated = f"stage: pef1 rounds={rounds}"
    assert stated in text
    open(paths["report"], "w").write(
        text.replace(stated, f"stage: pef1 rounds={rounds - 1}"))
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 1
    assert f"verify: stage pef1: rounds={rounds - 1} but its events " \
        "number rounds [1, " in capsys.readouterr().err


def _drop_field(key):
    return lambda lines: [ln for ln in lines if not ln.startswith(f"{key}:")]


def _edit_field(key, change):
    def edit(lines):
        return [f"{key}: " + change(line.split(": ", 1)[1])
                if line.startswith(f"{key}:") else line for line in lines]
    return edit


NOT_DECIMAL = "not written as a decimal without sign or leading zero"
DIFFER = ("fields entry-owner, entry-pay-high, owner and pay-high differ in "
          "length")
EVENT_FORM = ("expected an event as stage=S round=R kind=K agents=A items=I "
              "earn_before=E earn_after=E [least=L]")
# an edit of the solved report and its ParseError message; {no} is the
# number of the first line the edit changed or added
MALFORMED_REPORTS = {
    "n not an integer": (_edit_field("n", lambda v: "x"),
                         f"field n: {NOT_DECIMAL}: 'x'"),
    "timing not a number": (_edit_field("timing total", lambda v: "abc"),
                            "line {no}: timing is not a number: 'abc'"),
    "verdict missing": (_drop_field("verdict entry-pef1"),
                        "missing verdict 'entry-pef1'"),
    "verdict not a boolean": (
        _edit_field("verdict entry-pef1", lambda v: "yes"),
        "verdict entry-pef1: expected true or false, got 'yes'"),
    "status unknown": (_edit_field("status", lambda v: "fine"),
                       "status: expected ok or failed, got 'fine'"),
    "owner entry out of range": (_edit_field("owner", lambda v: "3" + v[1:]),
                                 "field owner: an agent index is not below 3"),
    "owner entry not an integer": (
        _edit_field("owner", lambda v: "x" + v[1:]),
        f"field owner: {NOT_DECIMAL}: 'x'"),
    # an index list is read only one space apart, as report_text writes it
    "owner entries two spaces apart": (
        _edit_field("owner", lambda v: v.replace(" ", "  ", 1)),
        f"field owner: {NOT_DECIMAL}: ''"),
    "entry-owner entries a tab apart": (
        _edit_field("entry-owner", lambda v: v.replace(" ", "\t", 1)),
        f"field entry-owner: {NOT_DECIMAL}: '1\\t0'"),
    "new-to-old entries spaced and tabbed": (
        _edit_field("new-to-old", lambda v: v.replace(" ", " \t")),
        f"field new-to-old: {NOT_DECIMAL}: '\\t1'"),
    "owner one entry too many": (_edit_field("owner", lambda v: v + " 0"),
                                 DIFFER),
    "entry-owner one entry short": (
        _edit_field("entry-owner", lambda v: v[:-2]), DIFFER),
    "pay-high not 0/1": (_edit_field("entry-pay-high", lambda v: "7" + v[1:]),
                         "field entry-pay-high: expected characters 0/1"),
    "pay-high one flag too many": (_edit_field("pay-high", lambda v: v + "0"),
                                   DIFFER),
    "event before any stage": (lambda lines: lines[:1] + [
        "event: stage=pef1 round=1 kind=transfer agents=0,1 items=0 "
        "earn_before=1/1,0/1 earn_after=0/1,1/1"] + lines[1:],
        "line {no}: event outside a stage"),
    "event round not an integer": (lambda lines: lines + [
        "event: stage=pef1 round=x kind=transfer agents=0,1 items=0 "
        "earn_before=1/1,0/1 earn_after=0/1,1/1"], "line {no}: " + EVENT_FORM),
    # indices are plain decimals, so -1 fails the parse, not the replay
    "raise of a negative chore": (lambda lines: lines + [
        "event: stage=pef1 round=1 kind=raise agents=0 items=-1 "
        "earn_before=1/1 earn_after=1/1 least=1/1"],
        "line {no}: " + EVENT_FORM),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_malformed_reports_exit_2_without_a_traceback(paths, capsys, case):
    edit, message = MALFORMED_REPORTS[case]
    original = solved_report_lines(paths)
    lines = edit(original)
    no = next(no for no, (line, was) in enumerate(
        zip(lines, original + [None]), start=1) if line != was)
    open(paths["report"], "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 2
    assert capsys.readouterr().err == \
        f"ParseError: {message.format(no=no)}\n"


# a second copy of one field of each kind, inserted after the format line:
# the report then says two things, and the parser names the later line
REPEATED_FIELDS = {
    "header": ("digest: 0000", "digest"),
    "verdict": ("verdict beta-efx: 9/2", "verdict beta-efx"),
    "timing": ("timing total: 0.5", "timing total"),
}


@pytest.mark.parametrize("kind", sorted(REPEATED_FIELDS))
def test_a_repeated_report_field_exits_2_naming_its_line(paths, capsys,
                                                         kind):
    extra, key = REPEATED_FIELDS[kind]
    lines = solved_report_lines(paths)
    assert lines[0].startswith("format:")
    lines.insert(1, extra)
    later = next(no for no, line in enumerate(lines[2:], start=3)
                 if line.startswith(f"{key}:"))
    open(paths["report"], "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"ParseError: line {later}: duplicate field {key!r}")


def test_a_negative_stage_round_count_exits_2_naming_its_line(paths,
                                                              capsys):
    # set(range(1, -3)) is empty, so an event-free stage would pass verify;
    # a stage line is read only as written, NAME rounds=R, so a respelled
    # one fails too
    assert main(["gen", "--n", "3", "--m", "5", "--k", "3", "--seed", "4",
                 "--out", paths["inst"]]) == 0
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    lines = open(paths["report"]).read().splitlines()
    no = lines.index("stage: approx_efx rounds=0")
    for spelled, message in (
            ("approx_efx rounds=-4", "negative stage rounds -4"),
            ("approx_efx  rounds=0", "bad stage line"),
            ("approx_efx\trounds=0", "bad stage line"),
            ("approx_efx \trounds=0", "bad stage line"),
            ("approx efx rounds=0", "bad stage line"),
            ("rounds=0", "bad stage line")):
        lines[no] = f"stage: {spelled}"
        open(paths["report"], "w").write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", paths["inst"], paths["report"]]) == 2
        assert capsys.readouterr().err == \
            f"ParseError: line {no + 1}: {message}\n", spelled


# a header number respelled in a way int() reads but report_text never
# writes: the line as written, its respelling, and where the error points
RESPELLED_NUMBERS = {
    "n": ("n: 3", "n: 0_3", "field n"),
    "m": ("m: 5", "m: +5", "field m"),
    "k": ("k: 2/1", "k: 4/2", "field k"),
    "new-to-old": ("new-to-old: 0 1 2", "new-to-old: 0 01 2",
                   "field new-to-old"),
    "entry-owner": ("entry-owner: 1 0 0 2 1", "entry-owner: 1 0 0 2 \u0661",
                    "field entry-owner"),
    "owner": ("owner: 1 0 0 2 1", "owner: +1 0 0 2 1", "field owner"),
    "rounds": ("stage: pef1 rounds=0", "stage: pef1 rounds=0_0",
               "line 14: stage rounds"),
    "beta-pefx": ("verdict beta-pefx: 1/1", "verdict beta-pefx: 1",
                  "verdict beta-pefx"),
    "beta-efx": ("verdict beta-efx: 1/1", "verdict beta-efx: \u0661/1",
                 "verdict beta-efx"),
}


@pytest.mark.parametrize("field", sorted(RESPELLED_NUMBERS))
def test_a_respelled_header_number_exits_2_naming_its_field(paths, capsys,
                                                            field):
    old, new, where = RESPELLED_NUMBERS[field]
    assert main(["gen", "--n", "3", "--m", "5", "--k", "2", "--seed", "1",
                 "--out", paths["inst"]]) == 0
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    lines = open(paths["report"]).read().splitlines()
    lines[lines.index(old)] = new
    open(paths["report"], "w", encoding="utf-8").write("\n".join(lines)
                                                       + "\n")
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 2
    assert capsys.readouterr().err.startswith(f"ParseError: {where}: ")


# an event line's edit; either is not the one form report_text writes
BAD_EVENT_KEYS = {
    "unknown": lambda line: line + " foo=1",
    "repeated": lambda line: line.replace(" kind=", " kind=rotate kind=", 1),
}


@pytest.mark.parametrize("case", sorted(BAD_EVENT_KEYS))
def test_an_unknown_or_repeated_event_key_exits_2_naming_it(paths, capsys,
                                                           case):
    edit = BAD_EVENT_KEYS[case]
    assert main(["gen", "--n", "4", "--m", "8", "--k", "2", "--seed", "13",
                 "--out", paths["inst"]]) == 0
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    lines = open(paths["report"]).read().splitlines()
    no = next(no for no, line in enumerate(lines)
              if line.startswith("event: "))
    lines[no] = edit(lines[no])
    open(paths["report"], "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 2
    assert capsys.readouterr().err == \
        f"ParseError: line {no + 1}: {EVENT_FORM}\n"


BAD_OPTIONS = {
    "bench --n x": (["bench", "--n", "x"], "--n"),
    "bench --high-prob 3/2": (["bench", "--high-prob", "3/2"], "--high-prob"),
    "bench --seeds -1": (["bench", "--seeds", "-1"], "--seeds"),
    "gen --k 1": (["gen", "--n", "2", "--m", "3", "--k", "1"], "--k"),
    "gen --n 0": (["gen", "--n", "0", "--m", "3", "--k", "2"], "--n"),
    "gen --seed -5": (["gen", "--n", "2", "--m", "3", "--k", "2",
                       "--seed", "-5"], "--seed"),
}


@pytest.mark.parametrize("case", sorted(BAD_OPTIONS))
def test_bad_gen_and_bench_options_exit_2_naming_the_option(paths, capsys,
                                                            case):
    argv, option = BAD_OPTIONS[case]
    assert main(argv + ["--out", paths["csv"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ParseError: ")
    assert option in err


# a field its file kind does not define, and the line it sits on
UNDEFINED_INSTANCE_FIELDS = {
    "raw k": (("kind: raw", "n: 2", "m: 2", "k: 7/1", "row: 1 2",
               "row: 3 6"), 5, "kind raw has no field 'k'"),
    "normalized seed": (("kind: normalized", "n: 1", "m: 2", "k: 2",
                         "seed: 4", "row: 01"), 6,
                        "kind normalized has no field 'seed'"),
}


@pytest.mark.parametrize("case", sorted(UNDEFINED_INSTANCE_FIELDS))
def test_an_undefined_instance_field_exits_2_naming_its_line(paths, capsys,
                                                            case):
    body, lineno, problem = UNDEFINED_INSTANCE_FIELDS[case]
    lines = ("format: chorefair-instance/1",) + body
    open(paths["inst"], "w").write("\n".join(lines) + "\n")
    assert main(["solve", paths["inst"]]) == 2
    err = capsys.readouterr().err
    assert err == f"ParseError: line {lineno}: {problem}\n"


# a line no report defines, inserted after the format line
UNDEFINED_REPORT_FIELDS = {
    "header": ("bogus: 1", "unknown field 'bogus'"),
    "verdict": ("verdict made-up: true", "unknown verdict 'made-up'"),
}


@pytest.mark.parametrize("kind", sorted(UNDEFINED_REPORT_FIELDS))
def test_an_undefined_report_field_exits_2_naming_its_line(paths, capsys,
                                                          kind):
    extra, problem = UNDEFINED_REPORT_FIELDS[kind]
    lines = solved_report_lines(paths)
    lines.insert(1, extra)
    open(paths["report"], "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 2
    err = capsys.readouterr().err
    assert err == f"ParseError: line 2: {problem}\n"


def test_a_timing_line_of_any_name_still_verifies(paths, capsys):
    lines = solved_report_lines(paths)
    lines.append("timing anything-at-all: 0.25")
    open(paths["report"], "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 0
    assert capsys.readouterr().out.startswith("verify: ok")


# ---------------------------------------------------- the argument parser

# argv that end in argparse's help or usage error, before a command runs
PARSER_EXITS = [
    [], ["-h"], ["--help", "solve"], ["solv"],
    *([command, "-h"] for command in ("gen", "solve", "verify", "oracle",
                                      "bench")),
    ["solve"], ["gen", "--n", "3"], ["solve", "x", "--mode", "fast"],
    ["gen", "--n", "x", "--m", "2", "--k", "2"],
    ["solve", "x", "--wat"], ["verify", "a", "b", "c"],
]


def parser_exit(parse, argv):
    """(stdout, stderr, exit status) of parse(argv), which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            pytest.raises(SystemExit) as exit_:
        parse(list(argv))
    return out.getvalue(), err.getvalue(), exit_.value.code


@pytest.mark.parametrize("columns", ["80", "200"])
@pytest.mark.parametrize("argv", PARSER_EXITS,
                         ids=lambda argv: " ".join(argv) or "no arguments")
def test_main_exits_on_bad_argv_as_the_full_parser_does(monkeypatch, argv,
                                                         columns):
    monkeypatch.setenv("COLUMNS", columns)
    assert parser_exit(main, argv) == \
        parser_exit(build_parser().parse_args, argv)


def test_an_unrecognized_argument_shows_every_command(monkeypatch):
    # the top-level parser raises it, with its own usage line
    monkeypatch.setenv("COLUMNS", "80")
    assert parser_exit(main, ["solve", "x", "--wat"]) == (
        "", "usage: chorefair [-h] {gen,solve,verify,oracle,bench} ...\n"
        "chorefair: error: unrecognized arguments: --wat\n", 2)


def test_a_command_builds_only_its_own_subparser(paths, monkeypatch,
                                                 capsys):
    gen_ok(paths)
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, *args, **kwargs):
        built.append(name)
        return add_parser(self, name, *args, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert main(["verify", paths["inst"], paths["report"]]) == 0
    assert main(["oracle", paths["inst"]]) == 0
    assert built == ["verify", "oracle"]
    every = ["gen", "solve", "verify", "oracle", "bench"]
    for argv in (["-h"], ["solv"]):
        built.clear()
        with pytest.raises(SystemExit):
            main(argv)
        assert built == every


# ------------------------------------------------ whole reports, mutated

# the values a corrupted line or token takes
CORRUPTIONS = ("x", "1/0", "-1", "1/3", "")
# the instances of the mutated reports: every event kind, and k = 2, 3, 5/2
FUZZ_SOURCES = ("rotation", "swap-2382.inst", "move-88.inst",
                "bundle_swap-838.inst", "bundle_swap-3266.inst")


@pytest.fixture(scope="module")
def solved_reports(tmp_path_factory):
    """(instance text, report text) of each fuzz source, solved once."""
    tmp = tmp_path_factory.mktemp("fuzz")
    out = []
    for source in FUZZ_SOURCES:
        inst = os.path.join(INPUTS, source)
        if source == "rotation":
            inst = str(tmp / "rotation.inst")
            save_instance(inst, rotation_instance())
        report = str(tmp / f"{source}.report")
        assert main(["solve", inst, "--out", report]) == 0
        out.append((open(inst).read(), open(report).read()))
    return out


@st.composite
def line_edits(draw):
    """An edit that drops, duplicates or corrupts one line, or corrupts one
    token of it (a run of characters between ' ', '=', ',' and ':')."""
    action = draw(st.sampled_from(("drop", "duplicate", "line", "token")))
    at = draw(st.integers(0, 10 ** 6))
    value = draw(st.sampled_from(CORRUPTIONS))
    pick = draw(st.integers(0, 10 ** 6))

    def edit(lines):
        lines = list(lines)
        i = at % len(lines)
        if action == "drop":
            del lines[i]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        elif action == "line":
            lines[i] = value
        else:
            parts = re.split(r"([ =,:]+)", lines[i])
            parts[2 * (pick % ((len(parts) + 1) // 2))] = value
            lines[i] = "".join(parts)
        return lines

    return edit


@st.composite
def byte_edits(draw):
    """An edit that writes one byte above 0x7f over one byte of the file.
    Every multi-byte UTF-8 sequence has two or more such bytes, so an ASCII
    file with one of them is not UTF-8."""
    at = draw(st.integers(0, 10 ** 6))
    byte = bytes([draw(st.integers(0x80, 0xff))])

    def edit(data):
        i = at % len(data)
        return data[:i] + byte + data[i + 1:]

    return edit


@st.composite
def mutations(draw, n_reports):
    """(source index, file, edit): edit takes the source's "report" or
    "instance" text and returns the file's bytes after one or two line
    edits, one after the other, or after one byte edit."""
    which = draw(st.integers(0, n_reports - 1))
    target = draw(st.sampled_from(("report", "instance")))
    if draw(st.integers(0, 4)) == 0:
        one = draw(byte_edits())
        return which, target, lambda text: one(text.encode())
    edits = draw(st.lists(line_edits(), min_size=1, max_size=2))

    def edit(text):
        lines = text.splitlines()
        for one in edits:
            lines = one(lines)
        return ("\n".join(lines) + "\n").encode()

    return which, target, edit


@given(st.data())
@settings(max_examples=400)
def test_a_mutated_report_parses_or_fails_with_a_parse_error(solved_reports,
                                                             data):
    which, target, edit = data.draw(mutations(len(solved_reports)))
    texts = dict(zip(("instance", "report"), solved_reports[which]))
    files = {name: text.encode() for name, text in texts.items()}
    files[target] = edit(texts[target])
    with tempfile.TemporaryDirectory() as tmp:
        inst_path, report_path = (os.path.join(tmp, "instance"),
                                  os.path.join(tmp, "report"))
        for path, name in ((inst_path, "instance"), (report_path, "report")):
            with open(path, "wb") as fh:
                fh.write(files[name])
        try:
            inst = load_instance(inst_path)
        except ParseError:
            inst = None
        try:
            report = load_report(report_path)
        except ParseError:
            pass
        else:
            assert report_fingerprint(report) == rendered_fingerprint(report)
            if inst is not None:
                assert isinstance(verify_report(inst, report), list)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            codes = [main(["verify", inst_path, report_path])]
            if target == "instance":
                codes.append(main(["solve", inst_path, "--out",
                                   os.path.join(tmp, "solved")]))
    assert set(codes) <= {0, 1, 2}
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if not files[target].isascii():  # a byte edit: never UTF-8
        assert set(codes) == {2}
        assert err.getvalue().startswith("ParseError: byte ")
