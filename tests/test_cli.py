"""Command-line surface: gen, solve, verify, oracle, bench."""

import pytest

from chorefair import load_report
from chorefair.cli import main


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


def test_solve_prints_trace_when_asked(paths, capsys):
    gen_ok(paths)
    assert main(["solve", paths["inst"], "--trace"]) == 0
    out = capsys.readouterr().out
    assert "status: ok" in out


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


def test_verify_rejects_a_forged_verdict(paths, capsys):
    gen_ok(paths)
    assert main(["solve", paths["inst"], "--out", paths["report"]]) == 0
    text = open(paths["report"]).read()
    assert "verdict beta-efx: 1/1" in text
    open(paths["report"], "w").write(
        text.replace("verdict beta-efx: 1/1", "verdict beta-efx: 2/1"))
    capsys.readouterr()
    assert main(["verify", paths["inst"], paths["report"]]) == 1


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


def test_solve_rejects_uniform_instances_cleanly(paths):
    assert main(["gen", "--n", "2", "--m", "2", "--k", "2",
                 "--high-prob", "0", "--seed", "0",
                 "--out", paths["inst"]]) == 0
    # all costs land on 1; the solver cannot infer k from a raw matrix
    assert main(["solve", paths["inst"]]) in (1, 2)


MALFORMED_INSTANCES = {
    "normalized k below 1": ("kind: normalized", "n: 2", "m: 2", "k: 1/2",
                             "row: 01", "row: 10"),
    "normalized all-1 row": ("kind: normalized", "n: 2", "m: 2", "k: 2",
                             "row: 01", "row: 11"),
    "normalized n zero": ("kind: normalized", "n: 0", "m: 2", "k: 2"),
    "raw n zero": ("kind: raw", "n: 0", "m: 2"),
    "raw m zero": ("kind: raw", "n: 1", "m: 0", "row:"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INSTANCES))
def test_malformed_instances_exit_2_without_a_traceback(paths, capsys, case):
    lines = ("format: chorefair-instance/1",) + MALFORMED_INSTANCES[case]
    open(paths["inst"], "w").write("\n".join(lines) + "\n")
    assert main(["solve", paths["inst"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ParseError: line ")
    assert "Traceback" not in err


def test_bench_writes_the_grid(paths):
    assert main(["bench", "--n", "2,3", "--m", "4", "--k", "2,3",
                 "--high-prob", "1/2", "--seeds", "2",
                 "--out", paths["csv"]]) == 0
    lines = open(paths["csv"]).read().strip().splitlines()
    assert lines[0].startswith("n,m,k")
    assert len(lines) == 1 + 8 + 2  # header, cells, aggregates
