"""Tests of the independent output checker.

    python3 -m pytest -q bench
"""
import contextlib
import io
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checker  # noqa: E402
from chorefair.cli import main  # noqa: E402

QUICKSTART = [["3", "3", "6", "3"], ["1/2", "1", "1", "1/2"], ["1", "2", "2", "1"]]


def rows_of(table):
    return tuple(tuple(Fraction(c) for c in row) for row in table)


def run_quickstart(tmp_path):
    """Solve (with the oracle verdict) and run the oracle on the README
    quickstart instance; returns the report and oracle texts."""
    inst, report = tmp_path / "quickstart.inst", tmp_path / "quickstart.report"
    inst.write_text("format: chorefair-instance/1\nkind: raw\nn: 3\nm: 4\n"
                    + "".join("row: " + " ".join(r) + "\n" for r in QUICKSTART))
    assert main(["solve", str(inst), "--out", str(report),
                 "--oracle-budget", "1000"]) == 0
    oracle_out = io.StringIO()
    with contextlib.redirect_stdout(oracle_out):
        assert main(["oracle", str(inst)]) == 0
    return report.read_text(), oracle_out.getvalue()


def hand_report(mode, k, owner, beta):
    """A report with identity agent order, all payments 1, no rounds."""
    stage = "approx_efx" if mode == "approx" else "efx_k2"
    return "\n".join([
        "format: chorefair-report/1", f"mode: {mode}", "status: ok",
        "n: 2", f"m: {len(owner)}", f"k: {k}/1", "new-to-old: 0 1",
        "owner: " + " ".join(map(str, owner)), "pay-high: " + "0" * len(owner),
        "stage: pef1 rounds=0", f"stage: {stage} rounds=0",
        f"verdict beta-efx: {beta}", ""])


def test_accepts_the_readme_quickstart(tmp_path):
    text, oracle_text = run_quickstart(tmp_path)
    problems, rep, beta = checker.check_solve(rows_of(QUICKSTART), text)
    assert problems == []
    assert rep.mode == "exact2" and beta == 1
    assert checker.check_oracle(rows_of(QUICKSTART), rep, beta, oracle_text) == []


def test_rejects_a_dominated_allocation():
    # each agent holds the chore it finds costly; swapping helps both
    rows = rows_of([[1, 2], [2, 1]])
    problems, _, _ = checker.check_solve(
        rows, hand_report("exact2", 2, (1, 0), "1/1"))
    assert problems == [
        "equilibrium: agent 0 holds chore 1 at ratio 2 above its best 1",
        "equilibrium: agent 1 holds chore 0 at ratio 2 above its best 1"]


def test_rejects_an_allocation_over_the_approx_bound():
    # an equilibrium, but agent 0 keeps 2 after dropping a chore against 1
    rows = rows_of([[1, 1, 1, 1], [3, 3, 3, 1]])
    problems, _, beta = checker.check_solve(
        rows, hand_report("approx", 3, (0, 0, 0, 1), "2/1"))
    assert beta == 2
    assert problems == ["approx: beta 2 exceeds 2 - 1/k"]


def test_rejects_a_tampered_beta_verdict(tmp_path):
    text, _ = run_quickstart(tmp_path)
    text = text.replace("verdict beta-efx: 1/1", "verdict beta-efx: 3/2")
    problems, _, _ = checker.check_solve(rows_of(QUICKSTART), text)
    assert problems == ["beta-efx: report says 3/2, recomputed 1"]


def test_rejects_an_oracle_beta_above_the_solvers(tmp_path):
    text, oracle_text = run_quickstart(tmp_path)
    _, rep, beta = checker.check_solve(rows_of(QUICKSTART), text)
    # no witness although k = 2, and a best beta above the solver's that
    # its own witness (everything to agent 0) does not attain
    forged = "efx-po: none\nbest-beta-over-po: 3/2 with 0 0 0 0\n"
    problems = checker.check_oracle(rows_of(QUICKSTART), rep, beta, forged)
    assert "no EFX+PO allocation reported although k = 2" in problems
    assert "best-beta witness attains unbounded, oracle says 3/2" in problems
    assert "oracle best beta 3/2 exceeds the solver's 1" in problems
