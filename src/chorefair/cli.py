"""Command line front end: gen, solve, verify, oracle, bench.

Exit status is nonzero whenever a contractual verdict fails: a solve whose
report is not successful, a verify that finds a stored report inconsistent,
an oracle run contradicting a requested property, or a bench grid with a
failed row.
"""
from __future__ import annotations

import argparse
import csv
import io
import sys

from .errors import ChorefairError, ParseError
from .harness import (BENCH_COLUMNS, MODE_STAGES, MODES, VERDICT_KEYS,
                      GenParams, bench, compute_verdicts,
                      equilibrium_from_parts, gen_instance, instance_digest,
                      instance_text, load_instance, load_report, parse_int,
                      parse_rational, report_fingerprint, report_text,
                      resolve_mode, run_pipeline, verdicts_succeed)
from .model import Instance, normalize_instance, relabel_agents
from .oracle import DEFAULT_BUDGET, best_efx_beta_over_po
from .trace import replay_trace
from .verify import check_equilibrium


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _gen_params(**values) -> GenParams:
    """GenParams from option values; a rejected value is a ParseError that
    names its option (GenParams's messages start with the field name)."""
    try:
        return GenParams(**values)
    except ValueError as err:
        name, _, need = str(err).partition(" ")
        raise ParseError(f"--{name.replace('_', '-')} {need}") from None


def _cmd_gen(args) -> int:
    raw = gen_instance(_gen_params(
        n=args.n, m=args.m, k=parse_rational(args.k, "--k"),
        high_prob=parse_rational(args.high_prob, "--high-prob"),
        seed=args.seed))
    # a draw that does not normalize (all rows uniform) is an error, so gen
    # never writes an instance that solve rejects
    inst = normalize_instance(raw)
    _write(args.out, instance_text(inst if args.normalized else raw))
    return 0


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    report = run_pipeline(inst, args.mode, oracle_budget=args.oracle_budget)
    text = report_text(report)
    _write(args.out, text)
    if args.trace and args.out not in (None, "-"):
        sys.stdout.write(text)
    if not report.success:
        print(f"solve failed: {report.error or 'verdict failed'}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    """Re-derive every verdict and the status of a stored report.

    The final verdicts are recomputed on the stored final state.  The
    entry-* verdicts describe the pEF1 output, so that state is rebuilt by
    replaying the report's pef1 events on the stored entry state, which
    must itself be an equilibrium.  oracle-po is taken from the report.
    """
    inst = load_instance(args.instance)
    report = load_report(args.report)
    problems: list[str] = []
    if report.digest != instance_digest(inst):
        problems.append("digest mismatch: report was made for a different instance")
    if report.verdicts is None:
        problems.append("report carries no verdicts")
    elif sorted(report.new_to_old) != list(range(inst.n)):
        problems.append("new-to-old is not a permutation")
    else:
        problems += _verify_verdicts(inst, report)
    if problems:
        for p in problems:
            print(f"verify: {p}", file=sys.stderr)
        return 1
    print(f"verify: ok (fingerprint {report_fingerprint(report)[:16]})")
    return 0


def _verify_stages(report) -> list[str]:
    """Stage names against the mode; each stage's rounds against its
    events, which number the rounds 1..R."""
    problems = []
    names = [stage.name for stage in report.stages]
    want = list(MODE_STAGES.get(report.mode, names))
    if names != want:
        problems.append(f"stages: {names} are not {want} "
                        f"for mode {report.mode}")
    for stage in report.stages:
        numbers = {ev.round for ev in stage.events}
        if numbers != set(range(1, stage.rounds + 1)):
            problems.append(f"stage {stage.name}: rounds={stage.rounds} but "
                            f"its events number rounds {sorted(numbers)}")
    return problems


def _verify_verdicts(inst: Instance, report) -> list[str]:
    # the stored states cannot be built for an instance of another shape
    shape = [f"{name}: report says {got}, instance has {want}"
             for name, got, want in (("n", report.n, inst.n),
                                     ("m", report.m, inst.m),
                                     ("k", report.k, inst.k),
                                     ("chores in owner", len(report.owner),
                                      inst.m))
             if got != want]
    if shape:
        return shape
    problems = _verify_stages(report)
    reindexed = relabel_agents(inst, report.new_to_old)
    # replay the pef1 events, then the later stages' from where they end
    trace = report.trace
    cut = next((t for t, ev in enumerate(trace) if ev.stage != "pef1"),
               len(trace))
    entry_parts = (report.entry_owner, report.entry_pay_high)
    final_parts = (report.owner, report.pay_high)
    try:
        pef1_parts = replay_trace(*entry_parts, trace[:cut], inst.n, inst.k)
        replayed = replay_trace(*pef1_parts, trace[cut:], inst.n, inst.k)
    except ValueError as err:
        return problems + [f"trace replay failed: {err}"]
    if replayed != final_parts:
        problems.append("trace replay does not reach the final state")
    entry = equilibrium_from_parts(reindexed, *entry_parts)
    final = equilibrium_from_parts(reindexed, *final_parts)
    # the pEF1 output is the final state when no later stage moved a
    # chore, and the entry state when no payment round ran
    pef1_out = {entry_parts: entry, final_parts: final}.get(pef1_parts) \
        or equilibrium_from_parts(reindexed, *pef1_parts)
    if not check_equilibrium(entry).holds:
        problems.append("the stored entry state is not an equilibrium")
    v = report.verdicts
    fresh = compute_verdicts(pef1_out, final, v.oracle_po)
    for key, name in VERDICT_KEYS:
        if getattr(fresh, name) != getattr(v, name):
            problems.append(f"{key}: recomputed {getattr(fresh, name)}, "
                            f"report says {getattr(v, name)}")
    if report.mode not in MODE_STAGES or \
            report.mode != resolve_mode(report.requested_mode, inst.k):
        problems.append(f"mode: {report.mode!r} is not what requested mode "
                        f"{report.requested_mode!r} resolves to")
    status = verdicts_succeed(fresh, report.mode, inst.k)
    if status != report.success:
        problems.append(f"status: recomputed {_status(status)}, "
                        f"report says {_status(report.success)}")
    return problems


def _status(success: bool) -> str:
    return "ok" if success else "failed"


def _cmd_oracle(args) -> int:
    # one search: the best factor is 1 iff an exact EFX + PO allocation exists
    inst = load_instance(args.instance)
    value, best = best_efx_beta_over_po(inst, budget=args.oracle_budget)
    owner = " ".join(map(str, best.owner))
    print("efx-po: " + (owner if value == 1 else "none"))
    print(f"best-beta-over-po: {value} with {owner}")
    if args.expect_efx and value != 1:
        return 1
    return 0


def _cmd_bench(args) -> int:
    """Write the grid's CSV; exit 1 when a row failed or hit an error other
    than AlreadyUniform, which is a property of the seed's draw."""
    k_values = [parse_rational(t, "--k") for t in args.k.split(",")]
    n_values = [parse_int(t, "--n") for t in args.n.split(",")]
    m_values = [parse_int(t, "--m") for t in args.m.split(",")]
    probs = [parse_rational(t, "--high-prob")
             for t in args.high_prob.split(",")]
    if args.seeds < 1:
        raise ParseError(f"--seeds must be at least 1, got {args.seeds}")
    grid = [
        _gen_params(n=n, m=m, k=k, high_prob=prob, seed=seed)
        for k in k_values for n in n_values for m in m_values
        for prob in probs
        for seed in range(args.seed, args.seed + args.seeds)
    ]
    text = bench(grid, mode=args.mode)
    _write(args.out, text)
    column = BENCH_COLUMNS.index("status")
    statuses = [row[column] for row in csv.reader(io.StringIO(text))]
    bad = sum(s == "failed" or s.startswith("error:")
              and not s.startswith("error:AlreadyUniform") for s in statuses)
    if bad:
        print(f"bench: {bad} of {len(grid)} rows failed", file=sys.stderr)
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chorefair",
        description="Fair chore division: equilibrium computation, "
                    "envy-bounded reallocation, verification, ground truth.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", required=True, help="cost ratio, NUM/DEN or integer")
    p.add_argument("--high-prob", default="1/2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--normalized", action="store_true",
                   help="emit the normalized form instead of raw costs")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="run the pipeline on an instance file")
    p.add_argument("instance")
    p.add_argument("--mode", default="auto", choices=MODES)
    p.add_argument("--trace", action="store_true",
                   help="print the report even when writing to --out")
    p.add_argument("--oracle-budget", type=int, default=None,
                   help="also decide Pareto optimality when n^m is below this")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="recheck a stored report")
    p.add_argument("instance")
    p.add_argument("report")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive search on a small instance")
    p.add_argument("instance")
    p.add_argument("--oracle-budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--expect-efx", action="store_true",
                   help="exit nonzero when no exact EFX + PO allocation exists")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="grid benchmark to CSV")
    p.add_argument("--n", default="4")
    p.add_argument("--m", default="8")
    p.add_argument("--k", default="2")
    p.add_argument("--high-prob", default="1/2",
                   help="comma list, like --n, --m and --k")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--mode", default="auto", choices=MODES)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ChorefairError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
