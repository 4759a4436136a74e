"""Walk four hand-built instances through the solver, narrating each round.

The constructions are small enough to check by eye: every payment, earning,
and trade below is an exact integer count of q-units, so the printed story
can be compared line by line against a manual run.
"""

import argparse
from fractions import Fraction

from chorefair import (
    Instance,
    check_equilibrium,
    check_pEF1,
    min_beta_EFX,
    report_fingerprint,
    run_pef1,
    run_pipeline,
)
from chorefair.approx_efx import approx_from_equilibrium, strong_envy_target
from chorefair.efx_k2 import k2_from_equilibrium
from chorefair.model import bits, build_market_state, bundle_masks


def owned(k, owners, rows=None) -> Instance:
    """Item e costs 1 only to owners[e], k to everyone else."""
    n = max(owners) + 1
    m = len(owners)
    high = [[owners[e] != i for e in range(m)] for i in range(n)]
    for i, row in (rows or {}).items():
        high[i] = list(row)
    return Instance(n, m, Fraction(k), tuple(tuple(r) for r in high))


def market(inst, owners, high_pay):
    return build_market_state(inst, bundle_masks(owners, inst.n),
                              sum(1 << e for e in high_pay))


def show(state, label):
    print(f"  {label}:")
    for i in range(state.instance.n):
        bundle = list(bits(state.bundles[i]))
        pays = " ".join(str(state.pay_high if state.high >> e & 1
                            else state.pay_low) for e in bundle)
        print(f"    agent {i}: earns {state.earn_units[i]:>3} units"
              f"  items {bundle} (pay units: {pays})")


def narrate(trace, k):
    """One line per event; earnings are 1/q units, q the denominator of k."""
    for ev in trace:
        bits = [f"round {ev.round}", ev.kind]
        if ev.agents:
            bits.append(f"agents {ev.agents}")
        if ev.items:
            bits.append(f"items {ev.items}")
        if ev.least_earning is not None:
            least = Fraction(ev.least_earning, k.denominator)
            bits.append(f"least earning {least}")
        print("    " + ", ".join(bits))


def demo_rotation():
    print("== payment-raising rounds with a rotation ==")
    inst = owned(2, [0] * 8 + [1] * 7 + [2] + [3])
    print(f"  n={inst.n} m={inst.m} k={inst.k}; agent 0 owns 8 cheap items,"
          " agent 1 owns 7, agents 2 and 3 own one each")
    state = run_pef1(inst)
    narrate(state.trace, inst.k)
    show(state.market, "final state")
    kinds = [ev.kind for ev in state.trace]
    print(f"  rounds: {state.round_count}, one rotation:"
          f" {kinds.count('rotate')} rotate / {kinds.count('raise')} raise"
          f" / {kinds.count('transfer')} transfer")
    print(f"  equilibrium: {check_equilibrium(state.market).holds},"
          f" per-payment EF1: {check_pEF1(state.market).holds}")
    print()


def demo_exchange():
    print("== one exchange repairs strong envy at k=6 ==")
    owners = (0, 0, 1, 1, 2, 2, 2, 4, 5, 5, 6, 6, 3, 4, 5, 6)
    high_pay = frozenset({12, 13, 14, 15})
    mixed = (True, False, True, False, True, False, False, False,
             False, False, False, False, True, True, True, True)
    plain = (False,) * 12 + (True,) * 4
    inst = Instance(7, 16, Fraction(6),
                    tuple(mixed if i in (4, 5) else plain for i in range(7)))
    before = market(inst, owners, high_pay)
    show(before, "before")
    print(f"  strong envy pair: {strong_envy_target(before)}")
    result = approx_from_equilibrium(before)
    narrate(result.trace, before.instance.k)
    show(result.market, "after")
    beta = min_beta_EFX(result.market)
    print(f"  envy factor after: {beta.value} (bound 2 - 1/k = 11/6)")
    print()


def _natural(k, owners, high_pay, raised):
    n = max(owners) + 1
    m = len(owners)
    flag_row = tuple(e in high_pay for e in range(m))
    high = tuple((False,) * m if i == raised else flag_row for i in range(n))
    return market(Instance(n, m, Fraction(k), high), owners, high_pay)


def demo_swap():
    print("== k=2 tier repair by swapping a dear item for a cheap one ==")
    owners = (0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5)
    high_pay = frozenset({0, 3, 4, 6, 7, 9, 10, 12, 13, 16, 17, 18})
    before = _natural(2, owners, high_pay, raised=5)
    show(before, "before")
    result = k2_from_equilibrium(before)
    narrate(result.trace, before.instance.k)
    show(result.market, "after")
    beta = min_beta_EFX(result.market)
    print(f"  envy factor after: {beta.value} (exactly envy-free up to"
          " any item)")
    print()


def demo_move():
    print("== k=2 tier repair by handing over a single payment-2 item ==")
    owners = (0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5)
    high_pay = frozenset({0, 1, 2, 5, 8, 9, 11, 12, 15, 16, 17})
    before = _natural(2, owners, high_pay, raised=5)
    show(before, "before")
    result = k2_from_equilibrium(before)
    narrate(result.trace, before.instance.k)
    show(result.market, "after")
    beta = min_beta_EFX(result.market)
    print(f"  envy factor after: {beta.value}")
    print()


def demo_pipeline():
    print("== full pipeline, large then small ==")
    inst = owned(2, [0] * 8 + [1] * 7 + [2] + [3])
    report = run_pipeline(inst, oracle_budget=1 << 24)
    v = report.verdicts
    print(f"  rotation instance: mode {report.mode},"
          f" success {report.success}")
    print(f"  final equilibrium {v.final_equilibrium},"
          f" per-payment EF1 {v.final_pef1}, envy factor {v.beta_efx}")
    po = ("skipped, search space above budget" if v.oracle_po is None
          else v.oracle_po)
    print(f"  exhaustive Pareto check: {po}")
    print(f"  fingerprint {report_fingerprint(report)[:16]}")
    small = owned(3, [0, 0, 1, 1, 2, 2])
    v = run_pipeline(small, oracle_budget=1 << 24).verdicts
    print(f"  3x6 instance at k=3: envy factor {v.beta_efx},"
          f" exhaustive Pareto check: {v.oracle_po}")
    print()


DEMOS = {
    "rotation": demo_rotation,
    "exchange": demo_exchange,
    "swap": demo_swap,
    "move": demo_move,
    "pipeline": demo_pipeline,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--demo", choices=["all", *DEMOS], default="all")
    args = parser.parse_args(argv)
    picked = DEMOS.values() if args.demo == "all" else [DEMOS[args.demo]]
    for fn in picked:
        fn()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
