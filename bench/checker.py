"""Independent check of chorefair's outputs.

Everything is recomputed from the definitions, in exact Fractions over the
raw cost rows the benchmark generated.  Nothing here imports chorefair: the
report and oracle texts are read by the small parsers below.

Checks on a solve report:
  * after mapping owners through new-to-old every chore has one owner;
  * equilibrium certificate: under the report's payments every held chore
    minimizes c_i(e)/p(e) for its holder (so, by the first welfare
    theorem, the allocation is Pareto optimal);
  * beta_EFX from scratch equals the report's `verdict beta-efx`;
  * approx mode: beta <= 2 - 1/k; exact2 mode: beta = 1 and the final
    payments are pEF1;
  * each reallocation stage runs at most n rounds.
Checks on an oracle run (ground truth): the report says `oracle-po: true`,
the EFX+PO witness has beta = 1, a witness exists when k = 2, the best beta
over PO allocations is what its witness attains and is at most the
solver's beta.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

REALLOCATION_STAGES = ("approx_efx", "efx_k2")


@dataclass
class Report:
    mode: str = ""
    status: str = ""
    k: Fraction = Fraction(0)
    new_to_old: tuple[int, ...] = ()
    owner: tuple[int, ...] = ()
    pay_high: tuple[bool, ...] = ()
    stages: dict[str, int] = field(default_factory=dict)
    events: list[tuple[str, str]] = field(default_factory=list)  # (stage, kind)
    verdicts: dict[str, str] = field(default_factory=dict)


def parse_report(text: str) -> Report:
    rep = Report()
    for line in text.splitlines():
        if ":" not in line:
            continue
        key, value = (part.strip() for part in line.split(":", 1))
        if key == "mode":
            rep.mode = value
        elif key == "status":
            rep.status = value
        elif key == "k":
            rep.k = Fraction(value)
        elif key == "new-to-old":
            rep.new_to_old = tuple(int(t) for t in value.split())
        elif key == "owner":
            rep.owner = tuple(int(t) for t in value.split())
        elif key == "pay-high":
            rep.pay_high = tuple(ch == "1" for ch in value)
        elif key == "stage":
            name, rounds = value.split(" rounds=")
            rep.stages[name] = int(rounds)
        elif key == "event":
            kv = dict(tok.split("=", 1) for tok in value.split())
            rep.events.append((kv["stage"], kv["kind"]))
        elif key.startswith("verdict "):
            rep.verdicts[key[len("verdict "):]] = value
    return rep


def parse_beta(token: str) -> Fraction | None:
    """A beta value; None stands for unbounded."""
    return None if token.lower() == "unbounded" else Fraction(token)


def parse_oracle(text: str):
    """(efx_po owner or None, best beta, best owner) from `chorefair oracle`."""
    efx, best, best_owner = None, None, None
    for line in text.splitlines():
        if line.startswith("efx-po:"):
            body = line.split(":", 1)[1].split()
            efx = None if body == ["none"] else tuple(int(t) for t in body)
        elif line.startswith("best-beta-over-po:"):
            value, owners = line.split(":", 1)[1].split(" with ")
            best = parse_beta(value.strip())
            best_owner = tuple(int(t) for t in owners.split())
    if best_owner is None:
        raise ValueError("oracle output lacks a best-beta-over-po line")
    return efx, best, best_owner


def cost_ratio(rows) -> Fraction:
    """The common ratio k of the two values in each non-uniform row."""
    ratios = set()
    for row in rows:
        values = sorted(set(row))
        if len(values) > 2:
            raise ValueError("a row has more than two distinct costs")
        if len(values) == 2:
            ratios.add(values[1] / values[0])
    if len(ratios) != 1:
        raise ValueError(f"rows do not share one cost ratio: {ratios}")
    return ratios.pop()


def beta_efx(rows, owner) -> Fraction | None:
    """Least beta >= 1 with c_i(X_i - e) <= beta c_i(X_j) for all i != j and
    e in X_i; None (unbounded) when a positive residual faces a bundle of
    cost 0.  The binding removal is i's cheapest own chore."""
    n = len(rows)
    bundles = [[] for _ in range(n)]
    for e, o in enumerate(owner):
        bundles[o].append(e)
    best = Fraction(1)
    for i in range(n):
        if not bundles[i]:
            continue
        row = rows[i]
        own = [row[e] for e in bundles[i]]
        residual = sum(own) - min(own)
        if residual == 0:
            continue
        for j in range(n):
            if j == i:
                continue
            against = sum(row[e] for e in bundles[j])
            if against == 0:
                return None
            best = max(best, residual / against)
    return best


def _beta_le(a: Fraction | None, b: Fraction | None) -> bool:
    return b is None or (a is not None and a <= b)


def _fmt_beta(b: Fraction | None) -> str:
    return "unbounded" if b is None else str(b)


def check_solve(rows, text: str) -> tuple[list[str], Report, Fraction | None]:
    """Problems found in a solve report, the parsed report, and its beta."""
    rep = parse_report(text)
    n, m = len(rows), len(rows[0])
    problems = []
    if rep.status != "ok":
        problems.append(f"status is {rep.status!r}")
    k = cost_ratio(rows)
    if rep.k != k:
        problems.append(f"report k {rep.k} differs from the rows' ratio {k}")
    if sorted(rep.new_to_old) != list(range(n)):
        return problems + ["new-to-old is not a permutation"], rep, None
    if len(rep.owner) != m or len(rep.pay_high) != m \
            or any(not 0 <= o < n for o in rep.owner):
        return problems + ["owner or pay-high has the wrong shape"], rep, None
    owner = [rep.new_to_old[o] for o in rep.owner]
    pay = [k if h else Fraction(1) for h in rep.pay_high]

    for i in range(n):
        ratios = [rows[i][e] / pay[e] for e in range(m)]
        alpha = min(ratios)
        for e in range(m):
            if owner[e] == i and ratios[e] != alpha:
                problems.append(
                    f"equilibrium: agent {i} holds chore {e} at ratio "
                    f"{ratios[e]} above its best {alpha}")
                break

    beta = beta_efx(rows, owner)
    stored = parse_beta(rep.verdicts.get("beta-efx", "0"))
    if stored != beta:
        problems.append(f"beta-efx: report says {_fmt_beta(stored)}, "
                        f"recomputed {_fmt_beta(beta)}")
    if rep.mode == "approx" and not _beta_le(beta, 2 - 1 / k):
        problems.append(f"approx: beta {_fmt_beta(beta)} exceeds 2 - 1/k")
    if rep.mode == "exact2":
        if beta != 1:
            problems.append(f"exact2: beta is {_fmt_beta(beta)}, not 1")
        earn = [Fraction(0)] * n
        top = [Fraction(0)] * n
        for e, o in enumerate(owner):
            earn[o] += pay[e]
            top[o] = max(top[o], pay[e])
        for i in range(n):
            if any(j != i and earn[i] - top[i] > earn[j] for j in range(n)):
                problems.append(f"exact2: payments are not pEF1 at agent {i}")
                break
    for name in REALLOCATION_STAGES:
        if rep.stages.get(name, 0) > n:
            problems.append(f"{name} ran {rep.stages[name]} rounds, over n={n}")
    return problems, rep, beta


def check_oracle(rows, rep: Report, solver_beta: Fraction | None,
                 text: str) -> list[str]:
    problems = []
    if rep.verdicts.get("oracle-po") != "true":
        problems.append(
            f"oracle-po verdict is {rep.verdicts.get('oracle-po')!r}, not true")
    efx, best, best_owner = parse_oracle(text)
    if efx is None:
        if cost_ratio(rows) == 2:
            problems.append("no EFX+PO allocation reported although k = 2")
    elif beta_efx(rows, efx) != 1:
        problems.append(f"EFX+PO witness has beta {_fmt_beta(beta_efx(rows, efx))}")
    if beta_efx(rows, best_owner) != best:
        problems.append(f"best-beta witness attains "
                        f"{_fmt_beta(beta_efx(rows, best_owner))}, "
                        f"oracle says {_fmt_beta(best)}")
    if not _beta_le(best, solver_beta):
        problems.append(f"oracle best beta {_fmt_beta(best)} exceeds the "
                        f"solver's {_fmt_beta(solver_beta)}")
    return problems
