"""Per-layer spans around chorefair's public functions, for traced runs.

`Tracer.install` replaces each listed function, in every chorefair module
that imported it, with a wrapper that times the call.  A span's self time is
its duration minus the time of the spans it directly encloses, so the self
times of all spans add up to the time of the outermost ones.  The benchmark
opens the outermost span itself around each in-process command; whatever no
layer claims (argument parsing, file IO, digests, orchestration) stays in
that span's self time and is reported as glue.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# metric name -> (module, function) pairs whose self time it sums
LAYERS = {
    "harness.parse_ms": (("harness", "parse_instance"),
                         ("harness", "parse_report")),
    "harness.report_text_ms": (("harness", "report_text"),),
    "model.normalize_ms": (("model", "normalize_instance"),),
    "model.market_state_ms": (("model", "build_market_state"),),
    "market_init.entry_ms": (("market_init", "build_initial_state"),),
    "market_init.chain_ms": (("market_init", "resolve_overpaid_paths"),),
    "market_init.partition_ms": (("market_init", "partition_agent_groups"),),
    "pef1.round_ms": (("pef1", "run_pef1"),),
    "approx_efx.stage_ms": (("approx_efx", "approx_from_equilibrium"),),
    "efx_k2.stage_ms": (("efx_k2", "k2_from_equilibrium"),),
    "verify.checks_ms": (("verify", "check_equilibrium"),
                         ("verify", "check_pEF1"), ("verify", "check_EF1"),
                         ("verify", "min_beta_EFX"),
                         ("verify", "min_beta_pEFX")),
    "trace.replay_ms": (("trace", "replay_trace"),),
    "oracle.pareto_ms": (("oracle", "is_pareto_optimal"),),
    "oracle.efx_po_ms": (("oracle", "exists_efx_po"),),
    "oracle.best_beta_ms": (("oracle", "best_efx_beta_over_po"),),
}
GLUE = "bench.glue_ms"


def _moved(args, result) -> int:
    """Chores whose owner differs between the entry and resolved states."""
    before = args[0].allocation.owner
    return sum(a != b for a, b in zip(before, result.allocation.owner))


# function -> (count metric, value of one call)
COUNTERS = {
    "build_market_state": ("model.market_state_builds", lambda a, r: 1),
    "resolve_overpaid_paths": ("market_init.chain_items_moved", _moved),
    "partition_agent_groups": ("market_init.groups",
                               lambda a, r: len(r.groups)),
}


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._child_s: list[float] = []  # enclosed time, one per open span

    def call(self, layer: str, fn, *args, **kwargs):
        """Run fn inside a span that charges its self time to layer."""
        self._child_s.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            child = self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += elapsed
            self.self_s[layer] += elapsed - child

    def _wrap(self, layer: str, fn):
        counter = COUNTERS.get(fn.__name__)

        def wrapper(*args, **kwargs):
            result = self.call(layer, fn, *args, **kwargs)
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, result)
            return result
        return wrapper

    def install(self) -> None:
        """Patch every loaded chorefair module that refers to a listed function."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "chorefair" or name.startswith("chorefair.")]
        for layer, targets in LAYERS.items():
            for mod_name, fn_name in targets:
                original = getattr(sys.modules[f"chorefair.{mod_name}"], fn_name)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
