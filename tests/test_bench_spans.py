"""The benchmark's per-layer spans (bench/spans.py) still fit the package.

spans.py names functions by (module, name) and reads fields of their
arguments and results; a rename or reshape of a spanned function must fail
here rather than only in a traced benchmark run.
"""

import importlib
import importlib.util
import os
import sys

import pytest

import chorefair

from conftest import rotation_instance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(ROOT, "bench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def spans():
    return load_spans()


@pytest.fixture
def restore_modules():
    """Undo Tracer.install, which patches every loaded chorefair module."""
    saved = [(mod, dict(vars(mod))) for name, mod in list(sys.modules.items())
             if name == "chorefair" or name.startswith("chorefair.")]
    yield
    for mod, attrs in saved:
        for attr, value in attrs.items():
            if getattr(mod, attr, None) is not value:
                setattr(mod, attr, value)


def test_every_spanned_function_resolves(spans):
    spanned = set()
    for targets in spans.LAYERS.values():
        for mod_name, fn_name in targets:
            module = importlib.import_module(f"chorefair.{mod_name}")
            assert callable(getattr(module, fn_name)), (mod_name, fn_name)
            spanned.add(fn_name)
    # a counter only fires for a function some layer wraps
    assert set(spans.COUNTERS) <= spanned


def test_a_traced_pipeline_counts_builds_and_groups(spans, restore_modules):
    tracer = spans.Tracer()
    tracer.install()
    report = chorefair.harness.run_pipeline(rotation_instance())
    assert report.success
    assert tracer.counts["model.market_state_builds"] > 0
    assert tracer.counts["market_init.groups"] > 0
    assert tracer.self_s["market_init.partition_ms"] > 0



# each mode's last stage, by the span that times it
STAGE_SPANS = {"pef1": "pef1.round_ms", "approx": "approx_efx.stage_ms",
               "exact2": "efx_k2.stage_ms"}


@pytest.mark.parametrize("mode", sorted(STAGE_SPANS))
def test_a_traced_run_records_every_counter_and_its_stage(spans,
                                                          restore_modules,
                                                          mode):
    tracer = spans.Tracer()
    tracer.install()
    report = chorefair.harness.run_pipeline(rotation_instance(), mode)
    assert report.success and report.mode == mode
    assert {metric for metric, _ in spans.COUNTERS.values()} <= \
        set(tracer.counts)
    assert tracer.self_s[STAGE_SPANS[mode]] > 0
