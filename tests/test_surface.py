"""The package root exports what the README documents, and nothing more.

Everything else is imported from its module, so a name added to the root
has to be documented in README.md (or be one the benchmark imports from the
root) before this file lets it in.
"""

import ast
import os
import re

import chorefair

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXPORTED = [
    "AlreadyUniform", "ChorefairError", "Instance", "__version__",
    "check_equilibrium", "check_pEF1", "min_beta_EFX", "normalize_instance",
    "raw_instance", "report_fingerprint", "run_approx_efx", "run_efx_k2",
    "run_pef1", "run_pipeline",
]


def bench_root_imports() -> set[str]:
    """Names that a file under bench/ imports from the package root."""
    names = set()
    bench = os.path.join(ROOT, "bench")
    for fname in sorted(os.listdir(bench)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(bench, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module == "chorefair":
                names.update(alias.name for alias in node.names)
    return names


def test_the_root_exports_exactly_the_documented_list():
    assert chorefair.__all__ == EXPORTED
    for name in EXPORTED:
        assert hasattr(chorefair, name), name


def test_every_export_is_in_the_readme_or_imported_by_the_benchmark():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    from_bench = bench_root_imports()
    assert from_bench <= set(EXPORTED)
    missing = [name for name in EXPORTED
               if name not in from_bench
               and not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", readme)]
    assert missing == []
