"""The package root exports what the README documents, and nothing more;
the README's command line section names exactly the CLI's options.

Everything else is imported from its module, so a name added to the root
has to be documented in README.md (or be one the benchmark imports from the
root) before this file lets it in.  A public name that only the tests use
does not belong in the package at all.
"""

import argparse
import ast
import os
import re
import subprocess
import sys

import chorefair
from chorefair.cli import build_parser

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


def _identifiers(tree, skip=None) -> set[str]:
    """Names, attributes, imported names and whole-string constants used in
    tree, outside the node skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_definition_is_used_outside_the_tests():
    """A public top-level def or class in the package is referenced, outside
    its own definition, by the package, the README or the benchmark."""
    package = os.path.join(ROOT, "src", "chorefair")
    trees = {}
    for folder in (package, os.path.join(ROOT, "bench")):
        for fname in sorted(os.listdir(folder)):
            if fname.endswith(".py"):
                path = os.path.join(folder, fname)
                with open(path, encoding="utf-8") as fh:
                    trees[path] = ast.parse(fh.read())
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    unused = []
    for path, tree in trees.items():
        if os.path.dirname(path) != package:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            used = any(node.name in _identifiers(other, skip=node)
                       for other in trees.values())
            if not used and not re.search(
                    rf"(?<!\w){re.escape(node.name)}(?!\w)", readme):
                unused.append(f"{os.path.basename(path)}:{node.name}")
    assert unused == []


def test_the_readme_names_exactly_the_cli_options():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {opt for sub in commands.choices.values()
               for action in sub._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
    assert named == options


def test_the_cli_leaves_the_report_contract_to_the_harness():
    """cli.py imports nothing from the trace or verify modules: the rules
    of a valid report live in harness.verify_report."""
    with open(os.path.join(ROOT, "src", "chorefair", "cli.py"),
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert not modules & {".trace", ".verify", "chorefair.trace",
                          "chorefair.verify"}
    assert ".harness" in modules


def test_every_stage_runs_on_the_one_round_loop():
    """The three stage modules hold one while loop, in pef1.reallocate, so
    the payment rounds and both reallocation stages run on it."""
    loops = []
    for name in ("pef1", "approx_efx", "efx_k2"):
        with open(os.path.join(ROOT, "src", "chorefair", f"{name}.py"),
                  encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        # each node named by its innermost enclosing function, which
        # ast.walk reaches after the outer ones
        holder = {id(inner): f"{name}.{node.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for inner in ast.walk(node)}
        loops += [holder.get(id(node), name) for node in ast.walk(tree)
                  if isinstance(node, ast.While)]
    assert loops == ["pef1.reallocate"]


def test_every_module_parses_at_the_oldest_declared_python():
    """pyproject.toml's requires-python floor, checked with the grammar of
    that version, since the suite itself runs on a newer interpreter."""
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        floor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"',
                          fh.read())
    version = (int(floor[1]), int(floor[2]))
    package = os.path.join(ROOT, "src", "chorefair")
    modules = sorted(f for f in os.listdir(package) if f.endswith(".py"))
    assert "model.py" in modules
    for fname in modules:
        with open(os.path.join(package, fname), encoding="utf-8") as fh:
            ast.parse(fh.read(), fname, feature_version=version)


def test_a_cli_process_loads_no_dataclasses_inspect_or_csv():
    """A fresh interpreter importing the CLI and the oracle, as every
    `chorefair` command does, loads none of these modules: dataclasses
    alone pulls in inspect, ast, dis and tokenize, and only `chorefair
    bench` writes CSV.  Modules loaded before the import are not counted."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import chorefair.cli, chorefair.oracle\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True,
                                check=True).stdout.split())
    assert "chorefair.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "csv"}
