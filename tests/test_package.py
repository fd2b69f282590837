import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import yfpaths
from yfpaths.cli import run_verification
from yfpaths.functions import f_base, f_explicit, f_rec
from yfpaths.words import Word

ROOT = Path(__file__).resolve().parent.parent


def readme_public_api():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Public API", 1)[1].split("\n## ", 1)[0]
    names = []
    for line in section.splitlines():
        if re.match(r"\* \w+: ", line):
            names += re.findall(r"`(\w+)`", line)
    return names


def test_public_names_resolve():
    for name in yfpaths.__all__:
        assert getattr(yfpaths, name) is not None, name


def test_public_names_match_readme():
    assert yfpaths.__all__ == readme_public_api()


def package_imports(tree):
    """Submodules of yfpaths that a module imports; "" for the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "yfpaths":
                    yield alias.name.partition(".")[2]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "yfpaths":
                    continue
                module = module.partition(".")[2]
            if module:
                yield module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_oracle_imports_no_formula_machinery():
    # agreement with the oracle is evidence only while the oracle stays
    # independent of the functions and counts it checks
    tree = ast.parse((ROOT / "src" / "yfpaths" / "oracle.py").read_text())
    imported = set(package_imports(tree))
    assert imported
    assert imported <= {"words", "trajectories"}


def test_package_imports_parser():
    tree = ast.parse(
        "import yfpaths\nimport yfpaths.counts\nfrom . import functions\n"
        "from .words import Word\nfrom yfpaths.cli import main\nimport json\n"
    )
    assert sorted(package_imports(tree)) == ["", "cli", "counts", "functions", "words"]


def test_every_memo_is_bounded():
    # an unbounded memo grows for the life of the process
    memos = []
    for info in pkgutil.iter_modules(yfpaths.__path__):
        module = importlib.import_module(f"yfpaths.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                memos.append(f"{info.name}.{name}")
                assert value.cache_info().maxsize is not None, memos[-1]
    assert "oracle._down" in memos


@pytest.mark.parametrize("name", ["functions", "oracle"])
def test_clear_caches_empties_every_memo(name):
    # a memo left out of clear_caches would keep its entries
    module = importlib.import_module(f"yfpaths.{name}")
    memos = {key: value for key, value in vars(module).items() if hasattr(value, "cache_info")}
    run_verification(3, 1)  # the oracle's walks
    f_rec(Word((2, 1)), 3, 1)  # verify reads f without the f memo
    assert all(memo.cache_info().currsize for memo in memos.values())
    module.clear_caches()
    sizes = {key: memo.cache_info().currsize for key, memo in memos.items()}
    assert sizes == dict.fromkeys(memos, 0)


# Definitions in src/ that nothing in src/ calls, each with its caller.
CALLED_FROM_OUTSIDE = {
    "functions.weight": "hooked by perfbench/spans.py",
    "counts.count_s_paths_from_top": "the check of perfbench's spaths-wide workload",
    "functions.clear_caches": "documented in the README",
    "oracle.clear_caches": "documented in the README",
    "words.Word.twos": "a documented property of the public Word, read by tests",
}


def test_src_defines_only_what_src_runs():
    # every function, class and method is reached from src/ itself, is in
    # the public API, or has a named caller outside; a method is reached
    # only as an attribute, a module-level name either way (xi, counts.xi)
    defined, names, attributes = {}, set(), set()
    for path in sorted((ROOT / "src" / "yfpaths").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = (node.name, False)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not (item.name.startswith("__") and item.name.endswith("__")):
                            defined[f"{path.stem}.{node.name}.{item.name}"] = (item.name, True)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    unreached = {
        label
        for label, (name, is_method) in defined.items()
        if name not in attributes
        and (is_method or name not in names)
        and name not in yfpaths.__all__
    }
    assert unreached == set(CALLED_FROM_OUTSIDE)


# What no well-formed query imports: argparse, and the gettext it imports,
# which only help and usage errors need, and json, whose one dumps per query
# the CLI's own writer does.
FRONT_END = {"argparse", "gettext", "json"}
# Modules no point query runs: dataclasses, and the inspect it imports, for
# small value classes; fractions for f values only; the identity suites for
# verify only; and the front end's.
NOT_FOR_POINT_QUERIES = {"dataclasses", "inspect", "fractions", "yfpaths.invariants", *FRONT_END}

# Runs yf in a fresh interpreter, then prints the modules it loaded beyond
# the bare interpreter's own, space-separated, on the last line.
_CHILD = """
import sys
bare = set(sys.modules)
from yfpaths.cli import main
main(sys.argv[1:])
print()
print(" ".join(sorted(set(sys.modules) - bare)))
"""


def _loaded_by(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    return set(run.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "argv",
    [
        ("down", "e", "22"),
        ("traj", "e", "22", "4,3,2,1,0"),
        ("spaths", "e", "22", "2"),
        ("xi", "2", "4", "2", "1"),
    ],
)
def test_point_queries_import_only_what_they_run(argv):
    loaded = _loaded_by(*argv, "--verify", "--json")
    assert "yfpaths.cli" in loaded
    assert loaded.isdisjoint(NOT_FOR_POINT_QUERIES), loaded & NOT_FOR_POINT_QUERIES


@pytest.mark.parametrize(
    "argv",
    [
        ("down", "e", "22"),
        ("traj", "--json", "e", "22", "4,3,2,1,0"),
        ("spaths", "e", "22", "2", "--verify"),
        ("f", "21", "2", "1"),
        ("f", "21", "2", "1", "--json", "--verify"),
        ("xi", "2", "4", "2", "1"),
        ("level", "3"),
        ("level", "3", "--json"),
        ("dot", "--json", "2"),
        ("verify", "--max-S", "0", "--json", "--max-rank", "2"),
    ],
)
def test_well_formed_queries_import_no_front_end(argv):
    # help and usage errors build the argparse parser; a well-formed query,
    # with or without its flags, in any order, does not
    loaded = _loaded_by(*argv)
    assert loaded.isdisjoint(FRONT_END), loaded & FRONT_END


def test_f_values_and_verify_import_what_they_need():
    loaded = _loaded_by("f", "21", "2", "1", "--verify", "--json")
    assert "fractions" in loaded and "yfpaths.invariants" not in loaded
    # the identity suites read f as integer pairs, so verify builds no Fraction
    verify = _loaded_by("verify", "--max-rank", "6", "--max-S", "1")
    assert "yfpaths.invariants" in verify and "fractions" not in verify
    assert verify.isdisjoint(FRONT_END), verify & FRONT_END
    # f values stay fractions, zero ones too (no suffix of 21 sums to 2)
    x = Word((2, 1))
    values = [f_rec(x, 3, 1), f_rec(x, 2, 1), f_base(x, 1), f_base(x, 2), f_explicit(x, 3, 1)]
    assert all(type(v) is Fraction for v in values)
    assert values == [Fraction(-1, 3), 0, Fraction(-1, 2), 0, Fraction(-1, 3)]
