"""The README quick start runs, and the package exports match the modules."""

import argparse
import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import cusplab
from cusplab import cli, estimators, experiments, signal_models

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = {
    info.name: importlib.import_module(f"cusplab.{info.name}")
    for info in pkgutil.iter_modules(cusplab.__path__)
}


def _exports(module) -> set:
    """The names ``from module import *`` binds: ``__all__``, else the public ones."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return set(names)


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 3


@pytest.mark.parametrize(
    "name", sorted(n for n, m in MODULES.items() if hasattr(m, "__all__"))
)
def test_every_exported_name_exists(name):
    module = MODULES[name]
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    source = (ROOT / "src" / "cusplab" / "__init__.py").read_text(encoding="utf-8")
    imports = [node for node in ast.parse(source).body
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        names = {alias.name for alias in node.names}
        assert names - _exports(MODULES[node.module]) == set(), node.module


def _readme_table(header: str) -> list:
    """The backticked names in each cell of each row of the README table
    whose header row is ``header``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split(header, 1)[1].split("\n\n", 1)[0]
    return [[re.findall(r"`([^`]+)`", cell) for cell in line.strip("|").split("|")]
            for line in table.strip().splitlines()[1:]]


def _readme_cli_table() -> dict:
    """``{subcommand: (flags, config keys)}`` from the README flag table."""
    rows = _readme_table("| Subcommand | Flags | Config keys |")
    return {name: (set(flags), set(keys)) for names, flags, keys in rows for name in names}


def test_readme_cli_table_matches_parser():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    registered = {
        name: {a.option_strings[0] for a in sub._actions
               if a.option_strings and a.dest != "help"}
        for name, sub in commands.choices.items()
    }
    documented = _readme_cli_table()
    assert {name: flags for name, (flags, _) in documented.items()} == registered
    keyed = {name: keys for name, (_, keys) in documented.items() if name in cli._KEYS}
    assert keyed == {name: set(keys) for name, keys in cli._KEYS.items()}


def test_readme_sweep_schema_matches_config_fields():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Sweep config schema", 1)[1]
    block = re.search(r"```jsonc\n(.*?)```", section, re.S).group(1)
    documented = set(re.findall(r'^  "(\w+)":', block, re.M))
    assert documented == set(experiments.config_defaults("cusp-mle"))


@pytest.mark.parametrize("header,table", [
    ("| Signal family | Parameters |", signal_models.SIGNAL_FAMILIES),
    ("| Nuisance | Parameters |", signal_models._NUISANCES),
    ("| Prior | Parameters |", estimators._PRIORS),
], ids=["signal", "nuisance", "prior"])
def test_readme_block_tables_match_constructors(header, table):
    documented = {name: params for (name,), params in _readme_table(header)}
    assert documented == {name: list(inspect.signature(make).parameters)
                          for name, make in table.items()}


def test_no_private_imports_across_modules():
    # a name another cusplab module needs is public in the module defining it
    found = []
    for path in sorted((ROOT / "src" / "cusplab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "cusplab"
            ):
                found += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


#: A double-backticked private name (one leading underscore) or all-caps constant.
_DOC_NAME = re.compile(r"``(_(?!_)\w+|[A-Z][A-Z0-9_]+)``")


@pytest.mark.parametrize("name", sorted(MODULES))
def test_docstring_names_exist(name):
    # a private name or constant a docstring quotes is still in its module
    module = MODULES[name]
    missing = []
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            quoted = _DOC_NAME.findall(ast.get_docstring(node) or "")
            missing += [(getattr(node, "name", name), q) for q in quoted
                        if not hasattr(module, q)]
    assert missing == []
