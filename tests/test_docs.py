"""The README quick start runs, and the package exports match the modules."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import cusplab

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
