"""No module of the package reads another module's private names: what one
module uses of another has a public name there. Nor does any module reach
into an object's ``__dict__``, past a frozen dataclass's fields."""

import ast
from pathlib import Path

import pytest

import actirhythm

SOURCES = sorted(Path(actirhythm.__file__).parent.glob("*.py"))


def private_reads(source: str) -> list[str]:
    """Each relative import of a _-prefixed name in source, each
    ``<module>._name`` on a package module that source imports, and each
    ``.__dict__``."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level and node.module is None
               for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found += [f"line {node.lineno}: from {'.' * node.level}{node.module or ''} "
                      f"import {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr.startswith("_")
              and not node.attr.startswith("__")):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
            found.append(f"line {node.lineno}: .__dict__")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_reads_another_modules_private_names(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


def test_the_guard_finds_both_patterns():
    source = ("from . import report\nfrom .ingest import GROUP_ORDER, _fill\n"
              "from .curve import OMEGA as _OMEGA\n"
              "report._write(1)\nreport.__name__\nreport.write_file(1)\nlocal._name\n")
    assert private_reads(source) == ["line 2: from .ingest import _fill",
                                     "line 4: report._write"]


def test_the_guard_finds_dict_access():
    source = "samples = make()\nsamples.__dict__['runs'] = 1\nvars(samples)\n"
    assert private_reads(source) == ["line 2: .__dict__"]
