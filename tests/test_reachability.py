"""The library is what the CLI, the scenario kinds and the benchmark call: no public name only tests reach."""

import ast
import inspect
from pathlib import Path

import qcontexts

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_is_loaded_outside_the_tests():
    """Each public non-module name of qcontexts is loaded as a Name or an Attribute, and each public
    method or property an exported class defines as an Attribute, somewhere in src/qcontexts (past
    __init__.py) or perfbench/. A necessary condition only: a load matches any name or attribute
    it shares a spelling with."""
    sources = [p for p in (ROOT / "src" / "qcontexts").glob("*.py") if p.name != "__init__.py"]
    names, attributes = set(), set()
    for path in [*sources, *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    exported = {n: v for n, v in vars(qcontexts).items() if not n.startswith("_") and not inspect.ismodule(v)}
    unreached = [n for n in exported if n not in names | attributes]
    for name, value in exported.items():
        if isinstance(value, type):
            unreached += [f"{name}.{m}" for m in vars(value) if not m.startswith("_") and m not in attributes]
    assert unreached == []
