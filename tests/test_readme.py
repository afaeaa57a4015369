"""The README's examples run as written and give the results it states."""

from __future__ import annotations

import ast
import json
import re
import types
from pathlib import Path

import numpy as np

import projeq
from projeq import codegen
from projeq.cli import run

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _blocks(section: str, language: str) -> list[str]:
    """The fenced code blocks of one language in a '## ' section."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", body, re.S)


def test_library_quick_start():
    """Each commented expression of the quick start gives the value its
    comment states."""
    (block,) = _blocks("Library quick start", "python")
    ns, results = {}, []
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            results.append(eval(code, ns))
        else:
            exec(code, ns)
    passed, tag, shape, residual, family = results
    assert passed is True or passed is np.True_
    assert tag == "real_distinct"
    assert shape == (21, 21)
    assert residual < 1e-12
    assert family == "liouville"


def test_command_line_examples(tmp_path):
    configs = _blocks("Command-line tool", "json")
    assert len(configs) == 3
    for i, text in enumerate(configs):
        path = tmp_path / f"example{i}.json"
        path.write_text(text)
        assert run(path, tmp_path / f"out{i}", quiet=True) == 0, json.loads(text)["command"]


def test_code_store_bound():
    """The bound of the code store that the README states is codegen's."""
    (bound,) = re.findall(r"code\s+store\s+keeps\s+at\s+most\s+(\d+)\s+code\s+objects", README)
    assert int(bound) == codegen._STORE_SIZE


def _names_used_in_src() -> set[str]:
    """Every name the library's modules read (a name or an attribute), apart
    from the re-exports of projeq/__init__.py and the references inside the
    function or class that defines the name."""
    used = set()

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    for path in (ROOT / "src" / "projeq").glob("*.py"):
        if path.name != "__init__.py":
            walk(ast.parse(path.read_text()), frozenset())
    return used


def test_every_public_name_has_a_user():
    """Each name projeq exports is used by the library itself, by the
    benchmark, or is documented in the README: an export that none of them
    needs is a test oracle or dead code, and belongs in tests/ or nowhere."""
    public = [name for name, value in vars(projeq).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    used = _names_used_in_src()
    bench = "\n".join(p.read_text() for p in (ROOT / "bench").glob("*.py"))
    orphans = [name for name in public if name not in used
               and not re.search(rf"\b{name}\b", bench)
               and not re.search(rf"\b{name}\b", README)]
    assert orphans == []


def test_every_imported_name_is_read():
    """Each name a library module imports is read in that module: a module
    imports nothing it does not use.  projeq/__init__.py re-exports, and a
    name on a line marked '# noqa: F401' is imported for its importers."""
    unread = []
    for path in sorted((ROOT / "src" / "projeq").glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unread.append(f"{path.name}:{alias.lineno} {name}")
    assert unread == []
