"""The README's examples run as written and give the results it states."""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import numpy as np

from projeq import codegen
from projeq.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


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
