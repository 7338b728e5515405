"""README's "Environment variables" table lists every ``REPRO_*``
variable the package reads, once each, and nothing else.

The source side is every string literal under ``src/repro`` that is a
whole ``REPRO_*`` name, so adding or removing a variable without
updating the table fails here.
"""

import ast
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
README = SRC.parents[1] / "README.md"
_NAME = re.compile(r"REPRO_[A-Z_]+")


def _source_names() -> set:
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _NAME.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def _table_names() -> list:
    section = README.read_text().split("\n## Environment variables\n")[1]
    section = section.split("\n## ")[0]
    return [
        _NAME.fullmatch(line.split("|")[1].strip().strip("`")).group(0)
        for line in section.splitlines()
        if line.startswith("| `REPRO_")
    ]


def test_readme_env_table_matches_source():
    listed = _table_names()
    assert len(listed) == len(set(listed)), "a variable is listed twice"
    assert set(listed) == _source_names()
