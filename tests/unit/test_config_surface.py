"""The program's configuration surface: constructor arguments, config
objects and CLI flags, never environment variables.

An environment read is a knob nobody sees at the call site, and a run
whose results depend on it cannot be reproduced from its arguments
alone.  This test keeps the count at zero.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _env_reads(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "os":
            yield node.lineno, f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in _ENV_NAMES:
                    yield node.lineno, f"from os import {alias.name}"


def test_src_reads_no_environment_variables():
    found = [f"{path.relative_to(SRC.parent)}:{line}: {what}"
             for path in sorted(SRC.rglob("*.py"))
             for line, what in _env_reads(path)]
    assert found == []
