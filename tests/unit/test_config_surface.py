"""The program's configuration surface: constructor arguments, config
objects and CLI flags, never environment variables.

An environment read is a knob nobody sees at the call site, and a run
whose results depend on it cannot be reproduced from its arguments
alone.  This test keeps the count at zero.  A config field nothing reads
is a knob that does nothing; a second test keeps that count at zero too.
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


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _config_fields(path):
    """(class, field) for every annotated field of a config dataclass."""
    for node in _parse(path).body:
        if isinstance(node, ast.ClassDef) and node.decorator_list:
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) \
                        and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def _attribute_reads(path):
    """Attribute names loaded in ``path``: ``x.name`` and
    ``getattr(x, "name", ...)``."""
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and len(node.args) >= 2 \
                and isinstance(node.args[1], ast.Constant):
            yield node.args[1].value


def test_every_config_field_is_read():
    config = SRC / "config.py"
    reads = {name
             for path in sorted(SRC.rglob("*.py")) if path != config
             for name in _attribute_reads(path)}
    unread = [f"{cls}.{name}" for cls, name in _config_fields(config)
              if name not in reads]
    assert unread == []
