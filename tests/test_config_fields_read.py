"""Every ``RunConfig`` field is read somewhere in ``cli.py``.

An AST scan: each field of the ``RunConfig`` dataclass must appear as a
load of ``cfg.<field>`` outside the class itself.  Writes such as
``cfg.group_kind = ...`` and the generic ``getattr(cfg, attr)`` of the key
table do not count, so a config key that only parses, range-checks and
echoes into the report fails here, the way a function with no caller fails
``tests/test_no_dead_code.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "etalab" / "cli.py"


def unread_fields(source: str) -> list:
    """Fields of ``RunConfig`` in ``source`` that no ``cfg.<field>`` load
    reads."""
    tree = ast.parse(source)
    config = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "RunConfig")
    fields = [item.target.id for item in config.body
              if isinstance(item, ast.AnnAssign)]
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "cfg"}
    return [name for name in fields if name not in read]


def test_every_config_field_is_read():
    unread = unread_fields(CLI.read_text())
    assert not unread, "RunConfig fields never read as cfg.<field>: " + \
        ", ".join(unread)


def test_a_field_that_is_only_written_is_flagged():
    source = """
class RunConfig:
    radius: int = 0
    spare: int = 8


def run(cfg):
    cfg.spare = 3
    return getattr(cfg, "spare"), cfg.radius
"""
    assert unread_fields(source) == ["spare"]
