"""``rmlab.errors`` holds only exception classes that some caller catches by
type: every class in it but ``LabError`` (which ``cli.main`` catches) is named
in an ``except`` clause in ``src/rmlab``. A check that nothing catches by type
raises a builtin instead, such as the numeric kernels' ValueError."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rmlab"


def caught_names() -> set:
    """Every name an ``except`` clause in the package catches, bare or as
    an attribute (``errors.ConfigError``), alone or in a tuple."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                names.update(k.attr if isinstance(k, ast.Attribute) else k.id for k in kinds)
    return names


def test_every_error_class_but_the_base_is_caught_by_type():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert "LabError" in defined
    assert sorted(defined - {"LabError"} - caught_names()) == []
