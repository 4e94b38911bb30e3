"""No module of the package reaches into another module's private names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hlp_sharp"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_uses(tree: ast.Module):
    """Private names imported from a module, or read off an imported module."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if _private(alias.name):
                    yield f"from {'.' * node.level}{node.module or ''} import {alias.name}"
                elif node.level and node.module is None:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update((a.asname or a.name).split(".")[0] for a in node.names)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            yield f"{node.value.id}.{node.attr}"


def test_no_module_imports_another_modules_private_names():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 8
    offences = [
        f"{path.name}: {use}"
        for path in files
        for use in _private_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not offences, offences


def test_private_import_detector_flags_both_forms():
    tree = ast.parse("from .quad import _leggauss\nfrom . import quad\nquad._eval_batch(1)\n")
    assert list(_private_uses(tree)) == ["from .quad import _leggauss", "quad._eval_batch"]
