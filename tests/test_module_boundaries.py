"""No module of the package reaches into another module's private names,
only params spells out the admissibility conditions, only quad builds
random generators, and every package name a demo imports exists."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hlp_sharp"
DEMOS = ROOT / "demos"


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


_ADMISSIBILITY_TOKENS = ("sigma<0 violated", "Q+sigma_j>0 violated")


def _condition_literals(tree: ast.Module):
    """String literals (f-string parts included) that spell out an
    admissibility violation instead of asking params to build it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if any(tok in node.value for tok in _ADMISSIBILITY_TOKENS):
                yield node.value


def test_admissibility_conditions_are_spelled_only_in_params():
    offences = [
        f"{path.name}: {text!r}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "params.py"
        for text in _condition_literals(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not offences, offences


def test_condition_literal_detector_flags_plain_and_f_strings():
    tree = ast.parse(
        'a = "sigma<0 violated: x"\n'
        'b = f"Q+sigma_j>0 violated: {y}"\n'
        'c = violated(Q_PLUS_SIGMA_J, f"{y}")\n'
    )
    assert list(_condition_literals(tree)) == ["sigma<0 violated: x", "Q+sigma_j>0 violated: "]


def _numpy_random_uses(tree: ast.Module):
    """Reads of np.random (or numpy.random) and imports of numpy's random
    module: every draw must come from quad.keyed_rng."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            yield f"{node.value.id}.random"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = [a.name for a in node.names]
            if node.module.startswith("numpy.random") or "random" in names:
                yield f"from {node.module} import {', '.join(names)}"


def test_only_quad_names_numpy_random():
    offences = [
        f"{path.name}: {use}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "quad.py"
        for use in _numpy_random_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not offences, offences


def test_numpy_random_detector_flags_attributes_and_imports():
    tree = ast.parse(
        "import numpy as np\n"
        "rng = np.random.Generator(np.random.Philox(1))\n"
        "from numpy.random import default_rng\n"
        "from numpy import random\n"
        "from numpy import zeros\n"
        "x = self.random()\n"
    )
    assert sorted(_numpy_random_uses(tree)) == [
        "from numpy import random",
        "from numpy.random import default_rng",
        "np.random",
        "np.random",
    ]


def _missing_package_names(tree: ast.Module):
    """`from hlp_sharp... import X` statements whose X the imported module
    lacks; the modules are imported, the demo itself is never run."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module):
            continue
        if node.module.split(".")[0] != "hlp_sharp":
            continue
        try:
            module = importlib.import_module(node.module)
        except ImportError:
            module = None
        for alias in node.names:
            if not hasattr(module, alias.name):
                yield f"from {node.module} import {alias.name}"


def test_demos_import_only_existing_package_names():
    files = sorted(DEMOS.glob("*.py"))
    assert files
    offences = [
        f"{path.name}: {use}"
        for path in files
        for use in _missing_package_names(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not offences, offences


def test_demo_import_detector_flags_missing_names_and_modules():
    tree = ast.parse(
        "from hlp_sharp.cli import run, emit_convergence_table\n"
        "from hlp_sharp import morrey\n"
        "from hlp_sharp.no_such_module import x\n"
        "from numpy import no_such_name\n"
    )
    assert list(_missing_package_names(tree)) == [
        "from hlp_sharp.cli import emit_convergence_table",
        "from hlp_sharp.no_such_module import x",
    ]
