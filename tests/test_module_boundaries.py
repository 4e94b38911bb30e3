"""No module of the package reaches into another module's private names,
only params spells out the admissibility conditions, only quad builds
random generators, the Morrey and operator layers take nothing from quad's
Monte Carlo section and no other module than quad names its estimator,
every package name a demo or the benchmark imports
exists and every such call of a package function binds to its signature,
and the fast demos and the README's Python snippets run."""

import ast
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_report_cli import _cli_env

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hlp_sharp"
DEMOS = ROOT / "demos"
PERFBENCH = ROOT / "perfbench"
README_SNIPPETS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S
)


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


_MC_ESTIMATOR_NAMES = ("mc_ball_integral", "polar_directions", "eval_batch")
_MONTE_CARLO_NAMES = ("MCSpec", "keyed_rng", *_MC_ESTIMATOR_NAMES)


def _monte_carlo_uses(tree: ast.Module, names=_MONTE_CARLO_NAMES):
    """Names of quad's Monte Carlo section imported by name, or read as an
    attribute (quad.keyed_rng): a Morrey cell or an operator value of a
    radial profile draws no random number."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in names:
                    yield f"from {'.' * node.level}{node.module or ''} import {alias.name}"
        elif isinstance(node, ast.Attribute) and node.attr in names:
            yield ast.unparse(node)


def test_morrey_and_operators_use_no_monte_carlo():
    offences = [
        f"{name}: {use}"
        for name in ("morrey.py", "operators.py")
        for use in _monte_carlo_uses(ast.parse((SRC / name).read_text(), filename=name))
    ]
    assert not offences, offences


def test_no_command_reaches_the_monte_carlo_estimator():
    # cli keeps MCSpec and keyed_rng for the header echo and group-check's
    # random triples; no volume or cell of any command is a Monte Carlo draw
    offences = [
        f"{path.name}: {use}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "quad.py"
        for use in _monte_carlo_uses(
            ast.parse(path.read_text(), filename=str(path)), _MC_ESTIMATOR_NAMES
        )
    ]
    assert not offences, offences


def test_monte_carlo_detector_flags_imports_and_attributes():
    tree = ast.parse(
        "from .quad import MCSpec, ball_rule\n"
        "from . import quad\n"
        "from hlp_sharp.quad import eval_batch as batch\n"
        "rng = quad.keyed_rng(seed, 23)\n"
        "x = quad.polar_directions\n"
        "y = quad.leggauss(12)\n"
    )
    assert sorted(_monte_carlo_uses(tree)) == [
        "from .quad import MCSpec",
        "from hlp_sharp.quad import eval_batch",
        "quad.keyed_rng",
        "quad.polar_directions",
    ]
    assert sorted(_monte_carlo_uses(tree, _MC_ESTIMATOR_NAMES)) == [
        "from hlp_sharp.quad import eval_batch",
        "quad.polar_directions",
    ]


def _package_imports(tree: ast.Module):
    """(bound name, statement, object) for each name a `from hlp_sharp...
    import X` binds, resolved as the import system does (an attribute of the
    module, else its submodule X); the object is None when neither
    exists.  The modules are imported, the file itself is never run."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module):
            continue
        if node.module.split(".")[0] != "hlp_sharp":
            continue
        for alias in node.names:
            try:
                module = importlib.import_module(node.module)
                target = getattr(module, alias.name, None)
                if target is None:
                    target = importlib.import_module(f"{node.module}.{alias.name}")
            except ImportError:
                target = None
            yield alias.asname or alias.name, f"from {node.module} import {alias.name}", target


def _missing_package_names(tree: ast.Module):
    """`from hlp_sharp... import X` statements whose X does not exist."""
    for _, statement, target in _package_imports(tree):
        if target is None:
            yield statement


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


def _unbindable_calls(tree: ast.Module):
    """Calls of an imported package name, or of an attribute reached from
    one, whose argument count or keyword names its inspect.signature
    rejects; calls with *args or **kwargs are not checked."""
    names = {name: target for name, _, target in _package_imports(tree) if target is not None}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        attrs, func = [], node.func
        while isinstance(func, ast.Attribute):
            attrs.insert(0, func.attr)
            func = func.value
        if not (isinstance(func, ast.Name) and func.id in names):
            continue
        target = names[func.id]
        for attr in attrs:
            target = getattr(target, attr, None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        if not callable(target) or starred or any(k.arg is None for k in node.keywords):
            continue
        try:
            inspect.signature(target).bind(*node.args, **{k.arg: k for k in node.keywords})
        except TypeError as exc:
            yield f"line {node.lineno}: {ast.unparse(node.func)}: {exc}"


def test_demo_calls_bind_to_package_signatures():
    offences = [
        f"{path.name} {use}"
        for path in sorted(DEMOS.glob("*.py"))
        for use in _unbindable_calls(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not offences, offences


def test_signature_detector_flags_counts_and_keywords():
    tree = ast.parse(
        "from hlp_sharp.morrey import sharpness_ratio, verify_dilation\n"
        "from hlp_sharp.operators import RadialProfile\n"
        "from hlp_sharp.quad import MCSpec\n"
        "sharpness_ratio('hlp', p, (1e-2, 1e2), grid, QuadratureSpec(), seed)\n"
        "sharpness_ratio('hlp', p, (1e-2, 1e2), grid, seed)\n"
        "verify_dilation(f, (0.5, 2.0), space, grid, gp, seed)\n"
        "MCSpec(sample=20000)\n"
        "MCSpec(samples=20000, seed=1)\n"
        "RadialProfile.power(-1.1, amplitude=2.0)\n"
        "RadialProfile.power(-1.1, kind='power')\n"
        "sharpness_ratio(*args)\n"
    )
    found = [use.split(":")[0:2] for use in _unbindable_calls(tree)]
    assert found == [
        ["line 4", " sharpness_ratio"],
        ["line 7", " MCSpec"],
        ["line 10", " RadialProfile.power"],
    ]


def test_perfbench_imports_and_calls_bind_to_the_package():
    # the benchmark reaches package functions directly (probes, workloads);
    # a deleted name or changed signature must fail here, not in a bench run
    files = sorted(PERFBENCH.glob("*.py"))
    assert files
    offences = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        offences += [f"{path.name}: {use}" for use in _missing_package_names(tree)]
        offences += [f"{path.name} {use}" for use in _unbindable_calls(tree)]
    assert not offences, offences


@pytest.mark.parametrize(
    "name", ["demo_constants.py", "demo_group_geometry.py", "demo_sharpness.py"]
)
def test_fast_demo_runs_to_exit_0(name, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_has_python_snippets():
    assert len(README_SNIPPETS) >= 2


@pytest.mark.parametrize("index", range(len(README_SNIPPETS)))
def test_readme_snippet_runs_to_exit_0(index, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", README_SNIPPETS[index]],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
