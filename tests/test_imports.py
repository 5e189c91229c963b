"""Every module of the package (but ``__init__.py``, which re-exports), of
the tests and of the benchmark uses each name it imports; the package keeps
solver formats in ``solver``: no module but ``solver.py`` imports any scipy
module, so linprog, the ``_highspy`` binding and the column-wise layouts of
the rows (``scipy.sparse``) stay there; the solver, and scipy with it, loads
where a model is first solved or written: importing ``corridorflow``,
``corridorflow.experiments``, ``corridorflow.sim`` or ``corridorflow.cli``
loads no scipy module, the package resolves its solver names on first use,
and a comparison's parent process loads the solver before it forks its
workers, so they inherit it; and it keeps junction roles in
``network``: no module but ``network.py`` compares anything with a junction
kind, so the others read the roles a ``Corridor`` resolved; the search
reads no clock: ``solver.py`` imports neither ``time`` nor ``datetime``; and
HiGHS's load-time limits are stated in ``lp`` alone: no other module of the
package defines or reads ``INFINITE_VALUE``, ``LARGE_COEFFICIENT`` or
``ROUNDING``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corridorflow

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "corridorflow"
MODULES = sorted(
    [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "perfbench").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the import statements of ``source`` that no other
    expression of it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_scan_finds_an_unused_name():
    source = "import os\nfrom a.b import c, d as e\nimport x.y\nprint(c, x)\n"
    assert unused_imports(source) == ["os (line 1)", "e (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def imported(source: str) -> set[str]:
    """The dotted names that the absolute imports of ``source`` name:
    ``import a.b`` gives a.b, ``from a.b import c`` gives a.b and a.b.c."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def reaches(names, module: str) -> bool:
    return any(name == module or name.startswith(module + ".") for name in names)


def test_the_scan_finds_a_submodule_imported_by_name():
    source = "from scipy import optimize\nfrom .lp import x\nimport numpy as np\n"
    assert imported(source) == {"scipy", "scipy.optimize", "numpy"}
    assert reaches(imported(source), "scipy.optimize")
    assert not reaches(imported("import scipy.optimizer\n"), "scipy.optimize")


def test_the_search_reads_no_clock():
    # a search's answer depends on the model alone, never on how long it ran
    names = imported((SRC / "solver.py").read_text())
    assert not reaches(names, "time") and not reaches(names, "datetime")


def test_the_model_container_imports_no_scipy():
    assert not reaches(imported((SRC / "lp.py").read_text()), "scipy")


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "solver.py"],
                         ids=lambda p: p.name)
def test_only_the_solver_drives_linprog_and_highs(path):
    # nor does any other module lay out rows with scipy.sparse
    assert not reaches(imported(path.read_text()), "scipy")


def kind_comparisons(source: str) -> list[int]:
    """Lines of ``source`` where a comparison reads the name ``MERGE`` or
    ``SERIAL``, bare or as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if names & {"MERGE", "SERIAL"}:
                lines.append(node.lineno)
    return lines


def test_the_scan_finds_a_junction_kind_compared():
    source = ("j = Junction('j', a, b, MERGE)\nif jn.kind == network.MERGE:\n    pass\n"
              "ok = kind not in (SERIAL, MERGE)\nsame = kind == other\n")
    assert kind_comparisons(source) == [2, 4]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "network.py"],
                         ids=lambda p: p.name)
def test_only_the_corridor_reads_junction_kinds(path):
    assert kind_comparisons(path.read_text()) == []


LIMITS = {"INFINITE_VALUE", "LARGE_COEFFICIENT", "ROUNDING"}


def limit_uses(source: str) -> list[int]:
    """Lines of ``source`` that define, import or read a name in LIMITS,
    bare or as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        name = (node.id if isinstance(node, ast.Name) else node.attr
                if isinstance(node, ast.Attribute) else node.name
                if isinstance(node, ast.alias) else None)
        if name in LIMITS:
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_finds_a_limit_used():
    source = ("from .lp import ROUNDING\nbig = lp.LARGE_COEFFICIENT * 2\n"
              "INFINITE_VALUE = 1e20\nfloor = SMALL_COEFFICIENT\nrounding = 1e-11\n")
    assert limit_uses(source) == [1, 2, 3]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "lp.py"],
                         ids=lambda p: p.name)
def test_only_the_model_container_states_highs_limits(path):
    assert limit_uses(path.read_text()) == []


def fresh(code: str) -> str:
    """What ``code`` prints in a new interpreter that imports the package
    from the source tree."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


LOADED_SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


@pytest.mark.parametrize("module", ["corridorflow", "corridorflow.experiments",
                                    "corridorflow.sim", "corridorflow.cli"])
def test_importing_loads_no_scipy(module):
    assert fresh(f"import sys\nimport {module}\n{LOADED_SCIPY}") == "[]\n"


def test_the_solver_names_resolve_to_the_solver_on_first_use():
    out = fresh("import corridorflow\n"
                "from corridorflow import branch_and_bound\n"
                "from corridorflow import solver\n"
                "print(branch_and_bound is solver.branch_and_bound,\n"
                "      corridorflow.export_model is solver.export_model,\n"
                "      corridorflow.Solution is solver.Solution)\n")
    assert out == "True True True\n"


def test_a_name_the_package_lacks_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'corridorflow' has no attribute 'nope'"):
        corridorflow.nope


def test_a_parallel_comparison_loads_the_solver_before_it_forks():
    out = fresh("import sys\n"
                "from corridorflow.experiments import case_study, run_comparison\n"
                "before = 'corridorflow.solver' in sys.modules\n"
                "comp = run_comparison(case_study(), [0], n_horizons=1, jobs=2,\n"
                "                      controllers=('d-min', 'd-max'))\n"
                "print(before, 'corridorflow.solver' in sys.modules, sorted(comp.records))\n")
    assert out == "False True [(0, 'd-max'), (0, 'd-min')]\n"
