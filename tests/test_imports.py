"""Every module of the package (but ``__init__.py``, which re-exports), of
the tests and of the benchmark uses each name it imports; the package keeps
solver formats in ``solver``: no module but ``solver.py`` imports any scipy
module, and it does so in one function, so linprog, the ``_highspy`` binding
and the column-wise layouts of the rows (``scipy.sparse``) stay there; scipy
loads where a model is first solved: importing ``corridorflow`` or any of
its modules, writing a model (``export_model`` and ``export-milp``) and
reading the solver's names load no scipy module, a search and reading
``solver.linprog`` load it, and a comparison's parent process loads it
before it forks its workers, so they inherit it; importing ``corridorflow``
loads no ``importlib.metadata``, which only a manifest reads; and it keeps
junction roles in ``network``: no module but ``network.py`` compares
anything with a junction kind, so the others read the roles a ``Corridor``
resolved; the search
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


def scipy_import_scopes(source: str) -> list[str]:
    """The name of the innermost function around each import of a scipy
    module in ``source``, or "<module>" for one outside any function."""
    scopes = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, (ast.Import, ast.ImportFrom))
                    and reaches(imported(ast.unparse(child)), "scipy")):
                scopes.append(scope)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else scope)

    visit(ast.parse(source), "<module>")
    return scopes


def test_the_scan_finds_where_scipy_is_imported():
    source = ("import numpy as np\nfrom scipy import sparse\n"
              "def load():\n    import scipy.optimize\n    from scipy.optimize import linprog\n")
    assert scipy_import_scopes(source) == ["<module>", "load", "load"]


def test_the_solver_imports_scipy_in_one_function():
    assert scipy_import_scopes((SRC / "solver.py").read_text()) == ["_load_scipy"] * 3


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
ANY_SCIPY = "any(m.split('.')[0] == 'scipy' for m in sys.modules)"


@pytest.mark.parametrize("module", ["corridorflow", "corridorflow.experiments",
                                    "corridorflow.sim", "corridorflow.cli",
                                    "corridorflow.solver"])
def test_importing_loads_no_scipy(module):
    assert fresh(f"import sys\nimport {module}\n{LOADED_SCIPY}") == "[]\n"


PLAN_MODEL = ("import sys\n"
              "import numpy as np\n"
              "import corridorflow\n"
              "from corridorflow import twostage\n"
              "from corridorflow.controller import TWO_STAGE, plan_model\n"
              "config = corridorflow.case_study()\n"
              "corridor = config.corridor()\n"
              "state = twostage.HorizonState(\n"
              "    {l.id: np.zeros(l.geometry.k_max) for l in corridor.fd_links},\n"
              "    {l.id: 0.0 for l in corridor.entry_links}, config.n_project, config.T)\n"
              "lp = plan_model(corridor, state, TWO_STAGE, config.distribution(),\n"
              "                config.weights()).lp\n")


def test_importing_loads_no_package_metadata():
    # only a run's manifest reads the installed versions
    out = fresh("import sys\nimport corridorflow\nprint('importlib.metadata' in sys.modules)")
    assert out == "False\n"


def test_writing_a_model_loads_no_scipy(tmp_path):
    out = fresh(PLAN_MODEL
                + "for fmt in ('lp', 'mps'):\n"
                + f"    corridorflow.export_model(lp, {str(tmp_path)!r} + '/plan.' + fmt, fmt=fmt)\n"
                + LOADED_SCIPY)
    assert out == "[]\n"
    assert all((tmp_path / f"plan.{fmt}").stat().st_size for fmt in ("lp", "mps"))


@pytest.mark.parametrize("fmt", ["lp", "mps"])
def test_the_export_command_loads_no_scipy(fmt, tmp_path):
    out = fresh("import sys\n"
                "from corridorflow import cli\n"
                f"rc = cli.main(['export-milp', '--output-dir', {str(tmp_path)!r}, "
                f"'--format', {fmt!r}])\n"
                f"print(rc)\n{LOADED_SCIPY}")
    assert out.splitlines()[-2:] == ["0", "[]"]
    assert (tmp_path / f"horizon_two-stage.{fmt}").stat().st_size > 0


def test_a_search_loads_scipy():
    out = fresh(PLAN_MODEL
                + f"before = {ANY_SCIPY}\n"
                + "sol = corridorflow.branch_and_bound(lp)\n"
                + "print(before, sol.status, 'scipy.optimize' in sys.modules)\n")
    assert out == "False optimal True\n"


def test_reading_linprog_before_any_solve_loads_it():
    out = fresh("import sys\n"
                "from corridorflow import solver\n"
                f"before = {ANY_SCIPY}\n"
                "import scipy.optimize\n"
                "print(before, solver.linprog is scipy.optimize.linprog)\n")
    assert out == "False True\n"


def test_the_package_re_exports_the_solver_names():
    solver = corridorflow.solver
    assert (corridorflow.branch_and_bound, corridorflow.export_model, corridorflow.Solution) == (
        solver.branch_and_bound, solver.export_model, solver.Solution)


def test_an_unknown_solver_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'corridorflow.solver' has no attribute 'nope'"):
        corridorflow.solver.nope


def test_a_name_the_package_lacks_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'corridorflow' has no attribute 'nope'"):
        corridorflow.nope


def test_a_parallel_comparison_loads_the_solver_before_it_forks():
    # the parent solves nothing at jobs=2: scipy is in it only if it loaded
    # scipy before the fork, for the workers to inherit
    out = fresh("import sys\n"
                "from corridorflow.experiments import case_study, run_comparison\n"
                f"before = {ANY_SCIPY}\n"
                "comp = run_comparison(case_study(), [0], n_horizons=1, jobs=2,\n"
                "                      controllers=('d-min', 'd-max'))\n"
                "print(before, 'scipy.optimize' in sys.modules, sorted(comp.records))\n")
    assert out == "False True [(0, 'd-max'), (0, 'd-min')]\n"
