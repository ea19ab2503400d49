"""The package's public names, the README against the method table, and
what importing and running the package loads."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import blockgp
from blockgp.model import METHODS

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = ROOT / "src"

# Third-party modules a blockgp module may import at module level; any
# other (scipy.optimize, scipy.spatial, ...) is imported where it is called.
MODULE_LEVEL_THIRD_PARTY = ("numpy", "scipy.linalg")


def test_every_exported_name_resolves_and_the_list_is_sorted_and_unique():
    names = blockgp.__all__
    missing = [name for name in names if not hasattr(blockgp, name)]
    assert missing == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def _table(header):
    """The README table under header, as {first ticked name: cells}."""
    lines = README.read_text().splitlines()
    rows = {}
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if _ticked(cells[0]):
            rows[_ticked(cells[0])[0]] = cells
    return rows


def _ticked(cell):
    return re.findall(r"`([^`]+)`", cell)


def test_the_readme_method_table_and_config_rows_match_the_method_table():
    trainable = [name for name, row in METHODS.items() if row.penalty is not None]

    rows = _table(
        "| method | scaling structure | penalty | partition | α | stochastic "
        "| gap scale | collapsed entry point |"
    )
    assert sorted(rows) == sorted(trainable)
    yes = {"yes": True, "no": False}
    for name, cells in rows.items():
        row = METHODS[name]
        assert _ticked(cells[2]) == [f'"{row.penalty}"'], name
        assert cells[3] == row.partition, name
        assert yes[cells[4]] == row.alpha, name
        assert yes[cells[5]] == row.stochastic, name
        assert yes[cells[6]] == row.gap_scale, name

    config = _table("| key | default | meaning |")
    assert _ticked(config["method"][2]) == trainable
    with_alpha = [name for name in trainable if METHODS[name].alpha]
    assert _ticked(config["alpha"][2]) == with_alpha
    needing_blocks = [name for name in trainable if METHODS[name].partition == "required"]
    assert _ticked(config["blocks"][2]) == needing_blocks


# Each phase prints whether scipy.optimize and scipy.spatial are loaded.
_LOADS_SCRIPT = """
import json, sys
def loaded(phase):
    print(json.dumps([phase, "scipy.optimize" in sys.modules, "scipy.spatial" in sys.modules]))
import blockgp as bg
loaded("import")
data = bg.synthetic_1d(60, seed=0)
state = bg.initial_state(data, 5, seed=0)
spec = bg.BoundSpec(method="BT-SGPR", num_blocks=3)
part = bg.make_partition(data.n, 3, seed=0)
adam = bg.TrainConfig(objective=spec, optimizer="adam", epochs=2)
fitted, q, _ = bg.fit_stochastic(data.x, data.y, state, part, adam)
bg.predict(data.x, fitted, bg.optimal_qu(data.x, data.y, fitted))
loaded("adam")
lbfgs = bg.TrainConfig(objective=spec, optimizer="lbfgs", epochs=3)
_, trace = bg.fit_collapsed(data.x, data.y, state, lbfgs, part)
assert len(trace) >= 1 and trace.function_evals >= 1
loaded("lbfgs")
"""


def test_scipy_optimize_and_spatial_load_only_where_they_are_called():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", _LOADS_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-3000:]
    phases = [json.loads(line) for line in run.stdout.splitlines()]
    # a fresh import loads neither; the median-heuristic start loads
    # scipy.spatial, and only an L-BFGS fit loads scipy.optimize
    assert phases == [["import", False, False], ["adam", False, True],
                      ["lbfgs", True, True]]


def _module_level_imports(tree):
    """Every import statement outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _in_budget(name):
    return name.split(".")[0] in sys.stdlib_module_names or any(
        name == top or name.startswith(top + ".") for top in MODULE_LEVEL_THIRD_PARTY
    )


def _outside_budget(node):
    """The modules an import statement loads that the budget does not allow."""
    if isinstance(node, ast.ImportFrom):
        if node.level or _in_budget(node.module):
            return []
        # `from scipy import linalg` loads scipy.linalg
        names = [f"{node.module}.{alias.name}" for alias in node.names]
    else:
        names = [alias.name for alias in node.names]
    return [name for name in names if not _in_budget(name)]


def test_module_level_imports_stay_within_numpy_scipy_linalg_and_the_stdlib():
    bad = []
    for path in sorted((SRC / "blockgp").glob("*.py")):
        for node in _module_level_imports(ast.parse(path.read_text())):
            bad += [f"{path.name}:{node.lineno} imports {name}" for name in _outside_budget(node)]
    assert bad == [], "import these where they are called: " + "; ".join(bad)


# The modules whose private names and internals the dense references
# must not borrow: the code they check.
CHECKED = ("bounds_vi", "bounds_pep", "training", "linalg")


def _imported(node):
    """The dotted names an import statement imports, without the package
    prefix: `from .oracles import f` gives oracles and oracles.f."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        base = node.module or ""
        names = [base] + [f"{base}.{alias.name}".lstrip(".") for alias in node.names]
    return [name.removeprefix("blockgp.") for name in names if name]


def _names(tree):
    """Every name a module's code refers to: bare names, attributes and
    the names its from-imports bring in."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_only_verify_and_the_package_import_the_oracles_which_borrow_nothing_private():
    importers = set()
    for path in sorted((SRC / "blockgp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                name.split(".")[0] == "oracles" for name in _imported(node)
            ):
                importers.add(path.stem)
    assert importers == {"__init__", "verify"}

    tree = ast.parse((SRC / "blockgp" / "oracles.py").read_text())
    borrowed = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("blockgp.")
            borrowed += [f"{module}.{alias.name}" for alias in node.names
                         if module in CHECKED and alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in CHECKED and node.attr.startswith("_"):
                borrowed.append(f"{node.value.id}.{node.attr}")
    # the pass and the Woodbury fit are what the oracles check
    named = set(_names(tree))
    assert borrowed == [] and named.isdisjoint({"_fit", "_chunks", "LowRankGaussian"})


def test_only_the_pass_decides_the_stack_layout():
    layout = {"STACK_ENTRIES", "_chunks"}
    naming = sorted(
        f"{path.name} names {name}"
        for path in (SRC / "blockgp").glob("*.py") if path.stem != "bounds_vi"
        for name in layout & set(_names(ast.parse(path.read_text())))
    )
    assert naming == []
    assert layout <= set(_names(ast.parse((SRC / "blockgp" / "bounds_vi.py").read_text())))
