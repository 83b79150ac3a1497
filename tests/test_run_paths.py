"""Every module-level function and class of the package serves a run path,
found by parsing the source: a name that only tests reach belongs in
`tests/reference.py`, and adding one to the package is a change this test
makes visible."""

import ast
import re
from pathlib import Path

import soficlab
from soficlab import errors

SRC = Path(soficlab.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

# kept without a run path: the SAW unfolding, the reference of criteria 8
# and 11 and a target of perfbench's tracer; the model constructors that
# tests build models from; and the error classes, each an exit code
DECLARED_MODULES = {"saw"}
CONSTRUCTORS = {"full_shift", "checkerboard", "zero_potential", "hardcore_model_dict"}
DECLARED = CONSTRUCTORS | {
    name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.SoficLabError)}


def _entry_points() -> set:
    """The functions of the [project.scripts] entry points, and run_config,
    which `soficlab run` and every console script call."""
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return {func for _, func in re.findall(r'^\S+\s*=\s*"([\w.]+):(\w+)"', scripts, re.M)} | {"run_config"}


def _tracing_targets() -> set:
    """The top-level names perfbench's TARGETS wraps, as (module, name)."""
    path = ROOT / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return {(module.rsplit(".", 1)[1], attr.split(".")[0]) for _, module, attr in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def _names(node) -> set:
    """Every name and attribute that the code of node reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _unreached() -> list:
    """(module, name) of each module-level function and class of
    src/soficlab/*.py that no run path reaches.

    The walk starts from the entry points and from every module's top-level
    statements other than imports and definitions (constants, tables),
    which run on import, and follows names, not modules, through the
    bodies of the functions and classes it reaches: a name bound in two
    modules is reached in both, which can only under-report."""
    defs = {}
    reached = _entry_points()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= _names(node)
    todo = list(reached)
    while todo:
        for _, node in defs.get(todo.pop(), []):
            new = _names(node) - reached
            reached |= new
            todo += new
    return sorted((module, name) for name, items in defs.items() if name not in reached for module, _ in items)


def test_every_module_level_name_serves_a_run_path():
    """Each module-level function and class of the package is reached from
    a run path, wrapped by perfbench's tracer, or declared above."""
    targets = _tracing_targets()
    stray = [f"{module}.{name}" for module, name in _unreached()
             if module not in DECLARED_MODULES and name not in DECLARED and (module, name) not in targets]
    assert stray == []


def test_the_declared_constructors_need_their_declaration():
    """Each declared constructor is a name the walk does not reach, so a
    stale entry in the list is visible."""
    assert CONSTRUCTORS <= {name for _, name in _unreached()}
