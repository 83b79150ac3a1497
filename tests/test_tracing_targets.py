"""The names perfbench's tracer wraps, and the package's imports, found by
parsing their source: deleting a wrapped name, or bringing the SAW unfolding
back onto a run path, is a change this test makes visible."""

import ast
import importlib
from pathlib import Path

import soficlab

SRC = Path(soficlab.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    for node in ast.parse(TRACING.read_text(), str(TRACING)).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_every_tracing_target_resolves():
    """Each (span, module, attribute) of TARGETS names a function of the
    module, or a method in its class's __dict__, where `install` looks it up."""
    targets = _targets()
    assert targets
    for _, modname, attr in targets:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), f"{modname}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{modname}.{attr}"


def test_no_package_module_imports_saw():
    """`saw.py` is the reference of the acceptance criteria and the tests;
    no module of the package imports it."""
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                module = ".".join(filter(None, ["soficlab" if node.level else "", node.module]))
                names = [module, *(f"{module}.{a.name}" for a in node.names)]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name in ("soficlab.saw", "saw") for name in names):
                importers.append(path.name)
    assert importers == []
