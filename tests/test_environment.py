"""The settings the package reads from the environment, found by parsing its
source: a new environment variable is a change this test makes visible."""

import ast
from pathlib import Path

import soficlab

SRC = Path(soficlab.__file__).resolve().parent


def _environment_reads(tree) -> set:
    """The names read through os.environ[...], os.environ.get(...) and
    os.getenv(...); a name that is not a string literal reads as the source
    of its expression."""
    names = set()

    def is_environ(node):
        return isinstance(node, ast.Attribute) and node.attr == "environ" or (
            isinstance(node, ast.Name) and node.id == "environ")

    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Subscript) and is_environ(node.value):
            key = node.slice
        elif isinstance(node, ast.Call) and node.args and isinstance(node.func, ast.Attribute) and (
                node.func.attr == "get" and is_environ(node.func.value) or node.func.attr == "getenv"):
            key = node.args[0]
        if key is not None:
            names.add(key.value if isinstance(key, ast.Constant) else ast.unparse(key))
    return names


def test_the_package_reads_two_environment_variables():
    """Across src/soficlab/*.py the package reads exactly SOFICLAB_KERNEL
    (the kernel backend) and XDG_CACHE_HOME (where the compiled kernel is
    kept); size caps are module constants."""
    reads = set()
    for path in sorted(SRC.glob("*.py")):
        reads |= _environment_reads(ast.parse(path.read_text(), str(path)))
    assert reads == {"SOFICLAB_KERNEL", "XDG_CACHE_HOME"}
