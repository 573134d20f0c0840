"""Every module-level import under src/relaxns and tests is read in its module,
and under src/relaxns only forks.py forks, reaps or signals a process.

A stdlib `ast` scan, so no linter is needed: a name that a module imports at
its top level must be read somewhere in that module, or listed in its
`__all__`.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "relaxns"
ROOTS = (PACKAGE, TESTS)
PROCESS_CALLS = {"fork", "_exit", "waitpid", "waitstatus_to_exitcode", "kill"}  # read as os.<name>


def unused_imports(source):
    """(line, name) of each name a module-level import binds and source never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__" for target in node.targets):
            read.update(ast.literal_eval(node.value))
        if isinstance(node, ast.Import):
            bound = [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [(node.lineno, alias.asname or alias.name) for alias in node.names if alias.name != "*"]
        else:
            continue
        unused.extend(bound)
    return [(line, name) for line, name in unused if name not in read]


def test_unused_imports_finds_what_nothing_reads():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "import numpy.linalg\n"
        "from a import b, c as d\n"
        "from e import f\n"
        "__all__ = ['f']\n"
        "numpy.linalg.norm(d)\n"
        "osp = None\n"
    )
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (4, "b")]


def test_no_module_level_import_is_unused():
    found = [
        f"{path.relative_to(TESTS.parent)}:{line}: {name}"
        for root in ROOTS
        for path in sorted(root.glob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def process_control(source):
    """(line, name) of each read of os.<name> for a name in PROCESS_CALLS,
    and of each import of signal, anywhere in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "os" and node.attr in PROCESS_CALLS:
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module in ("os", "signal"):
            names = [alias.name for alias in node.names if node.module == "signal" or alias.name in PROCESS_CALLS]
            found.extend((node.lineno, f"{node.module}.{name}") for name in names)
        elif isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names if alias.name == "signal")
    return found


def test_process_control_finds_forks_reaps_and_signals():
    source = (
        "import os, signal\n"
        "from os import kill, getpid\n"
        "def f():\n"
        "    from signal import SIGKILL\n"
        "    os._exit(os.waitpid(os.fork(), 0)[1])\n"
        "    os.getpid()\n"
    )
    assert sorted(process_control(source)) == [
        (1, "signal"),
        (2, "os.kill"),
        (4, "signal.SIGKILL"),
        (5, "os._exit"),
        (5, "os.fork"),
        (5, "os.waitpid"),
    ]


def test_only_forks_controls_processes():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "forks.py"
        for line, name in process_control(path.read_text())
    ]
    assert found == []
