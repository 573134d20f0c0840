"""Every module-level import under src/relaxns and tests is read in its module.

A stdlib `ast` scan, so no linter is needed: a name that a module imports at
its top level must be read somewhere in that module, or listed in its
`__all__`.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOTS = (TESTS.parent / "src" / "relaxns", TESTS)


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
