"""The package runs on the standard library alone.

Every ``import`` and ``from ... import`` in ``src/repro`` must name
``repro`` itself or a module of the standard library
(``sys.stdlib_module_names``), wherever it sits: at module level, inside
a function, or behind a ``try``.  ``pyproject.toml`` therefore lists no
runtime dependency.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"


def imported_roots(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 50
    foreign = [
        f"{path.relative_to(PACKAGE.parent)}:{lineno}: {root}"
        for path in sources
        for lineno, root in imported_roots(path)
        if root not in allowed
    ]
    assert foreign == []
