"""DESIGN.md §3's module map names exactly the modules under src/repro.

The map is the tree in the section's first code block: a package line
(``  core/``) at indent 2, its modules at indent 4, a top-level module at
indent 2, several modules on one line when they share a description.
Description lines sit further in and are not read.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
ENTRY = re.compile(r"\w+(\.py|/)")


def mapped_modules(design: str) -> set[str]:
    """The ``package/module.py`` paths the §3 tree lists."""
    section = design.split("\n## 3.", 1)[1].split("\n## ", 1)[0]
    tree = section.split("```", 2)[1]
    modules, package = set(), ""
    for line in tree.splitlines():
        indent = len(line) - len(line.lstrip(" "))
        if indent not in (2, 4):
            continue
        names = []
        for token in line.split():
            if not ENTRY.fullmatch(token):
                break
            names.append(token)
        if indent == 2:
            package = names[0] if names and names[0].endswith("/") else ""
        modules.update(package + name for name in names if name.endswith(".py"))
    return modules


def source_modules() -> set[str]:
    return {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if path.name != "__init__.py"
    }


def test_the_parser_reads_packages_modules_and_shared_lines():
    design = "\n## 3. Map\n```\nsrc/repro/\n  errors.py     taxonomy\n  sql/   front\n" \
        "    lexer.py  ast.py   tokens\n                  more.py is prose\n```\n## 4. Next\n"
    assert mapped_modules(design) == {"errors.py", "sql/lexer.py", "sql/ast.py"}


def test_the_module_map_lists_every_module_and_no_other():
    mapped = mapped_modules((ROOT / "DESIGN.md").read_text())
    actual = source_modules()
    assert sorted(mapped - actual) == [], "DESIGN §3 lists modules that do not exist"
    assert sorted(actual - mapped) == [], "modules DESIGN §3 does not list"
