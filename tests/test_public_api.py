"""Every public name in src/mdi has a caller outside the tests.

A public top-level function or class, or a public method, must be named
somewhere other than its own def line: in src/mdi, bench/, demos/ or
pyproject.toml. A name only the tests use is dead weight in the package.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mdi"


def public_defs():
    """(name, file, def line) of each public function, class and method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *members]:
                if isinstance(item, kinds) and not item.name.startswith("_"):
                    yield item.name, path, item.lineno


def test_every_public_name_is_used_outside_the_tests():
    users = [
        *SRC.glob("*.py"),
        *(ROOT / "bench").glob("*.py"),
        *(ROOT / "demos").glob("*.py"),
        ROOT / "pyproject.toml",
    ]
    lines = [
        (path, lineno, text)
        for path in users
        for lineno, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
    ]
    unused = []
    for name, path, def_line in public_defs():
        word = re.compile(rf"\b{name}\b")
        if not any(
            word.search(text) and (p, n) != (path, def_line) for p, n, text in lines
        ):
            unused.append(f"{path.relative_to(ROOT)}:{def_line} {name}")
    assert not unused, "public names used only by tests: " + ", ".join(unused)
