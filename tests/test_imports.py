"""No module imports a name it never uses: a static scan of the sources of
the package, the tests and the benchmark, which it only reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The acceptance criteria file is pinned as written, and it imports os unused.
EXEMPT = {("tests/test_acceptance.py", "os")}


def unused_imports(path: Path) -> list[str]:
    """Names bound by an import that no expression reads and ``__all__`` does not list."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_no_unused_imports():
    found = [
        (path.relative_to(ROOT).as_posix(), name)
        for folder in ("src/zonoinv", "tests", "benchmarks")
        for path in sorted((ROOT / folder).glob("*.py"))
        for name in unused_imports(path)
    ]
    assert [entry for entry in found if entry not in EXEMPT] == []


def test_scan_flags_an_unused_name(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("import os\nimport sys as system\nfrom math import pi, tau\n__all__ = ['tau']\nprint(pi)\n")
    assert unused_imports(source) == ["os", "system"]
