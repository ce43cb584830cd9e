"""Rules that the package's source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gridgroups"


def global_statements(package: Path) -> list[str]:
    """Each `global` statement in the package's modules, as file:line."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Global):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_rebinds_its_globals():
    """Lazy values are memoised with functools.cache or cached_property,
    never by rebinding a module-level name."""
    assert sorted(PACKAGE.glob("*.py")), PACKAGE
    assert global_statements(PACKAGE) == []
