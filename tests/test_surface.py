"""Every public top-level name in `src/sbfsearch` is one the system uses:
it is named in `src/` or `perfbench/` outside its own definition, in
code, a string (perfbench wraps functions by name) or a docstring. The
package's `__init__` re-exports names without using them, and
perfbench's own tests are not the system, so neither counts. Code that
only tests call belongs in `tests/`."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sbfsearch"

# the names kept without a user in the system, and why
UNUSED = {
    "analysis.result_size_bits": "the paper's search-response size model, which the tests check against "
                                 "the bytes a search puts on the wire",
}


def _public_definitions(path: Path):
    """(name, first line, last line) of each public top-level definition."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node.lineno, node.end_lineno) for name in names if not name.startswith("_"))


def test_every_public_name_is_used_by_the_system():
    system = [path for path in (*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"))
              if path.name != "__init__.py" and not path.name.startswith("test_")]
    lines = {path: path.read_text().splitlines() for path in system}
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _public_definitions(module):
            word = re.compile(rf"\b{name}\b")
            if not any(word.search(line) for path, text in lines.items() for at, line in enumerate(text, 1)
                       if not (path == module and first <= at <= last)):
                unused.append(f"{module.stem}.{name}")
    assert unused == sorted(UNUSED)
