"""Every public top-level name in `src/sbfsearch` is one the system uses:
it is named in `src/` or `perfbench/` outside its own definition, in
code (a name, an attribute or an import) or in a string constant that is
not a docstring (perfbench wraps functions by name). Comments and
docstrings do not count. The package's `__init__` re-exports names
without using them, and perfbench's own tests are not the system, so
neither counts. Code that only tests call belongs in `tests/`."""

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

WORD = re.compile(r"\w+")


def _public_definitions(tree: ast.Module):
    """(name, first line, last line) of each public top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node.lineno, node.end_lineno) for name in names if not name.startswith("_"))


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the string constants that are docstrings."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, owners) and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)}


def _names_used(tree: ast.Module):
    """(name, line) of each name the code uses: names, attributes,
    imported names, and the words of string constants other than
    docstrings."""
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            yield from ((word, node.lineno) for word in WORD.findall(node.value))


def test_every_public_name_is_used_by_the_system():
    system = [path for path in (*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"))
              if path.name != "__init__.py" and not path.name.startswith("test_")]
    used = {path: list(_names_used(ast.parse(path.read_text()))) for path in system}
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _public_definitions(ast.parse(module.read_text())):
            if not any(word == name for path, names in used.items() for word, at in names
                       if not (path == module and first <= at <= last)):
                unused.append(f"{module.stem}.{name}")
    assert unused == sorted(UNUSED)
