"""Every public top-level name in `src/sbfsearch` is one the system uses:
it is named in `src/` or `perfbench/` outside its own definition, in
code (a name, an attribute or an import) or in a string constant that is
not a docstring (perfbench wraps functions by name). Comments and
docstrings do not count, nor do perfbench's own tests, which are not
the system. Code that only tests call belongs in `tests/`.

Every option, a parameter with a default on any `def` in
`src/sbfsearch`, is one the system passes: some call in those same files
to a function, method or class of that name passes it, positionally, by
keyword, or through `*args` or `**kwargs`. An option that only tests
pass belongs in the tests. There are 16 options; a new one, or one
gone, changes that count on purpose.

Only `sim` makes a `random.Random`, for its seeded experiments: every
other module takes a caller's generator or draws from the OS, so no
key, blinding element, sealed record or removal swap comes from a
seeded Mersenne Twister.

Every name a file under `src/`, `tests/` or `perfbench/` imports is one
that file's code uses. A string, docstring or not, does not count;
`from __future__ import annotations` binds no name.

The package's `__init__` is its docstring alone: every caller imports a
submodule, so the package root re-exports nothing and keeps no version
of its own beside `pyproject.toml`'s.

The command line takes exactly the arguments listed here, each for a
reason: a new one, or one gone, changes this list on purpose."""

import argparse
import ast
import re
from pathlib import Path

from sbfsearch.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sbfsearch"

# the names kept without a user in the system, and why
UNUSED = {
    "analysis.result_size_bits": "the paper's search-response size model, which the tests check against "
                                 "the bytes a search puts on the wire",
}

# the options kept without a caller in the system that passes them, and why
UNPASSED = {
    "cli.main(argv)": "the console script passes no argv, and the tests pass theirs",
}

WORD = re.compile(r"\w+")


def _system_files() -> list[Path]:
    return [path for path in (*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"))
            if not path.name.startswith("test_")]


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
    used = {path: list(_names_used(ast.parse(path.read_text()))) for path in _system_files()}
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _public_definitions(ast.parse(module.read_text())):
            if not any(word == name for path, names in used.items() for word, at in names
                       if not (path == module and first <= at <= last)):
                unused.append(f"{module.stem}.{name}")
    assert unused == sorted(UNUSED)


def _options(tree: ast.Module):
    """(callee name, label, parameter, keyword or None, positional index
    or None) of each parameter with a default on each `def`, nested ones
    too. A class's `__init__` is called by the class's name; a method's
    positional index leaves out `self` or `cls`."""
    def walk(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, scope + [child.name], True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from _defaults(child, scope, in_class)
                yield from walk(child, scope + [child.name], False)
            else:
                yield from walk(child, scope, in_class)
    yield from walk(tree, [], False)


def _defaults(fn: ast.FunctionDef, scope: list[str], in_class: bool):
    if in_class and fn.name == "__init__":
        callee, label = scope[-1], ".".join(scope)
    else:
        callee, label = fn.name, ".".join(scope + [fn.name])
    bound = in_class and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield callee, label, arg.arg, None if i < len(args.posonlyargs) else arg.arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield callee, label, arg.arg, arg.arg, None


def _passes(call: ast.Call, keyword: str | None, index: int | None) -> bool:
    """Whether `call` passes the parameter of that keyword name (None if
    positional-only) or that positional index (None if keyword-only)."""
    if index is not None:
        if any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > index:
            return True
    return any(kw.arg is None or (keyword is not None and kw.arg == keyword) for kw in call.keywords)


def _calls(tree: ast.Module):
    """(callee name, call) of each call to a name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                yield node.func.id, node
            elif isinstance(node.func, ast.Attribute):
                yield node.func.attr, node


def _random_makers(module: Path):
    """module.function of each call to `Random` in the module, named by
    its innermost enclosing `def`."""
    tree = ast.parse(module.read_text())
    defs = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for name, call in _calls(tree):
        if name == "Random":
            owners = [d.name for d in defs if d.lineno <= call.lineno <= d.end_lineno]
            yield f"{module.stem}.{owners[-1] if owners else '<module>'}"


def test_only_sim_makes_a_seeded_generator():
    makers = [maker for module in sorted(PACKAGE.glob("*.py")) if module.stem != "sim"
              for maker in _random_makers(module)]
    assert makers == [], f"random.Random made outside sim: {makers}"
    assert list(_random_makers(PACKAGE / "sim.py")) == ["sim.run_accuracy_experiment"]


def test_every_option_is_passed_by_the_system():
    calls: dict[str, list[ast.Call]] = {}
    for path in _system_files():
        for name, call in _calls(ast.parse(path.read_text())):
            calls.setdefault(name, []).append(call)
    options, unpassed = 0, []
    for module in sorted(PACKAGE.glob("*.py")):
        for callee, label, param, keyword, index in _options(ast.parse(module.read_text())):
            options += 1
            if not any(_passes(call, keyword, index) for call in calls.get(callee, ())):
                unpassed.append(f"{module.stem}.{label}({param})")
    assert sorted(unpassed) == sorted(UNPASSED), f"passed by no system call: {sorted(set(unpassed) - set(UNPASSED))}"
    assert options == 16


def _dead_imports(path: Path):
    """(line, name) of each name the file imports and its code never
    reads. `import a.b` binds `a`."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        yield from ((node.lineno, name) for name in bound if name not in read)


def test_every_import_is_used():
    dead = [f"{path.relative_to(ROOT)}:{line} {name}"
            for folder in ("src", "tests", "perfbench") for path in sorted((ROOT / folder).rglob("*.py"))
            for line, name in _dead_imports(path)]
    assert dead == []


def test_the_package_root_binds_no_name():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    docstring = _docstrings(tree)
    assert [ast.unparse(node) for node in tree.body if id(getattr(node, "value", None)) not in docstring] == []


# every argument of each subcommand, by dest
CLI_ARGUMENTS = {
    # the key ceremony: vocabulary secrets and the agent key pair
    "setup": ["params", "vocab", "out_dir"],
    # a user's keyring for one zone; --out names the binary file it writes
    "register": ["params", "master", "keywords", "zone", "out"],
    # a user's index for one location; blinding elements draw from the OS; --out as register's
    "build-index": ["params", "keyring", "location", "out"],
    # seal and upload a meta record; the zone comes from the index
    "upload": ["params", "index", "mi", "agent_pub", "server", "receipt"],
    # one keyword or several; the agent key comes from the master secrets; lines on stdout only
    "search": ["params", "master", "keywords", "location", "zone", "server"],
    # prune one keyword of an uploaded record and update the index
    "remove": ["params", "keyring", "index", "keyword", "location", "receipt", "server"],
    # the server, which makes new zones' stores and saves every store on SIGINT or SIGTERM
    "serve": ["params", "listen", "store_dir", "zone"],
    # the closed forms at one parameter set; lines on stdout only
    "analyze": ["params", "t"],
    # the blinding-overlap sweep, seeded; CSV on stdout only
    "simulate-overlap": ["params", "oe", "trials", "seed"],
    # the overflow sweep over beta at a fixed t, or over t, seeded; CSV on stdout only
    "simulate-overflow": ["params", "t", "betas", "ts", "trials", "seed"],
    # recall and precision through the whole stack, seeded; lines on stdout only
    "simulate-accuracy": ["params", "t", "seed"],
    # read a snapshot; nothing but serve writes one
    "snapshot": ["file"],
}


def test_the_command_line_takes_exactly_these_arguments():
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    arguments = {name: [a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)]
                 for name, sub in subcommands.items()}
    assert arguments == CLI_ARGUMENTS
    assert (len(arguments), sum(map(len, arguments.values()))) == (12, 51)
