"""Leftovers the interpreter does not report: a module-level import that its
module never uses, a module-level private name that nothing in the
package uses, both read from the source with ``ast``, and a source line
longer than MAX_LINE characters. Also read with ``ast``: the oracle's
imports from the package, which keep it an independent reference."""

import ast
import pathlib

import cef

PACKAGE = pathlib.Path(cef.__file__).parent
MAX_LINE = 99
SOURCES = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
TREES = {name: ast.parse(text, name) for name, text in SOURCES.items()}


def used_names(tree: ast.AST) -> set[str]:
    """Names read, attributes taken and the entries of ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_every_module_level_import_is_used():
    unused = []
    for name, tree in TREES.items():
        if name == "__init__.py":
            continue
        used = used_names(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused, unused


def module_level_private_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_module_level_private_name_is_used():
    used = set().union(*(used_names(tree) for tree in TREES.values()))
    unused = [f"{name}: {private}" for name, tree in TREES.items()
              for private in sorted(module_level_private_names(tree) - used)]
    assert not unused, unused


def test_no_line_is_longer_than_max_line():
    long_lines = [f"{name}:{number}: {len(line)}" for name, text in SOURCES.items()
                  for number, line in enumerate(text.splitlines(), 1)
                  if len(line) > MAX_LINE]
    assert not long_lines, long_lines


def package_imports(tree: ast.AST) -> set[str]:
    """The package modules a module imports, at any depth of its source;
    "cef" stands for the package itself."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            prefix = ("cef." if node.level else "") + (f"{node.module}." if node.module else "")
            dotted = [prefix + alias.name for alias in node.names]
        else:
            continue
        for name in dotted:
            top, _, rest = name.partition(".")
            if top == "cef":
                modules.add(rest.partition(".")[0] or "cef")
    return modules


def test_oracle_imports_nothing_from_the_kernels_it_checks():
    # the oracle is a reference for the series kernels only while it shares
    # no code with them: the errors module holds the rule they share
    assert package_imports(TREES["oracle.py"]) <= {"coefficients", "errors"}
