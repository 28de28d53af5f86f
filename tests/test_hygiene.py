"""Leftovers the interpreter does not report: a module-level import that its
module never uses, a module-level private name that nothing in the
package uses, a module-level helper in ``tests/`` that no test calls, all
read from the source with ``ast``, and a source line longer than MAX_LINE
characters. Also read with ``ast``: the oracle's imports from the package,
which keep it an independent reference, and the modules that importing
the package would load, which leave out ``dataclasses`` and ``typing``.
Counted at run time: the ``compile`` calls of a table's set-up and of its
first refined-series call."""

import ast
import pathlib

import cef
import cef.coefficients

PACKAGE = pathlib.Path(cef.__file__).parent
MAX_LINE = 99
SOURCES = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
TREES = {name: ast.parse(text, name) for name, text in SOURCES.items()}
TEST_TREES = {path.name: ast.parse(path.read_text(), path.name)
              for path in sorted(pathlib.Path(__file__).parent.glob("*.py"))}


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


def called_names(tree: ast.AST) -> set[str]:
    """The names and attributes called anywhere in the tree."""
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return called


def is_fixture(node: ast.FunctionDef) -> bool:
    """Decorated with ``pytest.fixture``, bare or called."""
    return any(isinstance(target := getattr(d, "func", d), ast.Attribute)
               and target.attr == "fixture" for d in node.decorator_list)


def test_every_test_helper_is_called():
    called = set().union(*(called_names(tree) for tree in TEST_TREES.values()))
    uncalled = [f"{name}: {node.name}" for name, tree in TEST_TREES.items()
                for node in tree.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("test_")
                and not is_fixture(node) and node.name not in called]
    assert not uncalled, uncalled


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


def import_time_modules(tree: ast.Module) -> set[str]:
    """The top-level names of the modules a module imports outside any
    function body, so when it is itself imported; relative imports are left out."""
    modules, pending = set(), list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            modules.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.add(node.module.partition(".")[0])
        pending.extend(ast.iter_child_nodes(node))
    return modules


def test_no_module_imports_dataclasses_or_typing():
    # _Record imports FrozenInstanceError in the body of the methods that raise it
    found = [f"{name}: {module}" for name, tree in TREES.items()
             for module in sorted(import_time_modules(tree) & {"dataclasses", "typing"})]
    assert not found, found


def test_a_table_compiles_two_functions(monkeypatch):
    # the set-up budget: the build compiles _common_part alone, which every
    # route needs; _refined_sum, which only the routes below y_switch close,
    # compiles on its first access, once
    sources = []

    def counting_compile(source, *args):
        sources.append(source.partition("(")[0])
        return compile(source, *args)

    monkeypatch.setattr(cef.coefficients, "compile", counting_compile, raising=False)
    table = cef.build_coefficients(cef.SeriesParams())
    assert sources == ["def _common_part"]
    assert set(vars(table)) == {"params", "a", "_common_part"}
    assert cef.w_adaptive(3 + 2j, table).path is cef.Path.COMMON_ONLY
    assert cef.w_cr(3 + 2j, table) and "_refined_sum" not in vars(table)
    refined_sum = table._refined_sum
    assert sources == ["def _common_part", "def _refined_sum"]
    assert vars(table)["_refined_sum"] is refined_sum is table._refined_sum
    cef.w_refined(3 + 0.2j, table)
    assert cef.w_adaptive(3 + 0.2j, table).path is cef.Path.FULL_DECOMPOSITION
    assert len(sources) == 2
