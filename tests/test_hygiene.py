"""Static checks on the package source."""
import ast
import pathlib
import sys

from fedrec.experiment import CLI_KEYS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fedrec"


def unused_imports(path):
    """`file:line: name` for every imported name the module never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names written in string annotations, e.g. -> "ParamSet"
    used |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in unused_imports(path)]
    assert found == []


def third_party_imports(path):
    """`file:line: module` for every import of a module that is neither
    numpy, the standard library nor the package itself."""
    tree = ast.parse(path.read_text(), str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            top = module.split(".")[0]
            if top not in sys.stdlib_module_names and top not in ("numpy", "fedrec"):
                hits.append(f"{path.name}:{node.lineno}: {module}")
    return hits


def test_only_numpy_and_stdlib_imports():
    # scipy and the rest are test-only dependencies (the `test` extra)
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in third_party_imports(path)] == []


def ufunc_at_calls(path):
    """`file:line: call` for every unbuffered ufunc scatter such as np.add.at."""
    tree = ast.parse(path.read_text(), str(path))
    return [
        f"{path.name}:{node.lineno}: {ast.unparse(node.func)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "at"
    ]


def test_no_ufunc_at_scatter():
    # the model scatters embedding gradients with one np.bincount, several
    # times faster than np.add.at at its shapes; the per-table np.add.at
    # scatter lives on only as the oracle in tests/helpers.py
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in ufunc_at_calls(path)] == []


def top_level_nodes(tree):
    """(name, definition node) for each top-level function, class and
    assigned constant of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node


def foreign_names(tree):
    """Names a test or benchmark module binds at top level to something of
    its own (a definition, or an import from outside fedrec): its reads of
    such a name are not reads of a package symbol of the same name."""
    names = {name for name, _ in top_level_nodes(tree)}
    for node in tree.body:
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not (node.module or "").startswith("fedrec"):
            names |= {a.asname or a.name for a in node.names}
    return names


def references(tree, skip=None, foreign=frozenset()):
    """Names a syntax tree reads, variables (except `foreign` ones) and
    attributes, leaving out the subtree `skip`. A name spelled in a string,
    as the benchmark's tracer spells the functions it wraps, is no read."""
    hidden = set() if skip is None else {id(n) for n in ast.walk(skip)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in hidden:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in foreign:
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


# Symbols the package offers its users without reading them itself. Every
# other top-level symbol, method and property of src/fedrec must be read from
# src/ or perfbench/: one that only tests read is test code, and belongs in
# tests/helpers.py.
PUBLIC_API = frozenset({"model.py: predict"})


def defined_symbols(tree):
    """(name, definition node) for each top-level symbol of a module and
    each method and property of its top-level classes, dunders aside."""
    yield from top_level_nodes(tree)
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                method = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                if method and not node.name.startswith("__"):
                    yield node.name, node


def unused_symbols(root=ROOT):
    """`file: name` for every symbol of src/fedrec (see defined_symbols)
    that nothing in src/ or perfbench/ reads outside its own definition.
    A method counts as read wherever an attribute of its name is."""
    src = root / "src" / "fedrec"
    files = [p for d in ("src", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(), str(p)) for p in files}
    refs = {
        p: references(t, foreign=frozenset() if src in p.parents else foreign_names(t))
        for p, t in trees.items()
    }
    found = []
    for path in sorted(src.glob("*.py")):
        elsewhere = set().union(*(r for q, r in refs.items() if q != path))
        for name, node in defined_symbols(trees[path]):
            if name not in elsewhere and name not in references(trees[path], skip=node):
                found.append(f"{path.name}: {name}")
    return found


def test_no_unused_top_level_symbols():
    assert sorted(set(unused_symbols()) - PUBLIC_API) == []


def test_public_api_names_live_symbols():
    # a name on the list that the package no longer defines is a stale entry
    defined = {
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name, _ in defined_symbols(ast.parse(path.read_text()))
    }
    assert PUBLIC_API <= defined


def test_unused_symbol_check_flags_test_only_code(tmp_path):
    # a function and a method that only a test reads are both reported
    for d in ("src/fedrec", "perfbench", "tests"):
        (tmp_path / d).mkdir(parents=True)
    (tmp_path / "src/fedrec/mod.py").write_text(
        "def used():\n    return Box().size()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "class Box:\n    def size(self):\n        return 2\n\n    def tiles(self):\n        return 3\n"
    )
    (tmp_path / "perfbench/run.py").write_text("from fedrec.mod import used\n\nused()\n")
    (tmp_path / "tests/test_mod.py").write_text(
        "from fedrec.mod import Box, helper\n\nhelper()\nBox().tiles()\n"
    )
    assert unused_symbols(tmp_path) == ["mod.py: helper", "mod.py: tiles"]


def test_cli_reads_exactly_the_declared_cli_keys():
    # ExperimentConfig.from_dict rejects undeclared keys, so a key that
    # cli.py reads but CLI_KEYS lacks could never be set
    tree = ast.parse((SRC / "cli.py").read_text())
    read = {
        node.args[1].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "").startswith("cfg_")
        and isinstance(node.args[1], ast.Constant)
    }
    assert read == set(CLI_KEYS)
