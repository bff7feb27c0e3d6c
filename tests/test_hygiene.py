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


def unused_symbols():
    """`file: name` for every top-level symbol of src/fedrec that nothing in
    src/, tests/ or perfbench/ reads outside its own definition."""
    files = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(), str(p)) for p in files}
    refs = {
        p: references(t, foreign=frozenset() if SRC in p.parents else foreign_names(t))
        for p, t in trees.items()
    }
    found = []
    for path in sorted(SRC.glob("*.py")):
        elsewhere = set().union(*(r for q, r in refs.items() if q != path))
        for name, node in top_level_nodes(trees[path]):
            if name not in elsewhere and name not in references(trees[path], skip=node):
                found.append(f"{path.name}: {name}")
    return found


def test_no_unused_top_level_symbols():
    assert unused_symbols() == []


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
