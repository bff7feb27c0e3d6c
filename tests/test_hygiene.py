"""Static checks on the package source."""
import ast
import pathlib

from fedrec.experiment import CLI_KEYS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fedrec"


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
