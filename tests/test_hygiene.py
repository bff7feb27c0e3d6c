"""Static checks on the package source."""
import ast
import dataclasses
import pathlib
import sys

from fedrec.data import SynthConfig
from fedrec.distill import DistillConfig
from fedrec.experiment import ARMS, KEYS, ExperimentConfig

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


# The functions a training step runs through. np.sum, np.mean, np.max and
# np.min each put Python wrapper calls in front of the ufunc reduction: in a
# cProfile of one central_wide benchmark unit (37,520 steps) the step's
# 93,800 np.sum calls took 0.88 s of 7.3 s, 0.56 s of it in the wrappers. A
# step calls np.add.reduce (np.maximum.reduce, ...) directly.
STEP_FUNCTIONS = frozenset({
    "_row_sum", "_softmax", "_layer_branches", "_forward", "forward_batch", "backward_batch",
    "_input_grad", "_embed_grads", "sgd_step", "sgd_epochs", "_epoch_loss",
})
WRAPPED_REDUCTIONS = frozenset({"np.sum", "np.mean", "np.max", "np.min"})


def calls_in(path, functions, hit):
    """`file:line: call` for every call `hit` flags in a top-level function
    named in `functions`, and `file: name undefined` for each such function
    the module does not define."""
    tree = ast.parse(path.read_text(), str(path))
    defined = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in functions}
    hits = [f"{path.name}: {name} undefined" for name in sorted(set(functions) - set(defined))]
    for fn in defined.values():
        hits += [
            f"{path.name}:{node.lineno}: {ast.unparse(node.func)}"
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and hit(node)
        ]
    return hits


def wrapped_reductions(path, functions=STEP_FUNCTIONS):
    """Every wrapped reduction (WRAPPED_REDUCTIONS) that a step function
    calls; see calls_in."""
    return calls_in(path, functions, lambda call: ast.unparse(call.func) in WRAPPED_REDUCTIONS)


def test_step_calls_ufunc_reductions_directly():
    assert wrapped_reductions(SRC / "model.py") == []


def test_wrapped_reduction_check_flags_a_mutant(tmp_path):
    # the model with one step reduction put back to np.sum; a wrapped
    # reduction outside the step functions is no hit
    source = (SRC / "model.py").read_text()
    direct = "np.add.reduce(dC, axis=-2, out=gb)"
    assert source.count(direct) == 1
    mod = tmp_path / "model.py"
    mod.write_text(source.replace(direct, "np.sum(dC, axis=-2, out=gb)") + "\n\ndef report(x):\n    return np.mean(x)\n")
    line = next(i for i, text in enumerate(mod.read_text().splitlines(), 1) if "np.sum(dC" in text)
    assert wrapped_reductions(mod) == [f"model.py:{line}: np.sum"]
    assert wrapped_reductions(mod, STEP_FUNCTIONS | {"_gone"}) == ["model.py: _gone undefined", f"model.py:{line}: np.sum"]


# The gated layer's functions. Over a narrow last axis (the gate's 3 or 4
# branches, an 8-wide hidden layer) numpy's reduction runs its loop once per
# row. On a4's (100, 16, 3) gate logits (2-vCPU Xeon, numpy 2.4.6)
# np.maximum.reduce took 81 us and np.add.reduce 42 us, against 8 us for a
# chain of column maxima and 9 us for model._row_sum; at width 8, 43 us
# against 16 us. These functions reduce along the last axis with column
# operations and fill arrays in place of np.stack.
ROW_LOOP_FREE = frozenset({"_softmax", "_layer_branches", "backward_batch"})


def is_row_loop(call):
    """Whether `call` is np.stack or a np.<ufunc>.reduce along axis -1."""
    func = ast.unparse(call.func)
    parts = func.split(".")
    axis = next((k.value for k in call.keywords if k.arg == "axis"), call.args[1] if len(call.args) > 1 else None)
    reduce = len(parts) == 3 and parts[0] == "np" and parts[2] == "reduce"
    return func == "np.stack" or (reduce and axis is not None and ast.unparse(axis) == "-1")


def row_loops(path, functions=ROW_LOOP_FREE):
    """Every np.stack and last-axis ufunc reduction a gated-layer function
    calls; see calls_in."""
    return calls_in(path, functions, is_row_loop)


def test_gated_layer_runs_no_row_loops():
    assert row_loops(SRC / "model.py") == []


def test_row_loop_check_flags_a_mutant(tmp_path):
    # the model with the gate's softmax max and sum and its branch gradients
    # put back to numpy's row reductions and np.stack; such calls outside the
    # gated layer's functions, or along another axis, are no hit
    source = (SRC / "model.py").read_text()
    mutations = {
        "np.exp(a - m[..., None])": "np.exp(a - np.maximum.reduce(a, axis=-1, keepdims=True))",
        "e / _row_sum(e)[..., None]": "e / np.add.reduce(e, -1)[..., None]",
        "dG = np.empty(G.shape)": "dG = np.stack([np.add.reduce(v * dZ, axis=-1) for v in c.V], axis=-1)",
    }
    for direct, row_loop in mutations.items():
        assert source.count(direct) == 1
        source = source.replace(direct, row_loop)
    mod = tmp_path / "model.py"
    mod.write_text(source + "\n\ndef report(x):\n    return np.stack([np.add.reduce(x, axis=-1)])\n")
    lines = mod.read_text().splitlines()
    softmax_max, softmax_sum, branch_grads = (
        next(i for i, text in enumerate(lines, 1) if row_loop in text) for row_loop in mutations.values()
    )
    assert sorted(row_loops(mod)) == sorted([
        f"model.py:{softmax_max}: np.maximum.reduce",
        f"model.py:{softmax_sum}: np.add.reduce",
        f"model.py:{branch_grads}: np.stack",
        f"model.py:{branch_grads}: np.add.reduce",
    ])
    assert row_loops(mod, ROW_LOOP_FREE | {"_gone"})[0] == "model.py: _gone undefined"


def row_object_uses(path):
    """`file:line: code` for every read of an `.interactions` attribute and
    every `Interaction(...)` call, outside the definition of the row view
    (the `interactions` property) itself."""
    tree = ast.parse(path.read_text(), str(path))
    view = {
        id(n)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "interactions"
        for n in ast.walk(node)
    }
    hits = []
    for node in ast.walk(tree):
        if id(node) in view:
            continue
        read = isinstance(node, ast.Attribute) and node.attr == "interactions" and isinstance(node.ctx, ast.Load)
        call = isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "Interaction"
        if read or call:
            hits.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return hits


def test_package_reads_interaction_columns_only():
    # the dataset's rows are int64 columns; `Dataset.interactions` builds
    # row objects for outside readers, and no code in the package uses them
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in row_object_uses(path)] == []


def test_row_object_check_flags_a_row_loop(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "class Dataset:\n    @property\n    def interactions(self):\n"
        "        return [Interaction(u) for u in self.user]\n\n\n"
        "def build(ds):\n    return [r.item for r in ds.interactions if r.split]\n\n\n"
        "def one():\n    return data.Interaction(0, 1, 2, 1)\n"
    )
    assert set(row_object_uses(mod)) == {"mod.py:8: ds.interactions", "mod.py:12: data.Interaction(0, 1, 2, 1)"}


def tensor_name_parsing(path):
    """`file:line: code` for every `.split("/"...)` call, which takes a
    tensor name apart, and every definition of OWN_GROUP, the placeholder
    group a cohort's adapters were once named under."""
    tree = ast.parse(path.read_text(), str(path))
    hits = []
    for node in ast.walk(tree):
        split = (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "split"
            and bool(node.args) and isinstance(node.args[0], ast.Constant) and node.args[0].value == "/"
        )
        own = isinstance(node, ast.Name) and node.id == "OWN_GROUP" and isinstance(node.ctx, ast.Store)
        if split or own:
            hits.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return hits


def test_package_never_parses_tensor_names():
    # a tensor's place is its layout entry; a cohort's own group adapters
    # are a segment of the layout, not a name to rewrite and take apart
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in tensor_name_parsing(path)] == []


def test_name_parsing_check_flags_a_mutant(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        'OWN_GROUP = "own"\n\n\n'
        "def real(name, g):\n    parts = name.split(\"/\", 4)\n    return parts[2], g\n\n\n"
        'def fine(path):\n    return path.split(",")\n'
    )
    assert tensor_name_parsing(mod) == ["mod.py:1: OWN_GROUP", "mod.py:5: name.split(\'/\', 4)"]


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


def package_imports(tree):
    """{local name: symbol} for each name a module imports from the package,
    as in `from .data import runs` or `from fedrec.model import Arch as A`."""
    return {
        a.asname or a.name: a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "fedrec")
        for a in node.names
    }


def references(tree, skip=None, imported=None):
    """Names a syntax tree reads, leaving out the subtree `skip`: every
    attribute, and every variable, or with `imported` (see package_imports)
    only the variables bound to a package symbol, as that symbol's name. A
    local variable that happens to share a symbol's name is then no read,
    nor is a name spelled in a string, as the benchmark's tracer spells the
    functions it wraps."""
    hidden = set() if skip is None else {id(n) for n in ast.walk(skip)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in hidden:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if imported is None or node.id in imported:
                names.add(node.id if imported is None else imported[node.id])
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


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
    A method counts as read wherever an attribute of its name is; a bare
    name in another module only where that module imports it from fedrec."""
    src = root / "src" / "fedrec"
    files = [p for d in ("src", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(), str(p)) for p in files}
    refs = {p: references(t, imported=package_imports(t)) for p, t in trees.items()}
    found = []
    for path in sorted(src.glob("*.py")):
        elsewhere = set().union(*(r for q, r in refs.items() if q != path))
        for name, node in defined_symbols(trees[path]):
            if name not in elsewhere and name not in references(trees[path], skip=node):
                found.append(f"{path.name}: {name}")
    return found


def test_no_unused_top_level_symbols():
    # every top-level symbol, method and property of src/fedrec is read from
    # src/ or perfbench/: one that only tests read is test code, and belongs
    # in tests/helpers.py
    assert unused_symbols() == []


def test_unused_symbol_check_flags_test_only_code(tmp_path):
    # a function and a method that only a test reads are both reported, and
    # so are a function and a property whose names only local variables of
    # another module share
    for d in ("src/fedrec", "perfbench", "tests"):
        (tmp_path / d).mkdir(parents=True)
    (tmp_path / "src/fedrec/mod.py").write_text(
        "def used():\n    return Box().size()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def count():\n    return 0\n\n\n"
        "class Box:\n    def size(self):\n        return 2\n\n    def tiles(self):\n        return 3\n\n"
        "    @property\n    def total(self):\n        return 4\n"
    )
    (tmp_path / "perfbench/run.py").write_text(
        "from fedrec.mod import used\n\nused()\n\n\n"
        "def share(delta):\n    total, count = sum(delta), len(delta)\n    return total / count\n"
    )
    (tmp_path / "tests/test_mod.py").write_text(
        "from fedrec.mod import Box, helper\n\nhelper()\nBox().tiles()\n"
    )
    assert unused_symbols(tmp_path) == ["mod.py: helper", "mod.py: count", "mod.py: tiles", "mod.py: total"]


def record_fields(tree):
    """(class, field) for each field of a module's top-level dataclasses
    and NamedTuples, except a config field that a `setting(...)` call
    declares: KEYS reads it by name, as the config's checks and `require`
    do."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        decorators = {ast.unparse(d.func if isinstance(d, ast.Call) else d) for d in cls.decorator_list}
        bases = {ast.unparse(b) for b in cls.bases}
        if decorators & {"dataclass", "dataclasses.dataclass"} or bases & {"NamedTuple", "typing.NamedTuple"}:
            for node in cls.body:
                if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
                    continue
                if not (isinstance(node.value, ast.Call) and ast.unparse(node.value.func) == "setting"):
                    yield cls.name, node.target.id


def unread_fields(root=ROOT):
    """`file: Class.field` for every field of a src/fedrec dataclass or
    NamedTuple whose name no attribute and no string constant in src/ or
    perfbench/ spells. A string counts because a field may be read by name;
    a keyword argument does not, so a field only ever built is reported."""
    files = [p for d in ("src", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    spelled = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                spelled.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                spelled.add(node.value)
    return [
        f"{path.name}: {cls}.{name}"
        for path in sorted((root / "src" / "fedrec").glob("*.py"))
        for cls, name in record_fields(ast.parse(path.read_text(), str(path)))
        if name not in spelled
    ]


def test_every_record_field_is_read():
    # a field that nothing reads still makes every constructor fill it
    assert unread_fields() == []


def test_unread_field_check_flags_build_only_fields(tmp_path):
    # a field only a constructor keyword sets, or only a test reads, is
    # reported; one read as an attribute in perfbench/, spelled in a string
    # or declared by `setting` is not, and neither is an annotated name of a
    # plain class
    for d in ("src/fedrec", "perfbench", "tests"):
        (tmp_path / d).mkdir(parents=True)
    (tmp_path / "src/fedrec/mod.py").write_text(
        "from dataclasses import dataclass\nfrom typing import NamedTuple\n\n\n"
        "@dataclass(frozen=True)\nclass Summary:\n    mean: float\n    n_valid: int\n    n_seen: int = 0\n"
        "    label: str = setting('score.label', str)\n\n\n"
        "class Scores(NamedTuple):\n    auc: float\n    kept: bool\n\n\n"
        "class Plain:\n    note: str\n\n\n"
        "KEYS = {'score.kept': 'kept'}\n\n\n"
        "def build(x):\n    return Summary(mean=x, n_valid=1), Scores(x, True).auc\n"
    )
    (tmp_path / "perfbench/run.py").write_text("from fedrec.mod import build\n\nprint(build(0.5)[0].mean)\n")
    (tmp_path / "tests/test_mod.py").write_text("from fedrec.mod import build\n\nassert build(1.0)[0].n_seen == 0\n")
    assert unread_fields(tmp_path) == ["mod.py: Summary.n_valid", "mod.py: Summary.n_seen"]


def unread_parameters(path):
    """`file:line: function(parameter)` for every parameter of a function or
    method of the module that its body, nested functions included, never
    reads; `self` and `cls` aside."""
    tree = ast.parse(path.read_text(), str(path))
    hits = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p is not None]
        read = {
            n.id for stmt in fn.body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread = [p for p in params if p not in read and p not in ("self", "cls")]
        hits += [f"{path.name}:{fn.lineno}: {fn.name}({p})" for p in unread]
    return hits


def test_every_parameter_is_read():
    # a parameter the body ignores still makes every caller build and pass it
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in unread_parameters(path)] == []


def test_unread_parameter_check_flags_a_mutant(tmp_path):
    # an ignored positional, keyword-only and starred parameter are reported;
    # one read only by a nested function is read, and an unread `self` is
    # no hit
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def step(ps, cache, labels, *, lr=0.1, **extra):\n    return cache, labels\n\n\n"
        "def outer(x, y):\n    def inner():\n        return x + 1\n    return inner, y\n\n\n"
        "class Box:\n    def size(self, *dims):\n        return 2\n"
    )
    assert unread_parameters(mod) == [
        "mod.py:1: step(ps)", "mod.py:1: step(lr)", "mod.py:1: step(extra)", "mod.py:12: size(dims)",
    ]


def test_every_config_field_has_exactly_one_key():
    # each field's default lives in its dataclass and is set by one KEYS row,
    # so a field no key sets, or two keys set, cannot slip in. A section's
    # fields are set at `<section>.<field>`; DistillConfig's seed is the
    # experiment's `seed`
    sections = {"synth": SynthConfig, "distill": DistillConfig}
    want = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in sections]
    want += [f"{name}.{f.name}" for name, section in sections.items() for f in dataclasses.fields(section)]
    want.remove("distill.seed")
    assert sorted(path for path, _, _ in KEYS.values()) == sorted(want)


def test_every_numeric_key_has_an_interval():
    unbounded = [key for key, (_, kind, interval) in KEYS.items()
                 if kind in (int, float, (int,)) and interval is None]
    assert unbounded == []


# str keys whose values no list can hold: file paths, and the names of the
# grouping attributes, which come from the dataset's schema
FREE_FORM_KEYS = frozenset({
    "data.users", "data.items", "data.interactions", "fed.init", "distill.teacher",
    "eval.checkpoint", "out", "group.attrs",
})


def test_every_str_key_lists_its_values_or_is_free_form():
    unlisted = {key for key, (_, kind, bound) in KEYS.items() if kind in (str, (str,)) and bound is None}
    assert unlisted == FREE_FORM_KEYS
    listed = [key for key, (_, kind, bound) in KEYS.items() if isinstance(bound, tuple)]
    assert all(KEYS[key][1] in (str, (str,)) for key in listed)
    # a new arm is checked at load like every other
    assert KEYS["fed.arm"][2] == KEYS["ablate.arms"][2] == tuple(ARMS)
