"""Mutation smoke run of the layout plan: do the model tests notice a one-point fault?

Each mutant changes one expression of one function of src/fedrec/model.py.
The function is found with the stdlib `ast`, the change must match exactly
once inside it, and the mutated module must parse and differ from the
original in its syntax tree. Each mutant is applied to a copy of the
repository in a temporary directory, where

    python -m pytest -x -q tests/test_model.py tests/test_layout.py tests/test_cohort.py

runs, one process at a time. A mutant whose run fails is killed; one whose
run passes survived, unless the list marks it equivalent (no input can tell
it from the original), with the reason. It prints one line per mutant and
the kill rate, and exits 0 only if no mutant that is not marked equivalent
survived.

    python tools/mutants.py            # every mutant
    python tools/mutants.py 3 7        # mutants 3 and 7 only
"""
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULE = os.path.join("src", "fedrec", "model.py")
TESTS = ("tests/test_model.py", "tests/test_layout.py", "tests/test_cohort.py")


class Mutant(NamedTuple):
    function: str                     # "name" or "Class.name"
    before: str                       # text found exactly once in the function
    after: str
    what: str
    equivalent: Optional[str] = None  # why no input can tell it apart


MUTANTS = (
    Mutant("_plan", "first + np.arange(C)[:, None, None] * step", "first + 0 * np.arange(C)[:, None, None] * step",
           "drop the per-client row offset: every client reads client 0's trained tables"),
    Mutant("_plan", "0 if tag == FROZEN else width // d", "width // d",
           "give the frozen piece a per-client row offset too"),
    Mutant("_plan", "for tag in (PRIVATE, SHARED, FROZEN):", "for tag in (FROZEN, PRIVATE, SHARED):",
           "put the frozen piece first in the source",
           "every offset (base, each trained piece's [start, stop), the count's length) is read off the "
           "same loop, so the source rows move together with the indices that read them"),
    Mutant("_plan", "-(-(cols[-1] + 1) // 8) * 8", "(cols[-1] + 1) // 8 * 8",
           "round the end of the layer-0 gradient span down where it rounds up"),
    Mutant("_plan", "if hi - lo == 1:", "if hi - lo == -1:",
           "keep a one-column span instead of widening it to every column"),
    Mutant("_plan", "on = [s for s, (t, _, _, _) in enumerate(slots) if t != FROZEN]",
           "on = [s for s, (t, _, _, _) in enumerate(slots)]",
           "count the frozen slots as live"),
    Mutant("_plan", "len(pieces) == 1 and (C == 1 or not trained)", "len(pieces) == 1",
           "read a cohort's one trained piece in place"),
    Mutant("_plan", "np.full(B, 1.0 / B)", "np.full(B, 1.0 / (B - 1))",
           "weigh each branch of a uniform gate 1/(B - 1)"),
    Mutant("_plan", "np.eye(B)[0]", "np.eye(B)[-1]",
           "put a common gate's one-hot on the last branch"),
    Mutant("_EmbedPlan.restack", "if self.source.flags.owndata:", "if False:",
           "skip restack: a copied source keeps the tables of the first step"),
    Mutant("_EmbedPlan.restack", "if self.source.flags.owndata:", "if not self.source.flags.owndata:",
           "invert restack's view test"),
    Mutant("_EmbedPlan.scatter_rows", "len(self.cols), out=out", "len(self.cols) + 1, out=out",
           "scatter each slot's gradient one column per row too far on"),
    Mutant("_embed_grads", "minlength=size", "minlength=0",
           "let the gradient count end at the last row a batch touched"),
    Mutant("_embed_grads", "weights=dX.ravel()", "weights=-dX.ravel()",
           "flip the sign of every embedding gradient"),
    Mutant("_embed_grads", "for _, start, stop, grad in emb.trained:", "for _, start, stop, grad in emb.trained[:1]:",
           "write only the first trained piece's gradient"),
    Mutant("_layer_branches", "lp.weights.shape", "lp.weights[:1].shape",
           "broadcast only the fixed gate's first weight over every branch"),
    Mutant("ParamSet.from_vectors", "if np.ndim(frozen) != 1:", "if False:",
           "accept a frozen vector with a client axis"),
)


def _span(tree: ast.Module, function: str):
    """(first line, last line) of `function`, a module function or a method."""
    *owner, name = function.split(".")
    body = tree.body
    if owner:
        body = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == owner[0]).body
    node = next(n for n in body if isinstance(n, ast.FunctionDef) and n.name == name)
    return node.lineno, node.end_lineno


def mutate(source: str, mutant: Mutant) -> str:
    """`source` with the mutant's one change, or ValueError."""
    tree = ast.parse(source)
    first, last = _span(tree, mutant.function)
    lines = source.splitlines(keepends=True)
    body = "".join(lines[first - 1 : last])
    if body.count(mutant.before) != 1:
        raise ValueError(f"{mutant.before!r} occurs {body.count(mutant.before)} times in {mutant.function}")
    out = "".join(lines[: first - 1]) + body.replace(mutant.before, mutant.after) + "".join(lines[last:])
    if ast.dump(ast.parse(out)) == ast.dump(tree):
        raise ValueError(f"mutant of {mutant.function} does not change the syntax tree")
    return out


def run(mutant: Mutant, source: str) -> bool:
    """Whether the tests fail on a copy of the repository carrying `mutant`."""
    with tempfile.TemporaryDirectory(prefix="fedrec-mutant-") as tmp:
        for part in ("src", "tests", "pyproject.toml"):
            copy = shutil.copytree if os.path.isdir(os.path.join(ROOT, part)) else shutil.copy
            copy(os.path.join(ROOT, part), os.path.join(tmp, part))
        with open(os.path.join(tmp, MODULE), "w") as fh:
            fh.write(mutate(source, mutant))
        env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS],
                              cwd=tmp, env=env, capture_output=True, text=True)
    return proc.returncode != 0


def main(argv) -> int:
    with open(os.path.join(ROOT, MODULE)) as fh:
        source = fh.read()
    chosen = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    counts = dict.fromkeys(("killed", "SURVIVED", "equivalent"), 0)
    for i in chosen:
        mutant = MUTANTS[i - 1]
        start = time.perf_counter()
        verdict = "killed" if run(mutant, source) else "equivalent" if mutant.equivalent else "SURVIVED"
        counts[verdict] += 1
        print(f"{i:2d} {verdict:10s} {time.perf_counter() - start:5.1f} s  {mutant.function}: {mutant.what}",
              flush=True)
    scored = counts["killed"] + counts["SURVIVED"]
    print(f"killed {counts['killed']} of {scored} non-equivalent mutants; {counts['SURVIVED']} survived, "
          f"{counts['equivalent']} equivalent")
    return 0 if counts["SURVIVED"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
