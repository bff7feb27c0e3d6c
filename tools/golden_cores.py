"""Run the kernel-dependent tests under each x86-64 kernel core of numpy's OpenBLAS.

numpy's bundled OpenBLAS picks its kernel core when it loads, and
OPENBLAS_CORETYPE overrides the pick. tests/test_golden.py holds one set of
training values per core; this script shows that each core's set holds, and
that the properties comparing two paths on the same kernels (blocked
inference, the layer-0 column cut, `_row_sum`) hold on every core. It runs
those tests once under the default core and once under each override, one
process at a time, and prints per run the core that loaded (read through
ctypes, as the tests read it) and the pass and fail counts. It exits 0 only
if every run passes.

    python tools/golden_cores.py
"""
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OVERRIDES = (None, "Haswell", "Sandybridge")  # None: the core OpenBLAS picks itself
TESTS = (
    "tests/test_golden.py",
    "tests/test_model.py::TestBlockedInference",
    "tests/test_model.py::TestLayerZeroColumnCut",
    "tests/test_model.py::TestColumnReductions::test_row_sum_is_numpys_add_reduce",
    "tests/test_model.py::TestColumnReductions::test_row_of_negative_zeros_sums_to_positive_zero",
)
CORE = "import sys; sys.path[:0] = ['tests', 'src']; from helpers import kernel_core; print(kernel_core())"


def run(override):
    """(core name, passed, failed, exit code) of one pytest run of TESTS
    with OPENBLAS_CORETYPE set to `override` (unset for None)."""
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if override:
        env["OPENBLAS_CORETYPE"] = override
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    core = subprocess.run([sys.executable, "-c", CORE], cwd=ROOT, env=env, capture_output=True, text=True)
    tests = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    summary = tests.stdout.strip().splitlines()[-1] if tests.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", summary)}
    name = core.stdout.strip() or f"unreadable ({core.stderr.strip().splitlines()[-1:]})"
    return name, counts.get("passed", 0), counts.get("failed", 0) + counts.get("error", 0), tests.returncode


def main() -> int:
    ok = True
    for override in OVERRIDES:
        core, passed, failed, code = run(override)
        print(f"OPENBLAS_CORETYPE={override or '(unset)'}: core {core}, {passed} passed, {failed} failed")
        ok = ok and code == 0 and failed == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
