"""Time `fedrec synth` at the largest synthetic world the config allows.

It writes a config with `synth.n_users = synth.n_items = 100000` and every
other key at its default, runs `fedrec synth` on it in a fresh interpreter
in a temporary directory, and prints the wall time, the peak resident set
size of the child processes (`resource.getrusage`, which reports the
largest child) and the sha256 of each CSV file the command wrote. It exits
with the command's exit code.

    python tools/bound_run.py
"""
import hashlib
import os
import resource
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = "synth.n_users = 100000\nsynth.n_items = 100000\n"


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "bound.cfg")
        with open(cfg, "w") as fh:
            fh.write(CONFIG)
        out = os.path.join(tmp, "out")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "fedrec.cli", "synth", "--config", cfg, "--out", out], env=env)
        wall = time.perf_counter() - t0
        digests = {}
        for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # kB on Linux
    print(f"fedrec synth at 100000 users x 100000 items: exit {proc.returncode}, "
          f"wall {wall:.2f} s, peak RSS {peak_mb:.0f} MB")
    for name, digest in digests.items():
        print(f"{name} sha256 {digest}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
