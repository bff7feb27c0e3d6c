"""Host and provenance block attached to every benchmark result.

Everything here only reads: /proc files, module versions and the checkout's
own files.
"""
from __future__ import annotations

import hashlib
import os
import platform
import sys
from typing import Dict, List, Optional


def _read(path: str) -> Optional[str]:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def loadavg() -> Optional[List[float]]:
    text = _read("/proc/loadavg")
    return [float(x) for x in text.split()[:3]] if text else None


def cpu_ticks() -> Optional[List[int]]:
    """Aggregate jiffies from the first line of /proc/stat: user, nice,
    system, idle, iowait, irq, softirq, steal."""
    text = _read("/proc/stat")
    if not text:
        return None
    return [int(x) for x in text.splitlines()[0].split()[1:9]]


def steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> Optional[float]:
    """Share of all CPU ticks between two snapshots that the hypervisor stole."""
    if not before or not after:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def git_commit(root: str) -> str:
    """HEAD commit read from .git without running git; 'none' outside a repo."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return "none"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(root, ".git", ref))
    if commit:
        return commit.strip()
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def source_digest(src_dir: str) -> str:
    """SHA-256 over the package's .py files, so a result names the code it
    measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def blas_info(np_module) -> Dict[str, str]:
    try:
        blas = np_module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": str(blas.get("name")), "version": str(blas.get("version"))}
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown", "version": "unknown"}


def provenance(root: str, src_dir: str, thread_env: Dict[str, str]) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(numpy),
        "thread_env": thread_env,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src_dir),
    }
