"""Outside-in span tracer for the fedrec package.

The tracer wraps public functions of the package from outside: each wrapper
replaces the original at every place a ``fedrec`` module (or another module
handed to ``install``) holds it, so calls that one module makes into another
are seen too. ``restore`` puts the originals back.

A span records its name, start, end and parent span, plus the federated round
in progress (taken from ``select_clients``' ``round_index``). Spans are kept
in memory and written out by ``write``. A span's self time is its duration
minus the time its child spans cover; spans nest strictly in this
single-threaded program, so that is the duration minus the children's
durations.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence

import numpy as np

# span name -> (defining module, attribute). The span name's first part is the
# layer: prepare_dataset lives in fedrec.experiment but is the data layer's
# entry point.
TARGETS = {
    "data.prepare_dataset": ("fedrec.experiment", "prepare_dataset"),
    "data.synth_generate": ("fedrec.data", "synth_generate"),
    "data.split_pretrain_federated": ("fedrec.data", "split_pretrain_federated"),
    "data.split_per_user_chronological": ("fedrec.data", "split_per_user_chronological"),
    "data.sample_negatives": ("fedrec.data", "sample_negatives"),
    "model.forward_batch": ("fedrec.model", "forward_batch"),
    "model.backward_batch": ("fedrec.model", "backward_batch"),
    "model.sgd_step": ("fedrec.model", "sgd_step"),
    "federation.pretrain": ("fedrec.federation", "pretrain"),
    "federation.pretrain_examples": ("fedrec.federation", "pretrain_examples"),
    "federation.warm_start": ("fedrec.federation", "warm_start"),
    "federation.build_clients": ("fedrec.federation", "build_clients"),
    "federation.select_clients": ("fedrec.federation", "select_clients"),
    "federation.client_local_train": ("fedrec.federation", "client_local_train"),
    "federation.aggregate": ("fedrec.federation", "aggregate"),
    "federation.evaluate_global": ("fedrec.federation", "evaluate_global"),
    "federation.run_federated": ("fedrec.federation", "run_federated"),
    "privacy.noise_upload": ("fedrec.privacy", "noise_upload"),
    "metrics.auc": ("fedrec.metrics", "auc"),
    "metrics.precision": ("fedrec.metrics", "precision"),
    "distill.distill": ("fedrec.distill", "distill"),
    "experiment.run_arm": ("fedrec.experiment", "run_arm"),
}

# model.* spans are also keyed by the nearest enclosing span of these
CONTEXTS = {
    "pretrain": "federation.pretrain",
    "client_local_train": "federation.client_local_train",
    "distill": "distill.distill",
    "evaluate_global": "federation.evaluate_global",
}
MODEL_FNS = ("forward_batch", "backward_batch", "sgd_step")

COUNTERS = (
    "federation.sgd_steps",
    "model.train_rows",
    "privacy.noised_scalars",
    "federation.aggregate.scalars_in",
    "federation.evaluate_global.auc_valid_frac",
)
TRACE_METRICS = (
    "trace.wall_s",
    "trace.untraced_wall_s",
    "trace.overhead_s",
    "trace.self_s_sum",
    "trace.spans",
    "trace.absent",
)


def per_layer_metrics() -> List[str]:
    """Every per-layer metric name, in report order."""
    names = [f"{span}.{k}" for span in TARGETS for k in ("calls", "s", "self_s")]
    names += [
        f"model.{fn}.{ctx}.{k}" for fn in MODEL_FNS for ctx in CONTEXTS for k in ("calls", "s")
    ]
    return names + list(COUNTERS) + list(TRACE_METRICS)


def unit_of(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("_frac"):
        return "1"
    if metric.endswith("_rows"):
        return "rows"
    if "scalars" in metric:
        return "scalars"
    return "count"


@functools.lru_cache(maxsize=None)
def _position(fn, name: str) -> int:
    return list(inspect.signature(fn).parameters).index(name)


def _arg(fn, name: str, args, kwargs):
    """Argument `name` of a call to `fn`, passed by position or keyword."""
    pos = _position(fn, name)
    return args[pos] if pos < len(args) else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.parent: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.round: List[int] = []
        self.absent: List[str] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._round = -1
        self._patches: List[tuple] = []

    # -- installation ----------------------------------------------------

    def install(self, extra_modules: Sequence[object] = ()):
        for mod_name, _ in TARGETS.values():
            try:
                importlib.import_module(mod_name)
            except ImportError:
                pass
        modules = [m for n, m in sys.modules.items() if n == "fedrec" or n.startswith("fedrec.")]
        modules += list(extra_modules)
        for span, (mod_name, attr) in TARGETS.items():
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def _wrap(self, span: str, fn):
        before = getattr(self, "_before_" + span.split(".")[-1], None)
        after = getattr(self, "_after_" + span.split(".")[-1], None)
        stack, names, parent, start, end, rounds = (
            self._stack, self.names, self.parent, self.start, self.end, self.round
        )

        def wrapper(*args, **kwargs):
            if before is not None:
                before(fn, args, kwargs)
            idx = len(names)
            names.append(span)
            parent.append(stack[-1] if stack else -1)
            rounds.append(self._round)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(fn, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters taken at the layer boundaries ----------------------------

    def _before_select_clients(self, fn, args, kwargs):
        self._round = int(_arg(fn, "round_index", args, kwargs))

    def _after_run_federated(self, fn, args, kwargs, out):
        self._round = -1

    def _after_backward_batch(self, fn, args, kwargs, out):
        self.counts["model.train_rows"] += len(_arg(fn, "labels", args, kwargs))

    def _after_noise_upload(self, fn, args, kwargs, out):
        if _arg(fn, "config", args, kwargs).enabled:
            self.counts["privacy.noised_scalars"] += out.n_scalars

    def _before_aggregate(self, fn, args, kwargs):
        uploads = _arg(fn, "uploads", args, kwargs)
        self.counts["federation.aggregate.scalars_in"] += sum(
            u.n_scalars for u in uploads if not u.skipped
        )

    def _after_evaluate_global(self, fn, args, kwargs, out):
        self.counts["eval.clients"] += out.n_clients
        self.counts["eval.auc_valid"] += out.n_auc_valid

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        names = np.array(self.names, dtype=object)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return names, dur, dur - child

    def nearest(self, span_names: Sequence[str]) -> np.ndarray:
        """Index of each span's nearest enclosing-or-self span among
        `span_names` (-1 if none). Parents precede children in the list."""
        out = np.full(len(self.names), -1, dtype=np.int64)
        wanted = set(span_names)
        for i, (name, p) in enumerate(zip(self.names, self.parent)):
            out[i] = i if name in wanted else (out[p] if p >= 0 else -1)
        return out

    def summary(self, first_unit_span: int = 0) -> Dict[str, float]:
        """Per-layer metrics; trace.self_s_sum covers spans from index
        `first_unit_span` on, the timed unit."""
        names, dur, self_s = self.arrays()
        out: Dict[str, float] = {}
        for span in TARGETS:
            mask = names == span
            out[f"{span}.calls"] = int(mask.sum())
            out[f"{span}.s"] = float(dur[mask].sum())
            out[f"{span}.self_s"] = float(self_s[mask].sum())
        ctx = self.nearest(list(CONTEXTS.values()))
        ctx_name = np.array([self.names[c] if c >= 0 else "" for c in ctx], dtype=object)
        for fn in MODEL_FNS:
            is_fn = names == f"model.{fn}"
            for short, span in CONTEXTS.items():
                mask = is_fn & (ctx_name == span)
                out[f"model.{fn}.{short}.calls"] = int(mask.sum())
                out[f"model.{fn}.{short}.s"] = float(dur[mask].sum())
        out["federation.sgd_steps"] = out["model.sgd_step.client_local_train.calls"]
        out["model.train_rows"] = self.counts["model.train_rows"]
        out["privacy.noised_scalars"] = self.counts["privacy.noised_scalars"]
        out["federation.aggregate.scalars_in"] = self.counts["federation.aggregate.scalars_in"]
        clients = self.counts["eval.clients"]
        out["federation.evaluate_global.auc_valid_frac"] = (
            self.counts["eval.auc_valid"] / clients if clients else 0.0
        )
        out["trace.self_s_sum"] = float(self_s[first_unit_span:].sum())
        out["trace.spans"] = len(names)
        out["trace.absent"] = len(self.absent)
        return out

    def count_under(self, span: str, under: str, per: Optional[str] = None) -> List[int]:
        """Calls of `span` inside `under`, one count per `per` span (or one
        total when `per` is None)."""
        names = np.array(self.names, dtype=object)
        inside = (self.nearest([under]) >= 0) & (names == span)
        if per is None:
            return [int(inside.sum())]
        group = self.nearest([per])
        per_idx = np.flatnonzero(names == per)
        return [int((inside & (group == i)).sum()) for i in per_idx]

    def write(self, path: str):
        """Spans as columnar gzipped JSON; times are seconds from the first span."""
        t_origin = self.start[0] if self.start else 0.0
        kinds = sorted(set(self.names))
        code = {n: i for i, n in enumerate(kinds)}
        with gzip.open(path, "wt") as fh:
            json.dump(
                {
                    "span_names": kinds,
                    "name": [code[n] for n in self.names],
                    "parent": self.parent,
                    "round": self.round,
                    "start": [round(t - t_origin, 7) for t in self.start],
                    "end": [round(t - t_origin, 7) for t in self.end],
                    "absent": self.absent,
                },
                fh,
                separators=(",", ":"),
            )
