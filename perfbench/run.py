#!/usr/bin/env python3
"""fedrec benchmark: one workload per process.

    python3 perfbench/run.py --workload a4 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src. With
``--trace 0`` the run installs no instrumentation and reports the end-to-end
metrics, timed in host-speed-adjusted seconds (speedclock.py; the plain wall
times go on the details line); with ``--trace 1`` it times one untraced
unit, then traces one unit through the package's public functions and
reports the per-layer metrics.

Output: a ``provenance`` line, a ``details`` line, and as the last line the
result object ``{"correct", "attempted", "failed", "metrics"}``. Exit code 0
only when every checked operation succeeded.
"""
import os

# One BLAS thread, fixed before numpy loads.
THREAD_ENV = {
    k: "1"
    for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import host  # noqa: E402
from speedclock import SpeedClock, WallClock  # noqa: E402
from tracer import Tracer, per_layer_metrics, unit_of  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# prepare_dataset runs at least SETUP_REPS times and until SETUP_MIN_S have
# passed; setup_s is the median
SETUP_REPS = 5
SETUP_MIN_S = 2.0
# a round-time tail percentile needs this many rounds above it
TAIL_ABOVE = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "round_s_p50": "s",
    "round_s_tail": "s",
    "peak_rss_mb": "MB",
    "test_auc": "1",
}


def tail(values):
    """(value, percentile) of the highest percentile that still has
    TAIL_ABOVE samples above it; the maximum when there are too few."""
    xs = sorted(values)
    k = len(xs) - TAIL_ABOVE
    if k < 1:
        return xs[-1], 100.0
    return xs[k - 1], 100.0 * k / len(xs)


class Checker:
    """Counts operations and the ones that failed: raised, produced a
    non-finite number, or gave a deterministic output that differs from the
    first one seen for the same key at this seed."""

    def __init__(self, reference=None):
        self.attempted = 0
        self.failed = 0
        self.first = {}
        self.reference = reference or {}
        self.problems = []

    def fail(self, op, why):
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{op}: {why}")

    def check(self, op, value, expect=None):
        """`value` is the operation's deterministic output (JSON-able)."""
        self.attempted += 1
        why = None
        if not _finite(value):
            why = f"non-finite output {value!r}"
        elif expect is not None and value != expect:
            why = f"expected {expect!r}, got {value!r}"
        else:
            ref = self.first.setdefault(op, self.reference.get(op, value))
            if ref != value:
                why = f"output {value!r} differs from the first run's {ref!r}"
        if why:
            self.failed += 1
            self.problems.append(f"{op}: {why}")


def _finite(v):
    if isinstance(v, float):
        return math.isfinite(v)
    if isinstance(v, (list, tuple)):
        return all(_finite(x) for x in v)
    if isinstance(v, dict):
        return all(_finite(x) for x in v.values())
    return v is not None


def dataset_digest(ds):
    h = hashlib.sha256()
    for r in ds.interactions:
        h.update(f"{r.user},{r.item},{r.ts},{r.label},{r.split};".encode())
    return h.hexdigest()


def unit_ops(w, out):
    """The deterministic outputs of one unit, keyed by operation."""
    ops = {"pretrain": out["pretrain_loss"]}
    for arm in w.arms:
        a = out[arm]
        ops[arm] = {"test_auc": a["test_auc"], "val_auc": a["val_auc"],
                    "uploaded_per_client": a["uploaded_per_client"]}
    if not w.federated:
        ops["distill"] = {"loss": out["distill_loss"], "params": out["student_params"]}
        ops["eval"] = {"teacher_auc": out["teacher_auc"], "student_auc": out["student_auc"]}
    return ops


def check_unit(checker, w, out):
    for op, value in unit_ops(w, out).items():
        checker.check(op, value)
    if w.upload_scalars:
        checker.check("fedpa.upload_closed_form",
                      sorted(set(out["fedpa"]["uploaded_per_client"])),
                      expect=[w.upload_scalars])


def run_setup(checker, experiment, cfg):
    """Returns the dataset and each repetition's (start, end) window."""
    windows, ds = [], None
    while len(windows) < SETUP_REPS or sum(b - a for a, b in windows) < SETUP_MIN_S:
        ds = None
        gc.collect()
        t0 = time.perf_counter()
        ds, _report = experiment.prepare_dataset(cfg)
        windows.append((t0, time.perf_counter()))
        checker.check("prepare_dataset", dataset_digest(ds))
    return ds, windows


def run_units(checker, w, cfg, ds, aux, seconds):
    """Repeat the workload's unit while another one fits in `seconds`;
    always at least one."""
    units = []
    t_begin = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        out = w.unit(cfg, ds, aux)
        out["window"] = (t0, time.perf_counter())
        check_unit(checker, w, out)
        units.append(out)
        if time.perf_counter() - t_begin + (out["window"][1] - t0) > seconds:
            return units


def timings(w, cfg, clock, setup_windows, units):
    """The timed end-to-end metrics on `clock`: medians over set-up
    repetitions and over units; round metrics per unit, then the median."""
    per_unit = [w.round_seconds(cfg, u, clock) for u in units]
    return {
        "setup_s": statistics.median(clock.span(*s) for s in setup_windows),
        "wall_s": statistics.median(clock.span(*u["window"]) for u in units),
        "round_s_p50": statistics.median(statistics.median(r) for r in per_unit),
        "round_s_tail": statistics.median(tail(r)[0] for r in per_unit),
    }


def end_to_end(w, cfg, clock, setup_windows, units):
    first = units[0]  # outputs other than times are equal across units
    metrics = {
        **timings(w, cfg, clock, setup_windows, units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_auc": first["fedpa"]["test_auc"] if w.federated else first["student_auc"],
    }
    rounds = w.round_seconds(cfg, first, WallClock)
    details = {
        "units": len(units),
        "wall_clock": timings(w, cfg, WallClock, setup_windows, units),
        "speed": clock.summary(),
        "wall_s_all": [WallClock.span(*u["window"]) for u in units],
        "stages_s": [{k: b - a for k, (a, b) in u["stages"].items()} for u in units],
        "round_s_tail_percentile": tail(rounds)[1],
        "round_samples_per_unit": len(rounds),
    }
    if "no_adapter" in first:
        details["auc_margin"] = first["fedpa"]["test_auc"] - first["no_adapter"]["test_auc"]
    if w.federated:
        details["upload_scalars_per_client"] = first["fedpa"]["uploaded_per_client"][0]
    else:
        details["teacher_auc"] = first["teacher_auc"]
    return metrics, details


def check_closed_forms(checker, w, cfg, tr):
    """Traced counts against the config's closed forms. A check whose spans
    are absent from the package is skipped; the absence is reported."""
    cf = w.closed_form(cfg)
    arm = "experiment.run_arm" if w.federated else None

    def count(op, span, under, expect, per=None):
        if not {span, under, per} & set(tr.absent):
            n = len(w.arms) if per else 1
            checker.check(op, tr.count_under(span, under, per=per), expect=[expect] * n)

    clt = "federation.client_local_train"
    count("trace.client_local_train_calls", clt, clt,
          cf.get("client_local_train_calls_per_arm", 0), per=arm)
    if w.federated:
        count("trace.local_sgd_steps", "model.sgd_step", clt, cf["local_sgd_steps_per_arm"], per=arm)
    else:
        count("trace.distill_steps", "model.sgd_step", "distill.distill", cf["distill_steps"])
    count("trace.pretrain_steps", "model.sgd_step", "federation.pretrain", cf["pretrain_steps"])


def traced_run(checker, w, cfg, ds, aux, workloads_module, experiment, trace_path):
    """One untraced unit, then one traced set-up and unit."""
    gc.collect()
    t0 = time.perf_counter()
    plain = w.unit(cfg, ds, aux)
    untraced = time.perf_counter() - t0
    check_unit(checker, w, plain)

    tr = Tracer()
    tr.install(extra_modules=[workloads_module])
    try:
        traced_ds, _ = experiment.prepare_dataset(cfg)
        checker.check("prepare_dataset", dataset_digest(traced_ds))
        first_unit_span = len(tr.names)
        gc.collect()
        t0 = time.perf_counter()
        out = w.unit(cfg, ds, aux)
        traced = time.perf_counter() - t0
    finally:
        tr.restore()
    check_unit(checker, w, out)
    check_closed_forms(checker, w, cfg, tr)

    metrics = tr.summary(first_unit_span)
    metrics["trace.wall_s"] = traced
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tr.write(trace_path)
    details = {"absent": tr.absent, "trace_file": os.path.relpath(trace_path, ROOT)}
    return {k: metrics[k] for k in per_layer_metrics()}, details


def load_reference(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fedrec", "__init__.py")):
        print(f"error: no fedrec package under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import fedrec
    import workloads
    from fedrec import experiment

    if not os.path.abspath(fedrec.__file__).startswith(SRC + os.sep):
        print(f"error: fedrec imported from {fedrec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; valid: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    load0, ticks0 = host.loadavg(), host.cpu_ticks()
    prov = host.provenance(ROOT, SRC, THREAD_ENV)
    w = workloads.WORKLOADS[args.workload]
    cfg = w.config(args.seed)
    tag = f"{w.name}-seed{args.seed}"
    ref_path = os.path.join(OUT_DIR, f"ref-{tag}-{prov['source_sha256'][:16]}.json")
    checker = Checker(load_reference(ref_path))

    metrics, details = {}, {}
    try:
        if args.trace:
            ds, _ = run_setup(checker, experiment, cfg)
            metrics, details = traced_run(
                checker, w, cfg, ds, w.aux(ds), workloads, experiment,
                os.path.join(OUT_DIR, f"trace-{tag}.json.gz"),
            )
        else:
            with SpeedClock() as clock:
                ds, setup_windows = run_setup(checker, experiment, cfg)
                units = run_units(checker, w, cfg, ds, w.aux(ds), args.seconds)
            metrics, details = end_to_end(w, cfg, clock, setup_windows, units)
    except Exception:  # the benchmark's boundary: report the failed operation
        traceback.print_exc()
        checker.fail("run", "raised")

    if checker.failed == 0:
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(ref_path, "w") as fh:
            json.dump({**checker.reference, **checker.first}, fh)
    for p in checker.problems:
        print(f"FAILED {p}", file=sys.stderr)

    details["failed_ops_frac"] = checker.failed / checker.attempted
    prov["loadavg_start"], prov["loadavg_end"] = load0, host.loadavg()
    prov["steal_share"] = host.steal_share(ticks0, host.cpu_ticks())
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"details": {"workload": w.name, "seed": args.seed, **details}}))

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            k: {"value": v, "unit": unit_of(k) if args.trace else END_TO_END[k]}
            for k, v in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
