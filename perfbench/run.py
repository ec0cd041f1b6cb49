"""Host-time benchmark of lightmesh, driven through its public API.

    python3 perfbench/run.py --workload rnnt-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

The load is a closed loop with one client: one thread sends the next
operation when the previous one returns, as a design-space script does.
Operations come in passes that cover every input class of the workload
once; the timed phase runs whole passes until --seconds of operation time
have been spent.  Output checks run between operations, outside the timed
region, and an operation fails when it raises or fails its check.

Every host time is scaled to a reference host speed by a speed probe
timed around each operation (see speed_probe); the unscaled figures are in
the details line.  --trace 0 reports the end-to-end metrics.  --trace 1
alternates untraced and traced passes and reports per-layer host time per
operation, taken by wrapping lightmesh's public functions from outside
(see tracer.py), plus the tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import os

# One BLAS thread, set before numpy loads: numpy's OpenBLAS otherwise starts
# one thread per core for svd/qr, and the load is one single-threaded client.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
CONFIG = HERE / "lightmesh_config.json"

# Bundled workload files each benchmark workload simulates.
WORKLOAD_FILES = {"rnnt-sweep": ("rnnt",),
                  "fine-trace": ("resnet50", "bertlarge"),
                  "mesh-mc": ()}
SETUP_PROBES = 9   # fresh processes timed for setup_s; the median is reported
WARMUP_OPS = 2     # untimed operations before the timed phase
TAIL_BEYOND = 10   # samples beyond the reported tail percentile
PROBE_REF_S = 0.030 # time per speed-probe kernel that host times are scaled to

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
# Shares of operation time spent in the layers each workload is meant to stress.
SHARES = {
    "share.timing_core": ("timing.workload_timelines", "timing.gemm_timeline",
                          "nonlinear.layer_nongemm_cycles", "workload.plan_tiles"),
    "share.trace_schedule": ("timing.build_memory_trace", "buffering.solve_schedule"),
    "share.program_tile": ("mesh.program_tile",),
}
BATCH_SEARCHES = {"buffering.max_batch", "buffering.double_buffering_batch"}


@dataclass(frozen=True)
class _Cell:
    a: int
    b: int
    c: float


def object_churn() -> None:
    """Frozen-dataclass copies and small tuples and dicts: the object churn
    of lightmesh's per-GEMM timing core and Givens loops."""
    cell, out = _Cell(1, 2, 3.0), []
    for i in range(8000):
        cell = replace(cell, a=i)
        out.append((cell.a + cell.b, {"c": cell.c}))


def array_passes() -> None:
    """Passes over 20001-point arrays like those of build_memory_trace."""
    import numpy as np
    edges = np.linspace(0.0, 1e6, 20001)
    breaks = np.linspace(1.0, 1e6 - 1.0, 400)
    for _ in range(6):
        grid = np.unique(np.concatenate([edges, breaks]))
        x = np.zeros_like(grid)
        for k in range(20):
            x += 3.0 * np.clip((grid - k * 1000.0) / 5e4, 0.0, 1.0) * (grid <= 9e5)
        usage = np.zeros(edges.size)
        idx = np.clip(np.searchsorted(edges, grid, side="left"), 0, edges.size - 1)
        np.maximum.at(usage, idx, x)


# The speed probe of each workload mirrors the mix of its host time, so that
# the probe slows and speeds with the host as the workload does.
PROBE_KERNELS = {"rnnt-sweep": (object_churn,),
                 "fine-trace": (object_churn, array_passes),
                 "mesh-mc": (object_churn,)}


def speed_probe(kernels) -> float:
    """Seconds a fixed set of kernels takes now.

    The host's speed drifts with the load its neighbours put on the shared
    cores, by up to 2x over tens of seconds.  Reported host times are
    scaled by PROBE_REF_S per kernel over the probe times measured around
    them, which tracks the program and not the neighbours.  The garbage
    collector is off while the kernels run, so the probe does not time
    collections of the program's objects.  The kernels must never change:
    they define the reference speed.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        for kernel in kernels:
            kernel()
        return perf_counter() - t0
    finally:
        gc.enable()


def set_up(workload: str):
    """Import lightmesh from this checkout, load the benchmark config and the
    workload files the workload simulates.  This is what setup_s times."""
    sys.path.insert(0, str(SRC))
    import lightmesh
    if not Path(lightmesh.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"lightmesh imported from {lightmesh.__file__}, not {SRC}")
    cfg = lightmesh.load_config(CONFIG)
    layers = {name: lightmesh.load_workload(lightmesh.bundled_workload(name))
              for name in WORKLOAD_FILES[workload]}
    return lightmesh, cfg, layers


def timed_setup(workload: str) -> tuple[float, float]:
    """Set-up seconds in a fresh process, raw and scaled to the reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(done.stdout.splitlines()[-1])
    return probe["setup_s"], probe["setup_s"] * PROBE_REF_S / probe["probe_s"]


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    from tracer import TRACED
    units = {}
    for mod, fn in TRACED:
        for stat, unit in (("calls", "count/op"), ("self_s", "s/op"),
                           ("total_s", "s/op"), ("errors", "count/op")):
            units[f"{mod}.{fn}.{stat}"] = unit
    units.update({"timing.host_us_per_gemm": "us", "workload.gemms_lowered": "count/op",
                  "buffering.timelines_per_search": "ratio",
                  "mesh.host_ms_per_trial": "ms", "trace_overhead": "ratio"})
    units.update(dict.fromkeys(SHARES, "ratio"))
    return units


class Run:
    """Timed operations of one run, with failures and the output fingerprint."""

    def __init__(self, passes, kernels):
        self.passes = passes
        self.kernels = kernels
        self.raw: list[float] = []       # host seconds per operation
        self.labels: list[str] = []
        self.traced: list[bool] = []
        self.probes: list[float] = []    # speed-probe seconds, in run order
        self.before: list[int] = []      # index of the probe just before each operation
        self.pass_start: list[int] = []  # index of each pass's first operation
        self.failed = 0
        self.fingerprint = hashlib.sha256()

    @property
    def scale(self) -> list[float]:
        """The reference probe time over the slower of the probes just before
        and after each operation, so that an operation timed while the host's
        speed changed is not scaled up by a probe that caught the fast side."""
        ref = PROBE_REF_S * len(self.kernels)
        return [ref / max(self.probes[j], self.probes[j + 1]) for j in self.before]

    @property
    def times(self) -> list[float]:
        """Host seconds per operation at the reference speed."""
        return [t * k for t, k in zip(self.raw, self.scale)]

    def run_pass(self, tracer=None, fingerprint=False) -> None:
        ops = next(self.passes)
        self.pass_start.append(len(self.raw))
        self.probes.append(speed_probe(self.kernels))
        for op in ops:
            result, ok = None, True
            t0 = perf_counter()
            try:
                if tracer is None:
                    result = op.call()
                    seconds = perf_counter() - t0
                else:
                    result, seconds = tracer.run_op(len(self.raw), op.call)
            except Exception:
                seconds = perf_counter() - t0
                ok = False
                traceback.print_exc()
            self.before.append(len(self.probes) - 1)
            self.probes.append(speed_probe(self.kernels))
            self.raw.append(seconds)
            self.labels.append(op.label)
            self.traced.append(tracer is not None)
            if ok:
                problems = op.check(result)
                if problems:
                    ok = False
                    print(f"check failed: {op.label}: {'; '.join(problems)}", file=sys.stderr)
            if not ok:
                self.failed += 1
            elif fingerprint:
                self.fingerprint.update(op.output(result))


def class_median(labels: list[str], times: list[float]) -> float:
    """Median time per operation, as the mean over input classes of each
    class's median: the pooled median of equal-count classes falls on a
    class boundary and jumps between classes from run to run."""
    by_label: dict[str, list[float]] = {}
    for label, t in zip(labels, times):
        by_label.setdefault(label, []).append(t)
    return statistics.fmean(statistics.median(v) for v in by_label.values())


def pass_median_rate(pass_start: list[int], times: list[float]) -> float:
    """Operations per second, as the median over passes.  Each pass holds
    every input class once, so each pass's rate samples the workload's
    throughput; the median resists the few operations timed while the
    host's speed changed."""
    bounds = [*pass_start, len(times)]
    return statistics.median((end - start) / sum(times[start:end])
                             for start, end in zip(bounds, bounds[1:]))


def end_to_end(run: Run, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    times = run.times
    ranked = sorted(times)
    tail_index = max(0, len(ranked) - TAIL_BEYOND - 1)
    values = {
        "ops_per_s": pass_median_rate(run.pass_start, times),
        "op_p50_ms": class_median(run.labels, times) * 1e3,
        "op_tail_ms": ranked[tail_index] * 1e3,
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {"op_tail_percentile": round(100 * tail_index / len(ranked), 2),
               "op_tail_samples": len(ranked),
               "op_tail_beyond": len(ranked) - tail_index - 1,
               "input_classes": len(set(run.labels)),
               "unscaled": {"ops_per_s": pass_median_rate(run.pass_start, run.raw),
                            "op_p50_ms": class_median(run.labels, run.raw) * 1e3,
                            "setup_s": statistics.median(raw for raw, _ in setup),
                            "mean_scale": statistics.fmean(run.scale)}}
    return values, details


def per_layer(tracer, run: Run) -> dict:
    summary = tracer.summary(run.scale)
    ops = sum(run.traced)
    values = {}
    for name, s in summary.items():
        if name == "op":
            continue
        for stat in ("calls", "self_s", "total_s", "errors"):
            values[f"{name}.{stat}"] = s[stat] / ops
    op_s = summary["op"]["total_s"]
    for share, names in SHARES.items():
        values[share] = sum(summary[n]["self_s"] for n in names) / op_s
    timelines = summary["timing.workload_timelines"]
    gemms = timelines["items"]
    values["timing.host_us_per_gemm"] = timelines["total_s"] / gemms * 1e6 if gemms else 0.0
    values["workload.gemms_lowered"] = summary["workload.lower_to_gemms"]["items"] / ops
    searches = sum(summary[n]["calls"] for n in BATCH_SEARCHES)
    values["buffering.timelines_per_search"] = (
        tracer.calls_inside("timing.workload_timelines", BATCH_SEARCHES) / searches
        if searches else 0.0)
    mc = summary["mesh.measure_matrix_error"]
    values["mesh.host_ms_per_trial"] = mc["total_s"] / mc["items"] * 1e3 if mc["items"] else 0.0
    seconds = [0.0, 0.0]   # untraced, traced
    for traced, t in zip(run.traced, run.times):
        seconds[traced] += t
    values["trace_overhead"] = 1 - (ops / seconds[1]) / ((len(run.raw) - ops) / seconds[0])
    return values


def run_workload(args) -> int:
    lm, cfg, layers = set_up(args.workload)
    import workloads
    from tracer import Tracer

    units = END_TO_END_UNITS if not args.trace else per_layer_names()
    setup = [timed_setup(args.workload) for _ in range(SETUP_PROBES)] if not args.trace else []
    run = Run(workloads.WORKLOADS[args.workload](lm, cfg, layers, args.seed),
              PROBE_KERNELS[args.workload])
    for op in next(run.passes)[:WARMUP_OPS]:
        try:
            op.call()
        except Exception:
            traceback.print_exc()  # the timed operations count the failure

    tracer = Tracer() if args.trace else None
    n_pass = 0
    # Whole passes until the time is spent; the traced run alternates
    # untraced and traced passes and ends on a traced one.
    while (sum(run.raw) < args.seconds or len(run.raw) <= TAIL_BEYOND
           or (tracer and n_pass % 2)):
        traced = bool(tracer) and n_pass % 2 == 1
        if traced:
            tracer.install()
        try:
            run.run_pass(tracer if traced else None, fingerprint=n_pass == 0)
        finally:
            if traced:
                tracer.uninstall()
        n_pass += 1

    OUT.mkdir(exist_ok=True)
    if tracer:
        metrics = per_layer(tracer, run)
        details = {"traced_ops": sum(run.traced), "untraced_ops": run.traced.count(False),
                   "absent": tracer.absent}
        tracer.write(OUT / f"spans-{args.workload}.npz")
    else:
        metrics, details = end_to_end(run, setup)
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   threads=THREAD_ENV, fingerprint=run.fingerprint.hexdigest())
    result = {"correct": run.failed == 0, "attempted": len(run.raw),
              "failed": run.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    samples = {"op_labels": run.labels, "op_ms": [t * 1e3 for t in run.raw],
               "probe_s": run.probes, "probe_before_op": run.before,
               "pass_start": run.pass_start, "setup_s": setup}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, **result, "samples": samples}))
    for name, unit in units.items():
        print(f"{args.workload:>10}  {name:<44} {metrics[name]:14.6g} {unit}")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for workload in WORKLOAD_FILES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, timeout=600).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_FILES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.setup_probe:
        # Object churn only: the array kernel would import numpy before set-up.
        speed_probe([object_churn])  # warm-up
        before = speed_probe([object_churn])
        t0 = perf_counter()
        set_up(args.workload)
        setup_s = perf_counter() - t0
        probe_s = (before + speed_probe([object_churn])) / 2
        print(json.dumps({"setup_s": setup_s, "probe_s": probe_s}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
