"""Pipeline orchestration: workload -> timing -> buffering -> energy -> report."""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

from . import buffering, energy, timing, workload
from .config import SimConfig, load_config
from .report import SimReport, build_report


def _resolve_config(config) -> SimConfig:
    if isinstance(config, SimConfig):
        return config
    return load_config(config)


def _workload_name(path) -> str:
    try:
        return json.loads(Path(path).read_text()).get("name", Path(path).stem)
    except (OSError, json.JSONDecodeError):
        return Path(path).stem


def run_simulation(workload_path, config=None, batch: int | None = None,
                   pipelining: bool = True, buffering_scheme: str = "optimized",
                   bins: int = 1000) -> SimReport:
    """Simulate one workload under one configuration.

    When batch is None, the largest feasible batch for the chosen buffering
    scheme is used (optimized transfer schedule, or the half-capacity
    double-buffering baseline)."""
    if buffering_scheme not in ("optimized", "double"):
        raise timing.ConfigError(f"unknown buffering scheme {buffering_scheme!r}")
    cfg = _resolve_config(config)
    acc = cfg.accelerator
    layers = workload.load_workload(workload_path)
    ducfg = cfg.digital_unit_config()
    n_points = bins + 1

    if batch is None:
        if buffering_scheme == "double":
            batch = buffering.double_buffering_batch(layers, acc, ducfg,
                                                     pipelining, n_points)
            if batch < 1:
                raise buffering.BufferingError(
                    "one sample exceeds half the activation SRAM; "
                    "double buffering is infeasible")
        else:
            batch, _ = buffering.max_batch(layers, acc, ducfg, pipelining, n_points)

    gemms = workload.lower_to_gemms(layers, batch=batch)
    timelines = timing.workload_timelines(gemms, acc, ducfg, pipelining)
    trace = timing.build_memory_trace(timelines, layers, batch, acc, n_points)
    next_bytes = buffering.next_batch_input_bytes(layers, batch)
    if buffering_scheme == "double":
        fits = trace.peak <= acc.act_sram_bytes / 2
        hidden = fits and next_bytes <= acc.act_sram_bytes / 2
    else:
        fits = trace.feasible
        sched = buffering.solve_schedule(trace, next_bytes, acc.act_sram_bytes,
                                         acc.pcie_bytes_per_sec)
        hidden = sched.feasible
    power = energy.rollup(acc, cfg.devices, timelines, batch, dram_bytes=next_bytes)
    return build_report(
        workload_name=_workload_name(workload_path), cfg=acc, batch=batch,
        pipelining=pipelining, buffering_scheme=buffering_scheme,
        timelines=timelines, power=power, trace_peak=trace.peak,
        trace_feasible=fits, transfer_hidden=hidden, next_batch_bytes=next_bytes)


SWEEP_AXES = ("m", "f_c", "core", "dataflow", "batch", "n_cores", "n_wdm",
              "parallel_mode")


def run_sweep(workload_path, config=None, axes: dict | None = None,
              pipelining: bool = True, buffering_scheme: str = "optimized",
              bins: int = 1000) -> list[SimReport]:
    """Cross-product sweep, evaluated serially; results follow the axis
    cross-product order (axes sorted by name, batch varying fastest)."""
    axes = {k: list(v) for k, v in (axes or {}).items()}
    if not axes or any(len(v) == 0 for v in axes.values()):
        raise timing.ConfigError("sweep needs at least one non-empty axis")
    unknown = set(axes) - set(SWEEP_AXES)
    if unknown:
        raise timing.ConfigError(f"unknown sweep axes: {sorted(unknown)}")
    cfg = _resolve_config(config)
    batches = axes.pop("batch", [None])
    keys = sorted(axes)
    reports = []
    for combo in product(*(axes[k] for k in keys)):
        acc_kw = dict(zip(keys, combo))
        if acc_kw.get("core") == "photo_core":
            acc_kw["dataflow"] = "WS"  # the photonic core is WS-only
        sub = cfg.with_accelerator(**acc_kw)
        for b in batches:
            reports.append(run_simulation(workload_path, sub, batch=b,
                                          pipelining=pipelining,
                                          buffering_scheme=buffering_scheme,
                                          bins=bins))
    return reports


def compare_cores(workload_path, config=None, batch: int | None = None,
                  sa_dataflow: str = "OS", pipelining: bool = True,
                  buffering_scheme: str = "optimized", bins: int = 1000):
    """Photonic core versus same-sized systolic array, side by side."""
    cfg = _resolve_config(config)
    photo = cfg.with_accelerator(core="photo_core", dataflow="WS", n_wdm=cfg.accelerator.n_wdm)
    sa = cfg.with_accelerator(core="systolic_array", dataflow=sa_dataflow, n_wdm=1,
                              parallel_mode="data")
    return [
        run_simulation(workload_path, photo, batch, pipelining, buffering_scheme, bins),
        run_simulation(workload_path, sa, batch, pipelining, buffering_scheme, bins),
    ]
