"""Simulation reports: derived metrics, roofline, and emission formats.

Throughput is reported as inferences per second (utilization-honest, unlike
raw TOPS), with power- and power-area-normalized variants.  Arithmetic
intensity is MAC operations over activation-SRAM read+write bytes; the
roofline bound is min(compute peak, intensity * activation bandwidth) and
every emitted report is checked against it.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass

from .energy import PowerReport
from .timing import AcceleratorConfig, LayerTimeline


class InvariantError(RuntimeError):
    """An internal consistency check failed (reports must satisfy the roofline)."""


@dataclass
class SimReport:
    workload_name: str
    batch: int
    pipelining: bool
    buffering_scheme: str
    accelerator: dict
    layers: list[LayerTimeline]
    power: PowerReport
    total_cycles: int
    elapsed_s: float
    ips: float
    ips_per_w: float
    ips_per_w_mm2: float
    utilization: float
    arithmetic_intensity: float
    roofline: dict
    trace_peak_bytes: float
    trace_feasible: bool
    transfer_hidden: bool
    next_batch_bytes: float

    def to_dict(self) -> dict:
        return {
            "workload_name": self.workload_name,
            "batch": self.batch,
            "pipelining": self.pipelining,
            "buffering_scheme": self.buffering_scheme,
            "accelerator": self.accelerator,
            "total_cycles": self.total_cycles,
            "elapsed_s": self.elapsed_s,
            "ips": self.ips,
            "ips_per_w": self.ips_per_w,
            "ips_per_w_mm2": self.ips_per_w_mm2,
            "utilization": self.utilization,
            "arithmetic_intensity": self.arithmetic_intensity,
            "roofline": dict(self.roofline),
            "trace_peak_bytes": self.trace_peak_bytes,
            "trace_feasible": self.trace_feasible,
            "transfer_hidden": self.transfer_hidden,
            "next_batch_bytes": self.next_batch_bytes,
            "power_w": dict(self.power.watts),
            "total_w": self.power.total_w,
            "area_mm2": dict(self.power.area_mm2),
            "total_mm2": self.power.total_mm2,
            "device_counts": dict(self.power.counts),
            "layers": [asdict(t) for t in self.layers],
        }


def peak_mac_rate(cfg: AcceleratorConfig) -> float:
    """Peak MACs/second across all parallel streams."""
    streams = cfg.n_cores * (cfg.n_wdm if cfg.core == "photo_core" else 1)
    return cfg.m * cfg.m * cfg.effective_rate_hz * streams


def act_sram_bandwidth(cfg: AcceleratorConfig) -> float:
    """Bytes/second of the activation SRAM: one read and one write vector
    per cycle per stream (dedicated ports)."""
    streams = cfg.n_cores * (cfg.n_wdm if cfg.core == "photo_core" else 1)
    return 2 * cfg.m * cfg.effective_rate_hz * streams


def build_report(*, workload_name: str, cfg: AcceleratorConfig, batch: int,
                 pipelining: bool, buffering_scheme: str,
                 timelines: list[LayerTimeline], power: PowerReport,
                 trace_peak: float, trace_feasible: bool, transfer_hidden: bool,
                 next_batch_bytes: float) -> SimReport:
    total = sum(t.total_cycles for t in timelines)
    elapsed = total / cfg.effective_rate_hz
    macs = sum(t.mac_count for t in timelines)
    act_bytes = sum(t.act_sram_reads_bytes + t.act_sram_writes_bytes for t in timelines)
    ips = batch / elapsed
    ai = macs / act_bytes if act_bytes else float("inf")
    macs_per_inf = macs / batch
    peak_ips = peak_mac_rate(cfg) / macs_per_inf
    mem_ceiling_ips = act_sram_bandwidth(cfg) * ai / macs_per_inf
    bound = min(peak_ips, mem_ceiling_ips) * (1 + 1e-9)
    if ips > bound:
        raise InvariantError(
            f"attained {ips:.4g} IPS exceeds roofline bound {bound:.4g}")
    report = SimReport(
        workload_name=workload_name,
        batch=batch,
        pipelining=pipelining,
        buffering_scheme=buffering_scheme,
        accelerator=asdict(cfg),
        layers=timelines,
        power=power,
        total_cycles=total,
        elapsed_s=elapsed,
        ips=ips,
        ips_per_w=ips / power.total_w,
        ips_per_w_mm2=ips / (power.total_w * power.total_mm2),
        utilization=(macs / elapsed) / peak_mac_rate(cfg),
        arithmetic_intensity=ai,
        roofline={
            "arithmetic_intensity": ai,
            "attained_ips": ips,
            "peak_ips": peak_ips,
            "mem_ceiling_ips": mem_ceiling_ips,
        },
        trace_peak_bytes=trace_peak,
        trace_feasible=trace_feasible,
        transfer_hidden=transfer_hidden,
        next_batch_bytes=next_batch_bytes,
    )
    return report


def _flatten(d: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in d.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(_flatten(value, name))
        elif isinstance(value, list):
            flat[name] = json.dumps(value)
        else:
            flat[name] = value
    return flat


def emit_report(report: SimReport, fmt: str = "table") -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if fmt == "csv":
        flat = _flatten(report.to_dict())
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["field", "value"])
        for key in sorted(flat):
            writer.writerow([key, flat[key]])
        return buf.getvalue()
    if fmt == "table":
        return _table(report)
    raise ValueError(f"unknown report format {fmt!r}")


def _table(report: SimReport) -> str:
    acc = report.accelerator
    lines = [
        f"workload          {report.workload_name}",
        f"core              {acc['core']} (m={acc['m']}, f_c={acc['f_c'] / 1e9:g} GHz, "
        f"dataflow={acc['dataflow']})",
        f"parallelism       {acc['parallel_mode']} x{acc['n_cores']} cores, "
        f"{acc['n_wdm']} wavelengths",
        f"batch             {report.batch}  (buffering: {report.buffering_scheme}, "
        f"pipelining: {'on' if report.pipelining else 'off'})",
        f"total cycles      {report.total_cycles}",
        f"latency           {report.elapsed_s * 1e3:.4f} ms/batch",
        f"IPS               {report.ips:,.1f}",
        f"IPS/W             {report.ips_per_w:,.2f}",
        f"IPS/(W*mm^2)      {report.ips_per_w_mm2:.4f}",
        f"utilization       {report.utilization * 100:.2f} %",
        f"arith intensity   {report.arithmetic_intensity:.3f} MAC/byte",
        f"roofline          attained {report.ips:,.1f} | peak {report.roofline['peak_ips']:,.1f}"
        f" | memory {report.roofline['mem_ceiling_ips']:,.1f} IPS",
        f"SRAM trace peak   {report.trace_peak_bytes / 1e6:.2f} MB "
        f"({'fits' if report.trace_feasible else 'OVERFLOWS'}; next-batch "
        f"prefetch {'hidden' if report.transfer_hidden else 'NOT hidden'})",
        "",
        f"power breakdown   total {report.power.total_w:.3f} W",
    ]
    total_w = report.power.total_w
    for name, w in sorted(report.power.watts.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<15} {w:>10.4f} W  {100 * w / total_w:6.2f} %")
    lines.append(f"area breakdown    total {report.power.total_mm2:.2f} mm^2")
    for name, a in sorted(report.power.area_mm2.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<15} {a:>10.3f} mm^2")
    return "\n".join(lines)


def sweep_table(reports: list[SimReport], fmt: str = "table") -> str:
    """Long-format table over sweep points.

    `feasible` says whether the point's activation trace fits in SRAM and
    `hidden` whether its next-batch transfer is hidden; a point with either
    false is not an ordinary result."""
    cols = ["workload", "core", "m", "f_c_ghz", "dataflow", "parallel", "batch",
            "ips", "total_w", "ips_per_w", "ips_per_w_mm2", "utilization", "ai",
            "feasible", "hidden"]
    rows = []
    for r in reports:
        acc = r.accelerator
        par = f"{acc['parallel_mode']}:{acc['n_cores']}c/{acc['n_wdm']}w"
        rows.append([r.workload_name, acc["core"], acc["m"], acc["f_c"] / 1e9,
                     acc["dataflow"], par, r.batch,
                     round(r.ips, 2), round(r.power.total_w, 3),
                     round(r.ips_per_w, 3), round(r.ips_per_w_mm2, 5),
                     round(r.utilization, 4), round(r.arithmetic_intensity, 4),
                     r.trace_feasible, r.transfer_hidden])
    if fmt == "json":
        return json.dumps([dict(zip(cols, row)) for row in rows], indent=2)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(cols)
    writer.writerows(rows)
    if fmt == "csv":
        return buf.getvalue()
    widths = [max(len(str(x)) for x in [c] + [row[i] for row in rows])
              for i, c in enumerate(cols)]
    out = ["  ".join(str(c).ljust(w) for c, w in zip(cols, widths))]
    for row in rows:
        out.append("  ".join(str(x).ljust(w) for x, w in zip(row, widths)))
    return "\n".join(out)
