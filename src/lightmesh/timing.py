"""Cycle-count models for the photonic core and electronic systolic arrays.

Photonic core (weight-stationary only): per tile, programming the mesh
stalls the array for ceil(t_prog * f_c) cycles (the weight buffer hides the
SRAM fetch but not device settling), then one input vector streams per cycle
with a single pipeline-fill cycle.  Edge tiles occupy the full array for
timing; true MAC occupancy is tracked separately.

Systolic arrays are closed-form analytic approximations per dataflow, not
cycle-accurate replays:
  WS: per tile, m load + n_vec stream + m drain;
  IS: roles of weights and inputs swapped (stationary input chunks,
      weight rows streamed);
  OS: per K-chunk a 2m-2 fill/drain plus one K-deep accumulation pass per
      m^2 block of the output panel.
Arrays above the native digital clock are modeled as clock-staggered 1 GHz
replicas: cycles are evaluated once and wall time divides by the replica
count, so replica throughput is exactly linear.

Parallelism: data parallelism splits the input panel across cores, tile
parallelism round-robins tiles (latency bounded by the tile count, plus
digital passes to merge split reductions), and WDM splits the panel across
wavelengths through a single mesh - identical cycle arithmetic to data
parallelism, different device counts (the energy module consumes that).

Traffic accounting: activations 1 byte/element, weights 2 bytes/element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import nonlinear, workload
from .workload import GemmOp, LayerSpec, NonGemmOp, TilePlan

ACT_BYTES = 1
WEIGHT_BYTES = 2


class ConfigError(ValueError):
    """Raised for invalid accelerator configurations."""


@dataclass(frozen=True)
class AcceleratorConfig:
    core: str = "photo_core"
    m: int = 128
    f_c: float = 10e9
    dataflow: str = "WS"
    t_prog: float = 10e-9
    n_cores: int = 1
    parallel_mode: str = "data"
    n_wdm: int = 1
    act_sram_bytes: int = 100 * 10 ** 6
    weight_sram_bytes: int = 300 * 10 ** 6
    pcie_bytes_per_sec: float = 16e9
    zeta: int = 100
    sa_native_hz: float = 1e9

    def __post_init__(self):
        if self.core not in ("photo_core", "systolic_array"):
            raise ConfigError(f"unknown core type {self.core!r}")
        if self.m < 2:
            raise ConfigError("array size m must be >= 2")
        if self.f_c <= 0:
            raise ConfigError("clock frequency must be positive")
        if self.n_cores < 1 or self.n_wdm < 1:
            raise ConfigError("core and wavelength counts must be >= 1")
        if self.dataflow not in ("WS", "OS", "IS"):
            raise ConfigError(f"unknown dataflow {self.dataflow!r}")
        if self.core == "photo_core" and self.dataflow != "WS":
            raise ConfigError("the photonic core supports only the WS dataflow")
        if self.parallel_mode not in ("data", "tile", "wdm"):
            raise ConfigError(f"unknown parallel mode {self.parallel_mode!r}")
        if (self.parallel_mode == "wdm" or self.n_wdm > 1) and self.core != "photo_core":
            raise ConfigError("WDM parallelism requires the photonic core")
        if self.n_wdm > 1 and self.parallel_mode != "wdm":
            raise ConfigError("n_wdm > 1 requires parallel_mode='wdm'")
        if self.zeta < 1:
            raise ConfigError("zeta must be >= 1")

    @property
    def prog_stall_cycles(self) -> int:
        return math.ceil(self.t_prog * self.f_c)

    @property
    def sa_replicas(self) -> int:
        """Clock-staggered replica count realizing f_c from native-rate arrays."""
        return max(1, round(self.f_c / self.sa_native_hz))

    @property
    def effective_rate_hz(self) -> float:
        """Cycles per second of wall time for converting cycles to seconds."""
        if self.core == "photo_core":
            return self.f_c
        return self.sa_native_hz * self.sa_replicas


@dataclass(frozen=True)
class GemmTiming:
    """Core-side cycles and traffic for one (possibly parallelized) GEMM."""

    gemm_cycles: int          # streaming + pipeline fill
    stall_cycles: int         # programming / load stalls
    fill_offset: int          # cycles until the first final output vector
    act_read_bytes: int
    act_write_bytes: int
    weight_read_bytes: int
    mac_count: int
    compute_slots: int        # array MAC slots over all streaming cycles

    @property
    def total(self) -> int:
        return self.gemm_cycles + self.stall_cycles

    @property
    def occupancy(self) -> float:
        return self.mac_count / self.compute_slots if self.compute_slots else 0.0


@dataclass(frozen=True)
class LayerTimeline:
    source_layer: int
    gemm_cycles: int
    nongemm_cycles: int
    overlapped_cycles: int
    stall_cycles: int
    total_cycles: int
    act_sram_reads_bytes: int
    act_sram_writes_bytes: int
    weight_sram_reads_bytes: int
    mac_count: int
    occupancy: float


@dataclass
class MemoryTrace:
    dt: float
    usage: np.ndarray          # bytes, trailing-window peak per sample point
    act_sram_bytes: int

    @property
    def feasible(self) -> bool:
        return bool(np.all(self.usage <= self.act_sram_bytes))

    @property
    def peak(self) -> float:
        return float(self.usage.max()) if self.usage.size else 0.0


@dataclass(frozen=True)
class ParallelPlan:
    """Resolved parallelism for one GEMM: effective panel width and tile
    count per core, digital merge passes, and the non-GEMM split factor."""

    n_vec: int
    tiles: int
    col_tiles: int
    streams: int
    extra_acc_passes: int
    ng_split: int
    weight_copies: int


def apply_parallelism(plan: TilePlan, cfg: AcceleratorConfig) -> ParallelPlan:
    nv, tiles = plan.gemm.n_vec, plan.total_tiles
    if cfg.parallel_mode == "tile" and cfg.n_cores > 1:
        return ParallelPlan(
            n_vec=nv,
            tiles=math.ceil(tiles / cfg.n_cores),
            col_tiles=math.ceil(plan.col_tiles / cfg.n_cores),
            streams=min(cfg.n_cores, tiles),
            extra_acc_passes=max(0, math.ceil(plan.col_tiles / cfg.n_cores) - 1),
            ng_split=1,
            weight_copies=1,
        )
    split = cfg.n_wdm if cfg.parallel_mode == "wdm" else cfg.n_cores
    return ParallelPlan(
        n_vec=math.ceil(nv / split),
        tiles=tiles,
        col_tiles=plan.col_tiles,
        streams=split,
        extra_acc_passes=0,
        ng_split=split,
        weight_copies=split if cfg.parallel_mode == "data" else 1,
    )


def photo_core_gemm_cycles(plan: TilePlan, cfg: AcceleratorConfig,
                           par: ParallelPlan | None = None) -> GemmTiming:
    """Weight-stationary photonic core: stall + stream + fill per tile."""
    if cfg.core != "photo_core":
        raise ConfigError("photo_core_gemm_cycles needs a photo_core config")
    par = par or apply_parallelism(plan, cfg)
    m, nv, tiles = cfg.m, par.n_vec, par.tiles
    stall = cfg.prog_stall_cycles
    per_tile = stall + nv + 1
    fill = (par.col_tiles - 1) * per_tile + stall + 2
    return GemmTiming(
        gemm_cycles=tiles * (nv + 1),
        stall_cycles=tiles * stall,
        fill_offset=fill,
        act_read_bytes=plan.total_tiles * par.n_vec * m * par.streams * ACT_BYTES,
        act_write_bytes=plan.total_tiles * par.n_vec * m * par.streams * ACT_BYTES,
        weight_read_bytes=plan.total_tiles * m * m * par.weight_copies * WEIGHT_BYTES,
        mac_count=plan.gemm.macs,
        compute_slots=par.streams * tiles * nv * m * m,
    )


def systolic_gemm_cycles(plan: TilePlan, cfg: AcceleratorConfig,
                         par: ParallelPlan | None = None) -> GemmTiming:
    """Analytic per-dataflow systolic-array model (approximate by design)."""
    if cfg.core != "systolic_array":
        raise ConfigError("systolic_gemm_cycles needs a systolic_array config")
    par = par or apply_parallelism(plan, cfg)
    m, nv = cfg.m, par.n_vec
    rows, cols = plan.gemm.rows_w, plan.gemm.cols_w
    if cfg.dataflow == "WS":
        tiles = par.tiles
        stall = tiles * m
        stream = tiles * (nv + m)
        fill = (par.col_tiles - 1) * (2 * m + nv) + m + 2
        act_r = plan.total_tiles * nv * m * par.streams
        act_w = plan.total_tiles * nv * m * par.streams
        wt = plan.total_tiles * m * m * par.weight_copies
        slots = par.streams * tiles * nv * m * m
    elif cfg.dataflow == "IS":
        stat_tiles = plan.col_tiles * math.ceil(nv / m)
        stall = stat_tiles * m
        stream = stat_tiles * (rows + m)
        fill = (plan.col_tiles - 1) * (2 * m + rows) + m + 2
        act_r = stat_tiles * m * m * par.streams
        act_w = stat_tiles * rows * m * par.streams
        wt = stat_tiles * rows * m * par.weight_copies
        slots = par.streams * stat_tiles * rows * m * m
    else:  # OS
        out_passes = math.ceil(rows * nv / (m * m))
        stall = plan.col_tiles * (2 * m - 2)
        stream = cols * out_passes
        fill = 2 * m - 2 + cols
        act_r = out_passes * cols * m * par.streams
        act_w = rows * nv * par.streams
        wt = out_passes * cols * m * par.weight_copies
        slots = par.streams * stream * m * m
    return GemmTiming(
        gemm_cycles=stream,
        stall_cycles=stall,
        fill_offset=fill,
        act_read_bytes=act_r * ACT_BYTES,
        act_write_bytes=act_w * ACT_BYTES,
        weight_read_bytes=wt * WEIGHT_BYTES,
        mac_count=plan.gemm.macs,
        compute_slots=slots,
    )


def gemm_cycles(plan: TilePlan, cfg: AcceleratorConfig,
                par: ParallelPlan | None = None) -> GemmTiming:
    if cfg.core == "photo_core":
        return photo_core_gemm_cycles(plan, cfg, par)
    return systolic_gemm_cycles(plan, cfg, par)


def overlap_nongemm(gt: GemmTiming, nongemm_cycles: int, enabled: bool,
                    source_layer: int = 0) -> LayerTimeline:
    """Merge core and digital-unit cycles into a layer timeline.

    Pipelined, the digital unit starts once the first final output vector
    exists (fill_offset); the scheduler falls back to serial execution when
    overlap would not help, so pipelining never increases latency.
    """
    g = gt.total
    if not enabled or nongemm_cycles == 0:
        total = g + nongemm_cycles
    else:
        total = min(g + nongemm_cycles,
                    max(g, nongemm_cycles) + gt.fill_offset)
    return LayerTimeline(
        source_layer=source_layer,
        gemm_cycles=gt.gemm_cycles,
        nongemm_cycles=nongemm_cycles,
        overlapped_cycles=g + nongemm_cycles - total,
        stall_cycles=gt.stall_cycles,
        total_cycles=total,
        act_sram_reads_bytes=gt.act_read_bytes,
        act_sram_writes_bytes=gt.act_write_bytes,
        weight_sram_reads_bytes=gt.weight_read_bytes,
        mac_count=gt.mac_count,
        occupancy=gt.occupancy,
    )


def gemm_timeline(gemm: GemmOp, cfg: AcceleratorConfig,
                  ducfg: nonlinear.DigitalUnitConfig,
                  pipelining: bool = True) -> LayerTimeline:
    """Full per-GEMM timeline: tiling, parallelism, digital unit, overlap."""
    plan = workload.plan_tiles(gemm, cfg.m)
    par = apply_parallelism(plan, cfg)
    gt = gemm_cycles(plan, cfg, par)
    ops = [replace(op, elems=max(1, math.ceil(op.elems / par.ng_split)))
           for op in gemm.nongemm_ops]
    merge = NonGemmOp("add", gemm.rows_w * gemm.n_vec)
    ops.extend([merge] * par.extra_acc_passes)
    if par.extra_acc_passes:
        extra_bytes = 2 * gemm.rows_w * gemm.n_vec * par.extra_acc_passes * ACT_BYTES
        gt = replace(gt, act_read_bytes=gt.act_read_bytes + extra_bytes // 2,
                     act_write_bytes=gt.act_write_bytes + extra_bytes // 2)
    ng = nonlinear.layer_nongemm_cycles(ops, ducfg)
    return overlap_nongemm(gt, ng, pipelining, source_layer=gemm.source_layer)


def workload_timelines(gemms: list[GemmOp], cfg: AcceleratorConfig,
                       ducfg: nonlinear.DigitalUnitConfig | None = None,
                       pipelining: bool = True) -> list[LayerTimeline]:
    """One timeline per GEMM, in order.

    A GEMM that is (or equals) the one before it reuses that GEMM's frozen
    timeline instead of being timed again, so a run of identical LSTM steps
    costs one `gemm_timeline` call.  The result equals timing every GEMM.
    """
    ducfg = ducfg or nonlinear.DigitalUnitConfig(lanes=cfg.m, f_c=cfg.f_c)
    timelines: list[LayerTimeline] = []
    prev = tl = None
    for g in gemms:
        if g is not prev and g != prev:
            tl = gemm_timeline(g, cfg, ducfg, pipelining)
        timelines.append(tl)
        prev = g
    return timelines


def total_cycles(timelines) -> int:
    return sum(t.total_cycles for t in timelines)


def elapsed_seconds(timelines, cfg: AcceleratorConfig) -> float:
    return total_cycles(timelines) / cfg.effective_rate_hz


def inferences_per_second(batch: int, timelines, cfg: AcceleratorConfig) -> float:
    return batch / elapsed_seconds(timelines, cfg)


def build_memory_trace(timelines, layers: list[LayerSpec], batch: int,
                       cfg: AcceleratorConfig, n_points: int = 1001) -> MemoryTrace:
    """Activation-SRAM occupancy over the run.

    Liveness is layer-granular: a layer's output ramps up linearly over its
    span, stays resident until its consumer (the next GEMM-bearing layer)
    finishes, and the first layer's input is resident from time zero.  Each
    sample holds the trailing-window peak so linear segments between samples
    cannot exceed the reported value.
    """
    if n_points < 2:
        raise ConfigError("memory trace needs at least 2 sample points")
    spans: dict[int, list[int]] = {}
    t = 0
    for tl in timelines:
        start = spans.setdefault(tl.source_layer, [t, t])[0]
        t += tl.total_cycles
        spans[tl.source_layer] = [start, t]
    horizon = float(t)
    if horizon <= 0:
        raise ConfigError("empty workload timeline")

    live = []  # (start, end, death, bytes)
    order = sorted(spans)
    for i, idx in enumerate(order):
        _, out_bytes = workload.layer_footprint(layers[idx], batch)
        if out_bytes == 0:
            continue
        start, end = spans[idx]
        death = horizon
        for nxt in order[i + 1:]:
            _, nxt_out = workload.layer_footprint(layers[nxt], batch)
            if nxt_out > 0:
                death = spans[nxt][1]
                break
        live.append((start, end, death, out_bytes))
    first = next((idx for idx in order if workload.layer_footprint(layers[idx], batch)[0] > 0), None)
    in_bytes = workload.layer_footprint(layers[first], batch)[0] if first is not None else 0

    edges = np.linspace(0.0, horizon, n_points)
    breaks = np.array(sorted({b for s, e, d, _ in live for b in (s, e, d)}), dtype=float)
    grid = np.unique(np.concatenate([edges, breaks]))

    # Deaths are inclusive at the evaluation instant, so x is piecewise
    # linear between grid points and window maxima are exactly the maxima
    # over evaluated points.
    x = np.zeros_like(grid)
    if in_bytes:
        x += in_bytes * (grid <= spans[first][1])
    for s, e, d, nbytes in live:
        ramp = np.clip((grid - s) / max(1, e - s), 0.0, 1.0)
        x += nbytes * ramp * (grid <= d)

    usage = np.zeros(n_points)
    idx = np.clip(np.searchsorted(edges, grid, side="left"), 0, n_points - 1)
    np.maximum.at(usage, idx, x)
    x_edges = x[np.searchsorted(grid, edges)]
    usage = np.maximum(usage, x_edges)
    usage[1:] = np.maximum(usage[1:], x_edges[:-1])
    dt = horizon / (n_points - 1) / cfg.effective_rate_hz
    return MemoryTrace(dt=dt, usage=usage, act_sram_bytes=cfg.act_sram_bytes)
