from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from lightmesh import nonlinear, timing, workload as wl
from lightmesh.config import bundled_workload, load_config
from lightmesh.timing import AcceleratorConfig, ConfigError, GemmTiming


def photo(f_c=1e9, **kw):
    return AcceleratorConfig(core="photo_core", m=128, f_c=f_c, **kw)


def systolic(dataflow="WS", m=128, f_c=1e9, **kw):
    return AcceleratorConfig(core="systolic_array", m=m, f_c=f_c,
                             dataflow=dataflow, **kw)


def test_config_validation():
    with pytest.raises(ConfigError):
        AcceleratorConfig(m=1)
    with pytest.raises(ConfigError):
        AcceleratorConfig(core="photo_core", dataflow="OS")
    with pytest.raises(ConfigError):
        AcceleratorConfig(core="systolic_array", n_wdm=4)
    with pytest.raises(ConfigError):
        AcceleratorConfig(core="gpu")


def test_photo_core_single_tile_formula():
    plan = wl.plan_tiles(wl.GemmOp(128, 128, 1000, 0), 128)
    gt = timing.photo_core_gemm_cycles(plan, photo(1e9))
    assert gt.total == 10 + 1000 + 1
    gt10 = timing.photo_core_gemm_cycles(plan, photo(10e9))
    assert gt10.total == 100 + 1000 + 1
    # sub-linear throughput in clock: 1011 ns -> 110.1 ns is a 9.18x speedup
    assert (gt.total / 1e9) / (gt10.total / 10e9) == pytest.approx(9.1826, abs=1e-3)


def test_photo_core_traffic_accounting():
    plan = wl.plan_tiles(wl.GemmOp(256, 256, 10, 0), 128)  # 4 tiles
    gt = timing.photo_core_gemm_cycles(plan, photo())
    assert gt.weight_read_bytes == 4 * 128 * 128 * timing.WEIGHT_BYTES
    assert gt.act_read_bytes == 4 * 10 * 128 * timing.ACT_BYTES
    assert gt.act_write_bytes == gt.act_read_bytes
    assert gt.mac_count == 256 * 256 * 10


def test_edge_tiles_full_rate_but_true_occupancy():
    plan = wl.plan_tiles(wl.GemmOp(130, 130, 100, 0), 128)  # 4 tiles, mostly empty
    gt = timing.photo_core_gemm_cycles(plan, photo())
    assert gt.total == 4 * (10 + 100 + 1)
    assert gt.occupancy == pytest.approx(130 * 130 / (4 * 128 * 128))


def test_systolic_ws_formula():
    plan = wl.plan_tiles(wl.GemmOp(128, 128, 1000, 0), 128)
    assert timing.systolic_gemm_cycles(plan, systolic("WS")).total == 128 + 1000 + 128


def test_systolic_ws_degenerate_small_array():
    plan = wl.plan_tiles(wl.GemmOp(2, 2, 9, 0), 2)
    assert timing.systolic_gemm_cycles(plan, systolic("WS", m=2)).total == 2 + 9 + 2


def test_systolic_os_single_pass():
    plan = wl.plan_tiles(wl.GemmOp(64, 96, 32, 0), 128)
    gt = timing.systolic_gemm_cycles(plan, systolic("OS"))
    assert gt.total == 2 * 128 - 2 + 96


def test_dataflow_winner_depends_on_shape():
    # large weights / tiny panel: WS loads each tile once
    rnnt_like = wl.plan_tiles(wl.GemmOp(4096, 1024, 4, 0), 128)
    # small weights / huge panel: OS amortizes fill over the reduction
    convlike = wl.plan_tiles(wl.GemmOp(128, 128, 50000, 0), 128)
    results = {}
    for name, plan in [("rnnt_like", rnnt_like), ("conv_like", convlike)]:
        ws = timing.systolic_gemm_cycles(plan, systolic("WS")).total
        os_ = timing.systolic_gemm_cycles(plan, systolic("OS")).total
        results[name] = "OS" if os_ < ws else "WS"
    # record both winners; the analytic models must at least disagree by shape
    assert set(results.values()) == {"OS", "WS"}


def test_is_dataflow_mirrors_ws():
    plan = wl.plan_tiles(wl.GemmOp(256, 128, 128, 0), 128)
    is_t = timing.systolic_gemm_cycles(plan, systolic("IS")).total
    mirrored = wl.plan_tiles(wl.GemmOp(128, 128, 256, 0), 128)
    ws_t = timing.systolic_gemm_cycles(mirrored, systolic("WS")).total
    assert is_t == ws_t


def test_overlap_examples():
    gt = GemmTiming(gemm_cycles=1000, stall_cycles=0, fill_offset=50,
                    act_read_bytes=0, act_write_bytes=0, weight_read_bytes=0,
                    mac_count=0, compute_slots=0)
    assert timing.overlap_nongemm(gt, 100, True).total_cycles == 1050
    assert timing.overlap_nongemm(gt, 0, True).total_cycles == 1000
    assert timing.overlap_nongemm(gt, 100, False).total_cycles == 1100


def test_overlap_never_hurts():
    gt = GemmTiming(gemm_cycles=1000, stall_cycles=20, fill_offset=900,
                    act_read_bytes=0, act_write_bytes=0, weight_read_bytes=0,
                    mac_count=0, compute_slots=0)
    for ng in (0, 1, 10, 500, 5000):
        piped = timing.overlap_nongemm(gt, ng, True).total_cycles
        serial = timing.overlap_nongemm(gt, ng, False).total_cycles
        assert piped <= serial


def test_timeline_bookkeeping_identity():
    gt = GemmTiming(gemm_cycles=700, stall_cycles=40, fill_offset=30,
                    act_read_bytes=0, act_write_bytes=0, weight_read_bytes=0,
                    mac_count=0, compute_slots=0)
    tl = timing.overlap_nongemm(gt, 400, True)
    assert tl.total_cycles == tl.gemm_cycles + tl.nongemm_cycles \
        - tl.overlapped_cycles + tl.stall_cycles


def test_data_parallel_split():
    plan = wl.plan_tiles(wl.GemmOp(128, 128, 16000, 0), 128)
    par = timing.apply_parallelism(plan, photo(n_cores=16, parallel_mode="data"))
    assert par.n_vec == 1000 and par.tiles == plan.total_tiles


def test_parallelism_identity_transforms():
    plan = wl.plan_tiles(wl.GemmOp(300, 200, 777, 0), 128)
    base = timing.apply_parallelism(plan, photo())
    one_core = timing.apply_parallelism(plan, photo(n_cores=1, parallel_mode="data"))
    one_wdm = timing.apply_parallelism(plan, photo(n_wdm=1, parallel_mode="wdm"))
    assert base == one_core == one_wdm


def test_tile_parallel_speedup_bounded_by_tiles():
    gemm = wl.GemmOp(300, 200, 500, 0)      # 3x2 = 6 tiles
    plan = wl.plan_tiles(gemm, 128)
    serial = timing.photo_core_gemm_cycles(plan, photo()).total
    cfg = photo(n_cores=16, parallel_mode="tile")
    par = timing.apply_parallelism(plan, cfg)
    assert par.streams == 6
    parallel = timing.photo_core_gemm_cycles(plan, cfg, par).total
    assert serial / parallel <= 6.0 + 1e-12


def test_wdm_equals_data_cycles():
    gemm = wl.GemmOp(512, 512, 1234, 0, (wl.NonGemmOp("relu", 512 * 1234),))
    for n in (2, 4, 8):
        td = timing.workload_timelines([gemm], photo(f_c=10e9, n_cores=n,
                                                     parallel_mode="data"))
        tw = timing.workload_timelines([gemm], photo(f_c=10e9, n_wdm=n,
                                                     parallel_mode="wdm"))
        assert td[0].total_cycles == tw[0].total_cycles


def test_sa_replica_throughput_exactly_linear():
    layers = wl.load_workload(bundled_workload("resnet50"))
    gemms = wl.lower_to_gemms(layers, batch=4)
    cfgs = [systolic("OS", f_c=k * 1e9) for k in (1, 3, 10)]
    base = None
    for k, cfg in zip((1, 3, 10), cfgs):
        du = nonlinear.DigitalUnitConfig(lanes=cfg.m, f_c=cfg.f_c)
        ips = timing.inferences_per_second(
            4, timing.workload_timelines(gemms, cfg, du), cfg)
        base = base or ips
        assert ips == pytest.approx(k * base, rel=1e-12)


def test_mac_conservation_against_oracle():
    layers = wl.load_workload(bundled_workload("rnnt"))
    gemms = wl.lower_to_gemms(layers, batch=3)
    tls = timing.workload_timelines(gemms, photo())
    assert sum(t.mac_count for t in tls) == wl.workload_mac_count(layers, 3)


def test_memory_trace_single_layer_peak():
    layers = [wl.LayerSpec(kind="dense",
                           dims=dict(in_features=10 ** 6, out_features=10 ** 6))]
    gemms = wl.lower_to_gemms(layers)
    cfg = photo()
    tls = timing.workload_timelines(gemms, cfg)
    trace = timing.build_memory_trace(tls, layers, 1, cfg, n_points=64)
    assert trace.peak == pytest.approx(2e6)
    assert trace.usage[0] == pytest.approx(1e6)


def test_memory_trace_liveness_frees_consumed_inputs():
    mk = lambda i, o: wl.LayerSpec(kind="dense",
                                   dims=dict(in_features=i, out_features=o))
    layers = [mk(1000, 1000), mk(1000, 10), mk(10, 10)]
    cfg = photo()
    tls = timing.workload_timelines(wl.lower_to_gemms(layers), cfg)
    trace = timing.build_memory_trace(tls, layers, 1, cfg, n_points=512)
    # after layer B consumes A's output, only small tensors remain
    assert trace.usage[-1] <= 100
    assert trace.peak == pytest.approx(2000, rel=0.01)


def test_memory_trace_overflow_reported():
    layers = [wl.LayerSpec(kind="dense",
                           dims=dict(in_features=10 ** 6, out_features=10 ** 6))]
    cfg = AcceleratorConfig(core="photo_core", m=128, f_c=1e9, act_sram_bytes=10 ** 6)
    tls = timing.workload_timelines(wl.lower_to_gemms(layers), cfg)
    trace = timing.build_memory_trace(tls, layers, 1, cfg, n_points=64)
    assert not trace.feasible


@pytest.mark.parametrize("name", ["resnet50", "bertlarge", "rnnt"])
def test_ips_monotone_and_saturating(name):
    cfg = load_config()
    layers = wl.load_workload(bundled_workload(name))
    du = cfg.digital_unit_config()
    acc = cfg.accelerator
    ips = []
    for b in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        gemms = wl.lower_to_gemms(layers, batch=b)
        ips.append(timing.inferences_per_second(
            b, timing.workload_timelines(gemms, acc, du), acc))
    assert all(b >= a * (1 - 1e-9) for a, b in zip(ips, ips[1:]))
    # saturation: the doubling gain ratio shrinks monotonically
    ratios = [b / a for a, b in zip(ips, ips[1:])]
    assert all(r2 <= r1 + 1e-9 for r1, r2 in zip(ratios, ratios[1:]))


def test_photo_throughput_sublinear_in_clock():
    layers = wl.load_workload(bundled_workload("resnet50"))
    gemms = wl.lower_to_gemms(layers, batch=8)
    base_cfg = photo(1e9)
    du = nonlinear.DigitalUnitConfig(lanes=128, f_c=1e9)
    base = timing.inferences_per_second(
        8, timing.workload_timelines(gemms, base_cfg, du), base_cfg)
    for k in (3, 5, 10):
        cfg = photo(k * 1e9)
        du = nonlinear.DigitalUnitConfig(lanes=128, f_c=cfg.f_c)
        ips = timing.inferences_per_second(
            8, timing.workload_timelines(gemms, cfg, du), cfg)
        assert ips < k * base


_TAGS = st.sampled_from(wl.NONGEMM_TAGS)
_NONGEMM = st.builds(wl.NonGemmOp, tag=_TAGS, elems=st.integers(1, 5000))
_OPS = st.lists(_NONGEMM, max_size=2).map(tuple)
_LSTM = st.builds(
    lambda h, i, s, ops: wl.LayerSpec("lstm_cell", dict(hidden=h, input=i, seq_len=s), ops),
    st.integers(1, 300), st.integers(1, 300), st.integers(1, 12), _OPS)
_DENSE = st.builds(
    lambda i, o, ops: wl.LayerSpec("dense", dict(in_features=i, out_features=o), ops),
    st.integers(1, 600), st.integers(1, 600), _OPS)
_ELTWISE = st.builds(lambda ops: wl.LayerSpec("elementwise_block", {}, tuple(ops)),
                     st.lists(_NONGEMM, min_size=1, max_size=2))
_MAYBE_ELTWISE = st.lists(_ELTWISE, max_size=1)
# Elementwise blocks may open the network, follow any GEMM layer and close it.
_LAYER_LISTS = st.builds(
    lambda lead, body: lead + [l for gemm, tail in body for l in [gemm] + tail],
    _MAYBE_ELTWISE,
    st.lists(st.tuples(st.one_of(_LSTM, _DENSE), _MAYBE_ELTWISE), min_size=1, max_size=5))


@st.composite
def _accelerators(draw):
    core = draw(st.sampled_from(["photo_core", "systolic_array"]))
    if core == "photo_core":
        dataflow, modes = "WS", ["data", "tile", "wdm"]
    else:
        dataflow, modes = draw(st.sampled_from(["WS", "OS", "IS"])), ["data", "tile"]
    mode = draw(st.sampled_from(modes))
    return AcceleratorConfig(
        core=core, m=draw(st.integers(2, 64)),
        f_c=draw(st.sampled_from([1e9, 2.5e9, 10e9])), dataflow=dataflow,
        n_cores=draw(st.integers(1, 4)), parallel_mode=mode,
        n_wdm=draw(st.integers(1, 4)) if mode == "wdm" else 1)


@settings(deadline=None)
@given(layers=_LAYER_LISTS, cfg=_accelerators(), batch=st.integers(1, 8),
       pipelining=st.booleans())
def test_timeline_reuse_matches_per_gemm_timing(layers, cfg, batch, pipelining):
    gemms = wl.lower_to_gemms(layers, batch=batch)
    du = nonlinear.DigitalUnitConfig(lanes=cfg.m, f_c=cfg.f_c)
    tls = timing.workload_timelines(gemms, cfg, du, pipelining)
    assert tls == [timing.gemm_timeline(g, cfg, du, pipelining) for g in gemms]
    distinct = [replace(g) for g in gemms]
    assert len({id(g) for g in distinct}) == len(distinct)
    assert timing.workload_timelines(distinct, cfg, du, pipelining) == tls
    lstm_steps = sum(l.dims["seq_len"] for l in layers if l.kind == "lstm_cell")
    others = sum(l.kind in ("dense", "conv2d", "attention_proj") for l in layers)
    assert len(gemms) == lstm_steps + others
    assert sum(t.mac_count for t in tls) == wl.workload_mac_count(layers, batch)
