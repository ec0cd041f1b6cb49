import json

import pytest
from hypothesis import given, strategies as st

from lightmesh import workload as wl
from lightmesh.config import bundled_workload


def write_workload(tmp_path, payload):
    path = tmp_path / "w.workload"
    path.write_text(json.dumps(payload))
    return path


def test_minimal_dense_file(tmp_path):
    path = write_workload(tmp_path, {"name": "tiny", "layers": [
        {"kind": "dense", "dims": {"in_features": 4, "out_features": 4}, "batch": 1}]})
    layers = wl.load_workload(path)
    assert len(layers) == 1 and layers[0].kind == "dense"


def test_parse_error_has_line_context(tmp_path):
    path = tmp_path / "bad.workload"
    path.write_text('{"layers": [}')
    with pytest.raises(wl.WorkloadError, match="line 1"):
        wl.load_workload(path)


def test_unknown_kind_rejected(tmp_path):
    path = write_workload(tmp_path, {"layers": [{"kind": "conv3d", "dims": {}}]})
    with pytest.raises(wl.WorkloadError, match="unknown kind"):
        wl.load_workload(path)


def test_stride_not_dividing_is_rejected(tmp_path):
    path = write_workload(tmp_path, {"layers": [
        {"kind": "conv2d", "dims": {"in_ch": 1, "out_ch": 1, "kernel_h": 3,
                                    "kernel_w": 3, "stride": 3, "in_h": 5, "in_w": 5}}]})
    with pytest.raises(wl.WorkloadError, match="stride"):
        wl.load_workload(path)


def test_bad_nongemm_tag(tmp_path):
    path = write_workload(tmp_path, {"layers": [
        {"kind": "dense", "dims": {"in_features": 1, "out_features": 1},
         "nongemm": [{"tag": "swish", "elems": 4}]}]})
    with pytest.raises(wl.WorkloadError, match="swish"):
        wl.load_workload(path)


def test_conv_im2col_lowering():
    # 5x5 input, 3x3 kernel, stride 1 -> nine 27-element patches
    layer = wl.LayerSpec(kind="conv2d", dims=dict(
        in_ch=3, out_ch=2, kernel_h=3, kernel_w=3, stride=1, in_h=5, in_w=5))
    (g,) = wl.lower_to_gemms([layer])
    assert (g.rows_w, g.cols_w, g.n_vec) == (2, 27, 9)


def test_dense_lowering():
    layer = wl.LayerSpec(kind="dense", dims=dict(in_features=128, out_features=128),
                         batch=256)
    (g,) = wl.lower_to_gemms([layer])
    assert (g.rows_w, g.cols_w, g.n_vec) == (128, 128, 256)


def test_lstm_lowering_fuses_gates():
    layer = wl.LayerSpec(kind="lstm_cell", dims=dict(hidden=8, input=8, seq_len=2))
    gemms = wl.lower_to_gemms([layer])
    assert len(gemms) == 2
    for g in gemms:
        assert (g.rows_w, g.cols_w, g.n_vec) == (32, 16, 1)
        assert [op.tag for op in g.nongemm_ops] == ["sigmoid", "tanh", "mul", "add"]


def test_lstm_steps_share_one_gemm_object():
    lstm = wl.LayerSpec(kind="lstm_cell", dims=dict(hidden=8, input=8, seq_len=4))
    lead = wl.LayerSpec(kind="elementwise_block", dims={},
                        nongemm_ops=(wl.NonGemmOp("add", 4),))
    tail = wl.LayerSpec(kind="elementwise_block", dims={},
                        nongemm_ops=(wl.NonGemmOp("relu", 4),))
    gemms = wl.lower_to_gemms([lstm])
    assert all(g is gemms[0] for g in gemms)
    # a pending prefix lands on the first step only, a trailing block on the last
    a, b, c, d = wl.lower_to_gemms([lead, lstm, tail])
    assert b is c and a != b and d != c
    assert a.nongemm_ops[0].tag == "add" and d.nongemm_ops[-1].tag == "relu"
    assert a.nongemm_ops[1:] == b.nongemm_ops == d.nongemm_ops[:-1]


def test_attention_proj_lowering():
    layer = wl.LayerSpec(kind="attention_proj",
                         dims=dict(d_model=1024, d_proj=64, seq_len=384), batch=2)
    (g,) = wl.lower_to_gemms([layer])
    assert (g.rows_w, g.cols_w, g.n_vec) == (64, 1024, 768)


def test_elementwise_block_attaches_to_predecessor():
    layers = [
        wl.LayerSpec(kind="dense", dims=dict(in_features=4, out_features=4)),
        wl.LayerSpec(kind="elementwise_block", dims={},
                     nongemm_ops=(wl.NonGemmOp("maxpool", 16),)),
    ]
    (g,) = wl.lower_to_gemms(layers)
    assert [op.tag for op in g.nongemm_ops] == ["maxpool"]


def test_leading_elementwise_attaches_to_first_gemm():
    layers = [
        wl.LayerSpec(kind="elementwise_block", dims={},
                     nongemm_ops=(wl.NonGemmOp("add", 4),)),
        wl.LayerSpec(kind="dense", dims=dict(in_features=4, out_features=4)),
    ]
    (g,) = wl.lower_to_gemms(layers)
    assert g.nongemm_ops[0].tag == "add"


def test_batch_override_scales_ops_and_panels():
    layer = wl.LayerSpec(kind="dense", dims=dict(in_features=8, out_features=8),
                         nongemm_ops=(wl.NonGemmOp("relu", 8),), batch=1)
    (g,) = wl.lower_to_gemms([layer], batch=16)
    assert g.n_vec == 16 and g.nongemm_ops[0].elems == 128


def test_plan_tiles_examples():
    assert wl.plan_tiles(wl.GemmOp(128, 128, 1, 0), 128).total_tiles == 1
    plan = wl.plan_tiles(wl.GemmOp(300, 200, 1, 0), 128)
    assert (plan.row_tiles, plan.col_tiles, plan.total_tiles) == (3, 2, 6)
    assert wl.plan_tiles(wl.GemmOp(1, 1, 1, 0), 128).total_tiles == 1


@given(rows=st.integers(1, 300), cols=st.integers(1, 300), m=st.integers(1, 64))
def test_tiling_is_exhaustive_and_bracketed(rows, cols, m):
    plan = wl.plan_tiles(wl.GemmOp(rows, cols, 1, 0), m)
    covered = sum(tr * tc for tr, tc in plan.tile_dims())
    assert covered == rows * cols
    assert (plan.row_tiles - 1) * m < rows <= plan.row_tiles * m
    assert (plan.col_tiles - 1) * m < cols <= plan.col_tiles * m


@given(rows=st.integers(1, 4000), cols=st.integers(1, 4000),
       m=st.integers(1, 256), k=st.integers(1, 4))
def test_tile_count_monotone_in_m(rows, cols, m, k):
    g = wl.GemmOp(rows, cols, 1, 0)
    assert wl.plan_tiles(g, m + k).total_tiles <= wl.plan_tiles(g, m).total_tiles


@pytest.mark.parametrize("name,batch", [("resnet50", 4), ("bertlarge", 2), ("rnnt", 8)])
def test_lowering_preserves_macs_on_bundled(name, batch):
    layers = wl.load_workload(bundled_workload(name))
    gemms = wl.lower_to_gemms(layers, batch=batch)
    assert sum(g.macs for g in gemms) == wl.workload_mac_count(layers, batch)


def test_resnet50_layer_census():
    layers = wl.load_workload(bundled_workload("resnet50"))
    kinds = [l.kind for l in layers]
    assert kinds.count("conv2d") == 53           # 1 stem + 48 bottleneck + 4 downsample
    assert kinds.count("dense") == 1
    assert kinds.count("elementwise_block") == 2  # pooling blocks
    # canonical model is ~4.1 GMACs per sample
    assert wl.workload_mac_count(layers, batch=1) == pytest.approx(4.09e9, rel=0.02)


def test_footprints_positive_and_scale_with_batch():
    layers = wl.load_workload(bundled_workload("resnet50"))
    i1, o1 = wl.layer_footprint(layers[0], 1)
    i4, o4 = wl.layer_footprint(layers[0], 4)
    assert i1 > 0 and o1 > 0 and (i4, o4) == (4 * i1, 4 * o1)
