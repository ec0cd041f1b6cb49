"""Workload ingestion and GEMM lowering.

A workload is a declarative list of layers (conv2d / dense / lstm_cell /
attention_proj / elementwise_block).  Convolutions are lowered to matrix
multiplies via im2col bookkeeping, LSTM cells to one fused gate GEMM per
time step, and attention projections to plain panel GEMMs.  Non-GEMM work
(activations, pools, normalizations, elementwise arithmetic) rides along as
ordered op tags attached to the producing GEMM.

The time steps of an LSTM layer are identical, so the lowered list holds one
shared `GemmOp` object `seq_len` times (run-length lowering).  Object
identity therefore does not identify a time step; use list positions.

File format (JSON, field names normative):

    {"name": ..., "layers": [
        {"kind": "conv2d", "dims": {...}, "nongemm": [{"tag": ..., "elems": ...}],
         "batch": 1},
        ...]}

`elems` in the file is a per-sample count; lowering multiplies it by the
effective batch.  Spatial convolution dims must already include padding, and
strides must divide (in_h - kernel_h) / (in_w - kernel_w) exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

LAYER_KINDS = ("conv2d", "dense", "lstm_cell", "attention_proj", "elementwise_block")

NONGEMM_TAGS = (
    "relu", "gelu", "softmax", "sigmoid", "tanh", "layernorm",
    "maxpool", "avgpool", "add", "mul", "exp", "div", "sqrt", "max_reduce",
)


class WorkloadError(ValueError):
    """Raised for malformed workload files or invariant violations."""


@dataclass(frozen=True)
class NonGemmOp:
    tag: str
    elems: int

    def __post_init__(self):
        if self.tag not in NONGEMM_TAGS:
            raise WorkloadError(f"unknown non-GEMM tag {self.tag!r}")
        if self.elems < 1:
            raise WorkloadError(f"non-GEMM op {self.tag!r}: elems must be >= 1, got {self.elems}")


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    dims: dict
    nongemm_ops: tuple[NonGemmOp, ...] = ()
    batch: int = 1
    name: str = ""

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise WorkloadError(f"layer {self.name!r}: unknown kind {self.kind!r}")
        if self.batch < 1:
            raise WorkloadError(f"layer {self.name!r}: batch must be >= 1")
        _validate_dims(self)


@dataclass(frozen=True)
class GemmOp:
    """One lowered matrix multiply: (rows_w x cols_w) weights times a
    (cols_w x n_vec) input panel, plus trailing non-GEMM ops on the output."""

    rows_w: int
    cols_w: int
    n_vec: int
    source_layer: int
    nongemm_ops: tuple[NonGemmOp, ...] = ()

    def __post_init__(self):
        if min(self.rows_w, self.cols_w, self.n_vec) < 1:
            raise WorkloadError(
                f"GemmOp dims must be >= 1, got ({self.rows_w}, {self.cols_w}, {self.n_vec})"
            )

    @property
    def macs(self) -> int:
        return self.rows_w * self.cols_w * self.n_vec


@dataclass(frozen=True)
class TilePlan:
    gemm: GemmOp
    m: int
    row_tiles: int
    col_tiles: int

    @property
    def total_tiles(self) -> int:
        return self.row_tiles * self.col_tiles

    def tile_dims(self):
        """Yield (tile_rows, tile_cols) for every tile, edge tiles truncated."""
        for r in range(self.row_tiles):
            tr = min(self.m, self.gemm.rows_w - r * self.m)
            for c in range(self.col_tiles):
                tc = min(self.m, self.gemm.cols_w - c * self.m)
                yield tr, tc


_REQUIRED_DIMS = {
    "conv2d": ("in_ch", "out_ch", "kernel_h", "kernel_w", "stride", "in_h", "in_w"),
    "dense": ("in_features", "out_features"),
    "lstm_cell": ("hidden", "input", "seq_len"),
    "attention_proj": ("d_model", "d_proj", "seq_len"),
    "elementwise_block": (),
}


def _validate_dims(layer: LayerSpec) -> None:
    dims = layer.dims
    for key in _REQUIRED_DIMS[layer.kind]:
        if key not in dims:
            raise WorkloadError(f"layer {layer.name!r} ({layer.kind}): missing dim {key!r}")
        if not isinstance(dims[key], int) or dims[key] < 1:
            raise WorkloadError(
                f"layer {layer.name!r} ({layer.kind}): dim {key!r} must be a positive "
                f"integer, got {dims[key]!r}"
            )
    if layer.kind == "conv2d":
        for axis in ("h", "w"):
            span = dims[f"in_{axis}"] - dims[f"kernel_{axis}"]
            if span < 0:
                raise WorkloadError(
                    f"layer {layer.name!r}: kernel_{axis} exceeds in_{axis} "
                    f"({dims[f'kernel_{axis}']} > {dims[f'in_{axis}']})"
                )
            if span % dims["stride"] != 0:
                raise WorkloadError(
                    f"layer {layer.name!r}: stride {dims['stride']} does not divide "
                    f"in_{axis} - kernel_{axis} = {span} (fold padding into in_{axis})"
                )


def conv_out_hw(dims: dict) -> tuple[int, int]:
    oh = (dims["in_h"] - dims["kernel_h"]) // dims["stride"] + 1
    ow = (dims["in_w"] - dims["kernel_w"]) // dims["stride"] + 1
    return oh, ow


def load_workload(path) -> list[LayerSpec]:
    """Parse and validate a workload file, returning layers in execution order."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise WorkloadError(f"cannot read workload file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise WorkloadError(f"{path}: parse error at line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict) or "layers" not in raw:
        raise WorkloadError(f"{path}: top level must be an object with a 'layers' list")
    layers = []
    for i, entry in enumerate(raw["layers"]):
        ctx = f"{path}: layers[{i}]"
        if not isinstance(entry, dict) or "kind" not in entry:
            raise WorkloadError(f"{ctx}: each layer needs a 'kind' field")
        try:
            ops = tuple(
                NonGemmOp(tag=op["tag"], elems=op["elems"])
                for op in entry.get("nongemm", [])
            )
            layers.append(LayerSpec(
                kind=entry["kind"],
                dims=dict(entry.get("dims", {})),
                nongemm_ops=ops,
                batch=entry.get("batch", 1),
                name=entry.get("name", f"layer{i}"),
            ))
        except WorkloadError as exc:
            raise WorkloadError(f"{ctx}: {exc}") from exc
        except KeyError as exc:
            raise WorkloadError(f"{ctx}: nongemm entries need 'tag' and 'elems'") from exc
    return layers


def _scaled_ops(layer: LayerSpec, batch: int) -> tuple[NonGemmOp, ...]:
    return tuple(replace(op, elems=op.elems * batch) for op in layer.nongemm_ops)


def lower_to_gemms(layers: list[LayerSpec], batch: int | None = None) -> list[GemmOp]:
    """Lower a validated layer list to GEMMs in execution order.

    `batch` overrides every layer's declared batch when given.  Elementwise
    blocks produce no GEMM; their ops are attached to the preceding GEMM (or
    to the first GEMM that follows, if they open the network).

    An LSTM layer yields `seq_len` list entries that are all the same
    `GemmOp` object, except that a pending prefix makes the first step its
    own object and a following elementwise block replaces the last step.
    """
    gemms: list[GemmOp] = []
    pending: list[NonGemmOp] = []

    def emit(rows, cols, nvec, idx, ops, repeat=1):
        nonlocal pending
        first = GemmOp(rows, cols, nvec, idx, tuple(pending) + tuple(ops))
        gemms.append(first)
        if repeat > 1:
            step = GemmOp(rows, cols, nvec, idx, tuple(ops)) if pending else first
            gemms.extend([step] * (repeat - 1))
        pending = []

    for idx, layer in enumerate(layers):
        b = batch if batch is not None else layer.batch
        d = layer.dims
        ops = _scaled_ops(layer, b)
        if layer.kind == "conv2d":
            oh, ow = conv_out_hw(d)
            emit(d["out_ch"], d["in_ch"] * d["kernel_h"] * d["kernel_w"], b * oh * ow, idx, ops)
        elif layer.kind == "dense":
            emit(d["out_features"], d["in_features"], b, idx, ops)
        elif layer.kind == "attention_proj":
            emit(d["d_proj"], d["d_model"], b * d["seq_len"], idx, ops)
        elif layer.kind == "lstm_cell":
            h = d["hidden"]
            gate_ops = (
                NonGemmOp("sigmoid", 3 * h * b),
                NonGemmOp("tanh", 2 * h * b),
                NonGemmOp("mul", 3 * h * b),
                NonGemmOp("add", h * b),
            )
            emit(4 * h, d["input"] + h, b, idx, gate_ops + ops, repeat=d["seq_len"])
        elif layer.kind == "elementwise_block":
            if gemms:
                last = gemms[-1]
                gemms[-1] = replace(last, nongemm_ops=last.nongemm_ops + ops)
            else:
                pending.extend(ops)
    if pending:
        raise WorkloadError("workload contains only elementwise blocks; nothing to attach them to")
    return gemms


def plan_tiles(gemm: GemmOp, m: int) -> TilePlan:
    """Split a GEMM into m x m weight tiles (ceiling division)."""
    if m < 1:
        raise WorkloadError(f"array size must be >= 1, got {m}")
    return TilePlan(
        gemm=gemm,
        m=m,
        row_tiles=math.ceil(gemm.rows_w / m),
        col_tiles=math.ceil(gemm.cols_w / m),
    )


def layer_mac_count(layer: LayerSpec, batch: int | None = None) -> int:
    """MAC count computed directly from layer shapes (lowering oracle)."""
    b = batch if batch is not None else layer.batch
    d = layer.dims
    if layer.kind == "conv2d":
        oh, ow = conv_out_hw(d)
        return b * oh * ow * d["out_ch"] * d["in_ch"] * d["kernel_h"] * d["kernel_w"]
    if layer.kind == "dense":
        return b * d["in_features"] * d["out_features"]
    if layer.kind == "lstm_cell":
        return b * d["seq_len"] * 4 * d["hidden"] * (d["input"] + d["hidden"])
    if layer.kind == "attention_proj":
        return b * d["seq_len"] * d["d_model"] * d["d_proj"]
    return 0


def workload_mac_count(layers: list[LayerSpec], batch: int | None = None) -> int:
    return sum(layer_mac_count(layer, batch) for layer in layers)


def layer_footprint(layer: LayerSpec, batch: int | None = None) -> tuple[int, int]:
    """(input_bytes, output_bytes) of the layer's activation tensors at 1 B/elem.

    Sizes are the true tensor shapes, not the im2col-expanded panels; the
    SRAM holds activation maps and patches are re-read on the fly.
    """
    b = batch if batch is not None else layer.batch
    d = layer.dims
    if layer.kind == "conv2d":
        oh, ow = conv_out_hw(d)
        return b * d["in_ch"] * d["in_h"] * d["in_w"], b * d["out_ch"] * oh * ow
    if layer.kind == "dense":
        return b * d["in_features"], b * d["out_features"]
    if layer.kind == "lstm_cell":
        return b * d["seq_len"] * d["input"], b * d["seq_len"] * d["hidden"]
    if layer.kind == "attention_proj":
        return b * d["seq_len"] * d["d_model"], b * d["seq_len"] * d["d_proj"]
    return 0, 0


def weight_bytes(layers: list[LayerSpec], bytes_per_weight: int = 2) -> int:
    """Total weight storage: GEMM weight elements times the storage width."""
    total = 0
    for layer in layers:
        d = layer.dims
        if layer.kind == "conv2d":
            total += d["out_ch"] * d["in_ch"] * d["kernel_h"] * d["kernel_w"]
        elif layer.kind == "dense":
            total += d["in_features"] * d["out_features"]
        elif layer.kind == "lstm_cell":
            total += 4 * d["hidden"] * (d["input"] + d["hidden"])
        elif layer.kind == "attention_proj":
            total += d["d_model"] * d["d_proj"]
    return total * bytes_per_weight
