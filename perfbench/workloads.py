"""The benchmark's three workloads, as seeded streams of operations.

Each workload yields passes: lists of operations that together cover every
input class once, in a seeded order.  An operation is the timed call into
lightmesh plus an output check and the canonical simulated output that the
run's fingerprint digests; neither of those is timed.
"""

from __future__ import annotations

import inspect
import itertools
import json
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

SRAM_NOMINAL = 100 * 10 ** 6
SRAM_BAND = 0.05          # act_sram_bytes drawn from +/-5% around nominal
FINE_BINS = 20000
MESH_EPS = 1e-3           # eps_phi = eps_dc
MESH_CALLS = ((32, 16), (64, 4))  # (m, trials), alternating


@dataclass
class Op:
    label: str                              # input class
    call: Callable[[], object]              # the timed call
    check: Callable[[object], list[str]]    # problems with the result
    output: Callable[[object], bytes]       # canonical simulated output


def check_simulation(lm, report: dict, layers, scheme: str) -> list[str]:
    """Invariants of one simulated design point, from its report dict."""
    problems = []
    batch = report["batch"]
    if batch < 1:
        problems.append(f"batch {batch} < 1")
    macs = sum(layer["mac_count"] for layer in report["layers"])
    expected = lm.workload_mac_count(layers, batch)
    if macs != expected:
        problems.append(f"layer MACs {macs} != workload MACs {expected}")
    roof = report["roofline"]
    bound = min(roof["peak_ips"], roof["mem_ceiling_ips"])
    if report["ips"] > bound * (1 + 1e-9):
        problems.append(f"IPS {report['ips']} above roofline bound {bound}")
    if scheme == "optimized":
        if not (report["trace_feasible"] and report["transfer_hidden"]):
            problems.append("optimized schedule infeasible or transfer not hidden")
    elif report["trace_peak_bytes"] > report["accelerator"]["act_sram_bytes"] / 2:
        problems.append("double-buffered trace peak exceeds half the SRAM")
    return problems


def _canonical(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True).encode()


def _sram_draws(rng) -> Iterator[int]:
    """Distinct act_sram_bytes values, one per pass, so no design point repeats."""
    lo = round(SRAM_NOMINAL * (1 - SRAM_BAND))
    hi = round(SRAM_NOMINAL * (1 + SRAM_BAND))
    seen = set()
    while True:
        value = int(rng.integers(lo, hi + 1))
        if value not in seen:
            seen.add(value)
            yield value


def rnnt_sweep(lm, cfg, layers, seed: int) -> Iterator[list[Op]]:
    """One operation is one design point through run_sweep (automatic batch,
    optimized buffering); a pass covers the 24 points of the m x f_c x core grid."""
    path = lm.bundled_workload("rnnt")
    # Stay on one core: pass workers=1 only while run_sweep still has a pool.
    extra = ({"workers": 1}
             if "workers" in inspect.signature(lm.run_sweep).parameters else {})
    grid = list(itertools.product((32, 64, 128, 256), (5e9, 10e9, 20e9),
                                  ("photo_core", "systolic_array")))
    rng = np.random.default_rng(seed)
    for sram in _sram_draws(rng):
        sub = cfg.with_accelerator(act_sram_bytes=sram)
        ops = []
        for i in rng.permutation(len(grid)):
            m, f_c, core = grid[i]
            axes = {"m": [m], "f_c": [f_c], "core": [core], "dataflow": ["OS"]}

            def check(reports):
                if len(reports) != 1:
                    return [f"{len(reports)} reports for one design point"]
                return check_simulation(lm, reports[0].to_dict(), layers["rnnt"],
                                        "optimized")

            ops.append(Op(
                label=f"{core}/m={m}/f_c={f_c:g}",
                call=lambda axes=axes: lm.run_sweep(path, sub, axes=axes, **extra),
                check=check,
                output=lambda reports: b"".join(_canonical(r.to_dict()) for r in reports)))
        yield ops


def fine_trace(lm, cfg, layers, seed: int) -> Iterator[list[Op]]:
    """One operation is run_simulation (automatic batch, bins=20000) followed
    by emit_report(..., "json"); a pass covers resnet50 and bertlarge under
    both buffering schemes."""
    inputs = list(itertools.product(("resnet50", "bertlarge"), ("optimized", "double")))
    rng = np.random.default_rng(seed)
    for sram in _sram_draws(rng):
        sub = cfg.with_accelerator(act_sram_bytes=sram)
        ops = []
        for i in rng.permutation(len(inputs)):
            name, scheme = inputs[i]
            path = lm.bundled_workload(name)

            def call(path=path, scheme=scheme):
                report = lm.run_simulation(path, sub, buffering_scheme=scheme,
                                           bins=FINE_BINS)
                return lm.emit_report(report, "json")

            ops.append(Op(
                label=f"{name}/{scheme}",
                call=call,
                check=lambda text, name=name, scheme=scheme: check_simulation(
                    lm, json.loads(text), layers[name], scheme),
                output=str.encode))
        yield ops


def mesh_mc(lm, cfg, layers, seed: int) -> Iterator[list[Op]]:
    """One operation is one measure_matrix_error call under naive programming,
    alternating (m=32, 16 trials) and (m=64, 4 trials); the noise seed is the
    run seed plus the operation index."""
    c1, c2, _ = lm.mesh.DEFAULT_ERROR_CONSTANTS
    for index in itertools.count(0, len(MESH_CALLS)):
        ops = []
        for k, (m, trials) in enumerate(MESH_CALLS):
            op_index = index + k
            noise = lm.NoiseSpec(eps_phi=MESH_EPS, eps_dc=MESH_EPS, seed=seed + op_index)
            law = c1 * m * MESH_EPS ** 2 + c2 * m * MESH_EPS ** 2

            def check(result, m=m, trials=trials, law=law, op_index=op_index):
                mean, samples = result
                problems = []
                if len(samples) != trials or not np.all(np.isfinite(samples)):
                    problems.append(f"expected {trials} finite samples")
                if not 0.5 <= mean / law <= 2.0:
                    problems.append(f"mean dM^2 {mean:.3e} not within 2x of law {law:.3e}")
                # One noise-free reconstruction of a random tile per operation.
                tile = np.random.default_rng([seed, op_index]).normal(size=(m, m))
                err = np.max(np.abs(lm.mesh_matrix(lm.program_tile(tile)) - tile))
                if not err < 1e-9:
                    problems.append(f"noise-free reconstruction error {err:.2e}")
                return problems

            ops.append(Op(
                label=f"m={m}/trials={trials}",
                call=lambda m=m, noise=noise, trials=trials: lm.measure_matrix_error(
                    m, noise, trials),
                check=check,
                output=lambda result: (np.float64(result[0]).tobytes()
                                       + np.asarray(result[1], dtype=np.float64).tobytes())))
        yield ops


WORKLOADS = {"rnnt-sweep": rnnt_sweep, "fine-trace": fine_trace, "mesh-mc": mesh_mc}
