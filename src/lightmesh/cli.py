"""Command-line interface.

Exit codes: 0 success, 2 configuration/input error, 3 infeasible problem
(e.g. batch 1 does not fit in SRAM), 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import buffering, mesh, sim, timing, workload
from .config import bundled_workload, load_config
from .energy import EnergyError
from .mesh import MeshError, NoiseSpec
from .report import InvariantError, emit_report, sweep_table
from .timing import ConfigError
from .workload import WorkloadError


def _add_common(parser: argparse.ArgumentParser, workload_required=True):
    parser.add_argument("--workload", required=workload_required,
                        help="workload file path, or a bundled name "
                             "(resnet50, bertlarge, rnnt)")
    parser.add_argument("--config", default=None, help="config file (JSON)")
    parser.add_argument("--format", default="table",
                        choices=("table", "csv", "json"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-pipelining", action="store_true",
                        help="disable GEMM / non-GEMM overlap")
    parser.add_argument("--double-buffering", action="store_true",
                        help="use the half-capacity double-buffering baseline")
    parser.add_argument("--bins", type=int, default=1000,
                        help="memory-trace time bins")


def _workload_path(name: str) -> str:
    if name and not name.endswith(".workload") and "/" not in name:
        try:
            return str(bundled_workload(name))
        except ConfigError:
            pass
    return name


def _scheme(args) -> str:
    return "double" if args.double_buffering else "optimized"


def _axis(value: str):
    key, _, items = value.partition("=")
    if not items:
        raise argparse.ArgumentTypeError(f"axis must look like m=64,128: {value!r}")
    parsed = []
    for item in items.split(","):
        for cast in (int, float):
            try:
                parsed.append(cast(item))
                break
            except ValueError:
                continue
        else:
            parsed.append(item)
    return key, parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightmesh",
        description="Electro-photonic DNN accelerator design-space simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one workload/configuration")
    _add_common(p)
    p.add_argument("--batch", type=int, default=None,
                   help="batch size (default: largest feasible)")

    p = sub.add_parser("sweep", help="cross-product sweep over config axes")
    _add_common(p)
    p.add_argument("--axis", action="append", type=_axis, required=True,
                   metavar="KEY=V1,V2,...",
                   help=f"sweep axis, one of {sim.SWEEP_AXES}")
    p.add_argument("--batch", type=int, default=None)

    p = sub.add_parser("compare", help="photonic core vs systolic array")
    _add_common(p)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--sa-dataflow", default="OS", choices=("OS", "WS", "IS"))

    p = sub.add_parser("buffer-schedule",
                       help="optimal next-batch transfer schedule")
    _add_common(p)
    p.add_argument("--batch", type=int, default=None)

    p = sub.add_parser("decompose", help="export mesh phases for one tile")
    _add_common(p, workload_required=False)
    p.add_argument("--size", type=int, default=8, help="tile dimension m")
    p.add_argument("--input", default=None,
                   help="JSON file holding the tile matrix (default: random)")

    p = sub.add_parser("precision", help="Monte-Carlo output-precision study")
    _add_common(p, workload_required=False)
    p.add_argument("--sizes", default="8,16,32",
                   help="comma-separated mesh sizes")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--eps-phi", type=float, default=1e-3)
    p.add_argument("--eps-dc", type=float, default=0.0)
    p.add_argument("--b-in", type=int, default=10)
    return parser


def _cmd_simulate(args) -> int:
    rep = sim.run_simulation(_workload_path(args.workload), args.config,
                             batch=args.batch,
                             pipelining=not args.no_pipelining,
                             buffering_scheme=_scheme(args), bins=args.bins)
    print(emit_report(rep, args.format))
    return 0 if rep.trace_feasible else 3


def _cmd_sweep(args) -> int:
    axes = dict(args.axis)
    if args.batch is not None:
        axes.setdefault("batch", [args.batch])
    reports = sim.run_sweep(_workload_path(args.workload), args.config, axes,
                            pipelining=not args.no_pipelining,
                            buffering_scheme=_scheme(args), bins=args.bins)
    print(sweep_table(reports, args.format))
    return 0 if all(r.trace_feasible for r in reports) else 3


def _cmd_compare(args) -> int:
    reports = sim.compare_cores(_workload_path(args.workload), args.config,
                                batch=args.batch, sa_dataflow=args.sa_dataflow,
                                pipelining=not args.no_pipelining,
                                buffering_scheme=_scheme(args), bins=args.bins)
    print(sweep_table(reports, args.format))
    return 0


def _cmd_buffer_schedule(args) -> int:
    cfg = load_config(args.config)
    layers = workload.load_workload(_workload_path(args.workload))
    ducfg = cfg.digital_unit_config()
    acc = cfg.accelerator
    batch = args.batch
    if batch is None:
        batch, sched = buffering.max_batch(layers, acc, ducfg,
                                           not args.no_pipelining, args.bins + 1)
    gemms = workload.lower_to_gemms(layers, batch=batch)
    tls = timing.workload_timelines(gemms, acc, ducfg, not args.no_pipelining)
    trace = timing.build_memory_trace(tls, layers, batch, acc, args.bins + 1)
    sched = buffering.solve_schedule(trace, buffering.next_batch_input_bytes(layers, batch),
                                     acc.act_sram_bytes, acc.pcie_bytes_per_sec)
    if args.format == "json":
        print(json.dumps({
            "batch": batch, "dt_s": trace.dt, "feasible": sched.feasible,
            "objective_bytes": sched.objective,
            "usage_bytes": trace.usage.tolist(),
            "x_pcie_bytes": sched.x_pcie.tolist()}))
    else:
        print(f"# batch={batch} feasible={sched.feasible} "
              f"objective={sched.objective:.0f}")
        print("time_s,current_batch_bytes,next_batch_bytes")
        for i, (u, x) in enumerate(zip(trace.usage, sched.x_pcie)):
            print(f"{i * trace.dt:.6e},{u:.0f},{x:.0f}")
    return 0 if sched.feasible else 3


def _cmd_decompose(args) -> int:
    if args.input:
        tile = np.asarray(json.loads(open(args.input).read()), dtype=float)
    else:
        rng = np.random.default_rng(args.seed)
        tile = rng.uniform(-1.0, 1.0, size=(args.size, args.size))
    program = mesh.program_tile(tile)
    print(json.dumps(program.to_dict()))
    return 0


def _cmd_precision(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    rows = []
    for m in sizes:
        spec = NoiseSpec(eps_phi=args.eps_phi, eps_dc=args.eps_dc,
                         b_in=args.b_in, seed=args.seed)
        mean, _ = mesh.measure_matrix_error(m, spec, args.trials)
        rows.append({
            "m": m, "mean_dm2": mean,
            "bits_naive": mesh.estimate_output_bits(m, spec, "naive"),
            "bits_corrected": mesh.estimate_output_bits(m, spec, "error_corrected"),
        })
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        print("m,mean_dm2,bits_naive,bits_corrected")
        for r in rows:
            print(f"{r['m']},{r['mean_dm2']:.6e},{r['bits_naive']:.3f},"
                  f"{r['bits_corrected']:.3f}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "buffer-schedule": _cmd_buffer_schedule,
    "decompose": _cmd_decompose,
    "precision": _cmd_precision,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except buffering.BufferingError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, WorkloadError, EnergyError, MeshError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
