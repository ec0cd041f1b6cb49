"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every tolerance is fixed here; nothing is calibrated at test time.
"""

import math

import numpy as np
import pytest

from lightmesh import (buffering, energy, mesh, nonlinear, sim, timing,
                       workload as wl)
from lightmesh.config import bundled_workload, load_config
from lightmesh.energy import DeviceParams
from lightmesh.mesh import DEFAULT_ERROR_CONSTANTS, NoiseSpec
from lightmesh.timing import AcceleratorConfig, MemoryTrace

BUNDLED = ("resnet50", "bertlarge", "rnnt")


def check(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def cfg():
    return load_config()


def test_criterion_01_dac_scaling(cfg):
    p = cfg.devices
    vals = {bits: energy.dac_power(bits, 10e9, p) for bits in (14, 12, 10)}
    ok = (float(f"{vals[14]:.4g}") == 0.177
          and float(f"{vals[12]:.4g}") == 0.04425
          and float(f"{vals[10]:.4g}") == 0.01106)
    check(1, "DAC power reproduces 177/44.25/11.06 mW at 10 GS/s", ok,
          f"got {vals[14]*1e3:.4g}/{vals[12]*1e3:.4g}/{vals[10]*1e3:.4g} mW")


def test_criterion_02_laser_power_formula():
    rng = np.random.default_rng(2024)
    q = 1.602176634e-19
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 600))
        f_c = float(rng.uniform(1e8, 2e10))
        b_out = int(rng.integers(2, 13))
        p = DeviceParams(kappa=float(rng.uniform(0.5, 6)), b_out=b_out,
                         eta_det=float(rng.uniform(0.2, 1.0)),
                         eta_laser=float(rng.uniform(0.05, 1.0)),
                         eta_mod_db=float(rng.uniform(0.0, 4.0)),
                         eta_cpl_db=float(rng.uniform(0.0, 4.0)),
                         mzi_loss_db=float(rng.uniform(0.001, 0.1)))
        eta = (p.eta_det * 10 ** (-p.mzi_loss_db * (2 * m + 1) / 10)
               * 10 ** (-p.eta_mod_db / 10) * 10 ** (-p.eta_cpl_db / 10)
               * p.eta_laser)
        want = (p.kappa * 2 ** b_out) ** 2 * q * f_c / 4 / eta
        got = energy.laser_power_per_channel(m, f_c, p)
        worst = max(worst, abs(got - want) / want)
    ratio_ok = all(
        energy.laser_power_per_channel(2 * m, 1e9, DeviceParams())
        / energy.laser_power_per_channel(m, 1e9, DeviceParams())
        == pytest.approx(10 ** (0.008 * m), rel=1e-12)
        for m in (8, 32, 128))
    check(2, "laser link budget matches independent derivation and 2m+1 path law",
          worst <= 1e-9 and ratio_ok, f"worst rel err {worst:.2e}")


def test_criterion_03_mesh_round_trip():
    rng = np.random.default_rng(33)
    worst = 0.0
    counts_ok = True
    for m in (4, 8, 16, 32):
        for _ in range(50):
            tile = rng.uniform(-1, 1, (m, m))
            prog = mesh.program_tile(tile)
            counts_ok &= (len(prog.phi_u) == m * (m - 1) // 2
                          and len(prog.phi_v) == m * (m - 1) // 2)
            v = rng.uniform(-1, 1, m)
            ref = tile @ v
            rel = np.linalg.norm(mesh.mesh_forward(prog, v) - ref) / np.linalg.norm(ref)
            worst = max(worst, rel)
    check(3, "programmed-mesh MVM matches direct product to 1e-7, phase counts exact",
          worst <= 1e-7 and counts_ok, f"worst rel err {worst:.2e}")


def test_criterion_04_output_precision():
    c1, _, c3 = DEFAULT_ERROR_CONSTANTS
    eps_dc = 1e-3
    # phase error equivalent, under the calibrated model, of the 12-bit
    # weight step (sigma_q = step/sqrt(12), step = 2^-11 over [-1, 1])
    sigma_q12 = 2.0 ** -11 / math.sqrt(12)
    eps_phi = sigma_q12 / math.sqrt(c1)
    trials = 500
    rms = {}
    for m in (32, 64):
        children = np.random.SeedSequence(404 + m).spawn(trials)
        errs = np.empty(trials)
        for t in range(trials):
            rng = np.random.default_rng(children[t])
            tile = rng.uniform(-1, 1, (m, m))
            tile_q = mesh.quantize_midrise(tile, 12)
            prog = mesh.program_tile(tile_q)
            # half-swing inputs keep the output converter in its linear
            # range; clipping is range engineering, not precision budget
            v = rng.uniform(-0.5, 0.5, m)
            spec = NoiseSpec(eps_phi=eps_phi, eps_dc=0.0, b_in=10, b_out=16,
                             seed=int(rng.integers(0, 2 ** 31)))
            out = mesh.mesh_forward(prog, v, spec)
            # normalized per-element error against the unquantized target
            errs[t] = np.sum((out - tile @ v) ** 2) / (prog.scale ** 2 * m)
        # error-corrected coupler residue enters analytically (tiny here)
        rms[m] = math.sqrt(errs.mean() + c3 * m ** 2 * eps_dc ** 4 / 3)
    bound = 2.0 ** -8
    at_desk = rms[32] <= bound and rms[64] <= bound
    # linear trend of the squared error in m, extrapolated to 256
    slope = max(0.0, (rms[64] ** 2 - rms[32] ** 2) / 32)
    err256 = math.sqrt(rms[32] ** 2 + slope * (256 - 32)
                       + c3 * 256 ** 2 * eps_dc ** 4 / 3)
    check(4, "8-bit output precision at m<=64 and extrapolated at m=256",
          at_desk and err256 <= bound,
          f"rms32 {rms[32]:.2e}, rms64 {rms[64]:.2e}, "
          f"extrapolated rms256 {err256:.2e}, bound {bound:.2e}")


def test_criterion_05_naive_noise_scaling():
    eps = 1e-3
    means = {}
    for m in (8, 16, 32):
        means[m], _ = mesh.measure_matrix_error(
            m, NoiseSpec(eps_phi=eps, seed=55), trials=200)
    r1 = means[16] / means[8]
    r2 = means[32] / means[16]
    check(5, "naive matrix-error slope dM^2(2m)/dM^2(m) within [1.5, 2.7]",
          1.5 <= r1 <= 2.7 and 1.5 <= r2 <= 2.7,
          f"8->16: {r1:.3f}, 16->32: {r2:.3f}")


def test_criterion_06_buffering_optimality(cfg):
    rng = np.random.default_rng(66)
    all_opt = True
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        x_max = int(rng.integers(1, 17))
        usage = rng.integers(0, x_max + 1, n).astype(float)
        x_input = int(rng.integers(0, 17))
        bw = float(rng.integers(1, 6))
        tr = MemoryTrace(dt=1.0, usage=usage, act_sram_bytes=x_max)
        sched = buffering.solve_schedule(tr, x_input, x_max, bw)
        all_opt &= buffering.verify_optimal(tr, x_input, x_max, bw, sched)

    batches = {}
    for name in BUNDLED:
        layers = wl.load_workload(bundled_workload(name))
        ducfg = cfg.digital_unit_config()
        b_opt, _ = buffering.max_batch(layers, cfg.accelerator, ducfg, n_points=501)
        b_db = buffering.double_buffering_batch(layers, cfg.accelerator, ducfg,
                                                n_points=501)
        batches[name] = (b_db, b_opt)
    db_le_opt = all(db <= opt for db, opt in batches.values())

    flat = ([wl.LayerSpec(kind="dense", dims=dict(in_features=16, out_features=4096))]
            + [wl.LayerSpec(kind="dense", dims=dict(in_features=4096, out_features=4096))] * 4
            + [wl.LayerSpec(kind="dense", dims=dict(in_features=4096, out_features=16))])
    flat_cfg = AcceleratorConfig(core="photo_core", m=128, f_c=1e9,
                                 act_sram_bytes=4 * 4096 * 10,
                                 pcie_bytes_per_sec=1e12)
    fb_opt, _ = buffering.max_batch(flat, flat_cfg, n_points=401)
    fb_db = buffering.double_buffering_batch(flat, flat_cfg, n_points=401)
    check(6, "greedy schedule optimal on 1000 instances; double <= optimized; "
             "flat-usage ratio exactly 2",
          all_opt and db_le_opt and fb_opt == 2 * fb_db,
          f"batches {batches}, flat {fb_db}->{fb_opt}")


def test_criterion_07_throughput_shape(cfg):
    acc = cfg.accelerator
    shape_ok = True
    detail = []
    for name in BUNDLED:
        layers = wl.load_workload(bundled_workload(name))
        du = cfg.digital_unit_config()
        ips = []
        for b in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            gemms = wl.lower_to_gemms(layers, batch=b)
            ips.append(timing.inferences_per_second(
                b, timing.workload_timelines(gemms, acc, du), acc))
        mono = all(y >= x * (1 - 1e-9) for x, y in zip(ips, ips[1:]))
        ratios = [y / x for x, y in zip(ips, ips[1:])]
        saturating = all(r2 <= r1 + 1e-9 for r1, r2 in zip(ratios, ratios[1:]))
        shape_ok &= mono and saturating
        detail.append(f"{name} sat {ips[-1]:.0f}")

    layers = wl.load_workload(bundled_workload("resnet50"))
    gemms = wl.lower_to_gemms(layers, batch=8)
    sub = []
    for f in (1e9, 10e9):
        a = AcceleratorConfig(core="photo_core", m=128, f_c=f)
        du = nonlinear.DigitalUnitConfig(lanes=128, f_c=f)
        sub.append(timing.inferences_per_second(
            8, timing.workload_timelines(gemms, a, du), a))
    sublinear = sub[1] < 10 * sub[0]

    linear = True
    base = None
    for k in (1, 3, 10):
        a = AcceleratorConfig(core="systolic_array", m=128, f_c=k * 1e9, dataflow="OS")
        du = nonlinear.DigitalUnitConfig(lanes=128, f_c=a.f_c)
        v = timing.inferences_per_second(
            8, timing.workload_timelines(gemms, a, du), a)
        base = base or v
        linear &= abs(v - k * base) <= 1e-9 * k * base
    check(7, "IPS(batch) monotone+saturating; photo sub-linear in clock; "
             "SA replicas exactly linear",
          shape_ok and sublinear and linear,
          f"{'; '.join(detail)}; 10GHz/1GHz={sub[1]/sub[0]:.2f}")


def test_criterion_08_directional_sweep(cfg):
    reports = sim.run_sweep(str(bundled_workload("resnet50")), cfg,
                            axes={"m": [64, 128, 256]}, bins=500)
    by_m = {r.accelerator["m"]: r for r in reports}
    eff = {m: r.ips_per_w for m, r in by_m.items()}
    share = {m: r.power.watts["laser"] / r.power.total_w for m, r in by_m.items()}
    best = max(eff, key=eff.get)
    increasing = share[64] < share[128] < share[256]
    check(8, "photo-core sweep ranks m=128 best in IPS/W; laser share rises with m",
          best == 128 and increasing,
          "IPS/W " + ", ".join(f"m{m}={eff[m]:.0f}" for m in (64, 128, 256))
          + "; laser share " + ", ".join(f"{100*share[m]:.0f}%" for m in (64, 128, 256)))


def test_criterion_09_parallelism_identities(cfg):
    identical = True
    for name in BUNDLED:
        layers = wl.load_workload(bundled_workload(name))
        gemms = wl.lower_to_gemms(layers, batch=32)
        du = cfg.digital_unit_config()
        for n in (2, 4):
            data = cfg.with_accelerator(n_cores=n, parallel_mode="data").accelerator
            wdm = cfg.with_accelerator(n_wdm=n, parallel_mode="wdm").accelerator
            td = timing.total_cycles(timing.workload_timelines(gemms, data, du))
            tw = timing.total_cycles(timing.workload_timelines(gemms, wdm, du))
            identical &= td == tw

    m, n, zeta = 128, 4, cfg.accelerator.zeta
    data = cfg.with_accelerator(n_cores=n, parallel_mode="data").accelerator
    wdm = cfg.with_accelerator(n_wdm=n, parallel_mode="wdm").accelerator
    cd = energy._device_counts(data, cfg.devices)
    cw = energy._device_counts(wdm, cfg.devices)
    deltas_ok = (cd["mzis"] - cw["mzis"] == (n - 1) * m * m
                 and cd["weight_dacs"] - cw["weight_dacs"]
                 == (n - 1) * math.ceil(m * m / zeta))

    plan = wl.plan_tiles(wl.GemmOp(300, 200, 500, 0), 128)  # 6 tiles
    serial_cfg = cfg.accelerator
    tile_cfg = cfg.with_accelerator(n_cores=16, parallel_mode="tile").accelerator
    serial = timing.photo_core_gemm_cycles(plan, serial_cfg).total
    par = timing.photo_core_gemm_cycles(
        plan, tile_cfg, timing.apply_parallelism(plan, tile_cfg)).total
    bounded = serial / par <= 6.0 + 1e-12
    check(9, "WDM(n) == data(n) cycles; (n-1)m^2 MZI and (n-1)ceil(m^2/zeta) "
             "weight-DAC savings; tile speedup bounded by tile count",
          identical and deltas_ok and bounded,
          f"tile speedup {serial / par:.2f} on 6 tiles / 16 cores")


def test_criterion_10_ablation_ordering(cfg):
    never_worse = True
    helps = {}
    for name in BUNDLED:
        layers = wl.load_workload(bundled_workload(name))
        gemms = wl.lower_to_gemms(layers, batch=16)
        du = cfg.digital_unit_config()
        piped = timing.total_cycles(
            timing.workload_timelines(gemms, cfg.accelerator, du, pipelining=True))
        serial = timing.total_cycles(
            timing.workload_timelines(gemms, cfg.accelerator, du, pipelining=False))
        never_worse &= piped <= serial
        helps[name] = serial - piped
    strictly_helps = all(v > 0 for v in helps.values())

    rnnt = str(bundled_workload("rnnt"))
    opt = sim.run_simulation(rnnt, cfg, buffering_scheme="optimized", bins=500)
    dbl = sim.run_simulation(rnnt, cfg, buffering_scheme="double", bins=500)
    check(10, "pipelining never increases latency and helps every bundled "
              "workload; optimized buffering beats double buffering on rnnt",
          never_worse and strictly_helps and opt.ips > dbl.ips,
          f"saved cycles {helps}; rnnt IPS {opt.ips:.0f} (b={opt.batch}) vs "
          f"{dbl.ips:.0f} (b={dbl.batch})")
