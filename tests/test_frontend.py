import csv
import io
import json
from itertools import product

import pytest

from lightmesh import cli, config, report, sim
from lightmesh.config import bundled_workload, load_config
from lightmesh.timing import ConfigError

RESNET = str(bundled_workload("resnet50"))


@pytest.fixture(scope="module")
def toy_workload(tmp_path_factory):
    path = tmp_path_factory.mktemp("wl") / "toy.workload"
    path.write_text(json.dumps({"name": "toy", "layers": [
        {"kind": "dense", "dims": {"in_features": 512, "out_features": 128},
         "nongemm": [{"tag": "relu", "elems": 128}]},
        {"kind": "dense", "dims": {"in_features": 128, "out_features": 512},
         "nongemm": [{"tag": "softmax", "elems": 512}]},
    ]}))
    return str(path)


def test_default_config_reproduces_device_constants():
    cfg = load_config()
    d = cfg.devices
    assert (d.kappa, d.b_out, d.b_in, d.b_weight) == (3.0, 8, 10, 12)
    assert (d.eta_mod_db, d.mzi_loss_db, d.eta_cpl_db) == (1.2, 0.04, 2.0)
    assert (d.eta_det, d.eta_laser) == (0.8, 0.2)
    assert (d.dac_ref.bits, d.dac_ref.power_w, d.dac_ref.rate_hz) == (14, 0.177, 10e9)
    assert (d.adc.power_w, d.adc.rate_hz) == (0.029, 5e9)
    assert d.e_o_j_per_bit == 20e-15 and d.o_e_j_per_bit == 297e-15
    assert d.dram_j_per_bit == 20e-12 and d.d2d_j_per_bit == 0.3e-12
    acc = cfg.accelerator
    assert acc.t_prog == 10e-9 and acc.zeta == 100
    assert acc.act_sram_bytes == 100e6 and acc.weight_sram_bytes == 300e6


def test_config_override_and_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"accelerator": {"m": 64, "f_c": 5e9}}))
    cfg = load_config(path)
    assert cfg.accelerator.m == 64 and cfg.accelerator.f_c == 5e9
    assert cfg.devices.kappa == 3.0  # defaults still merged
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"accelerator": {"array_size": 64}}))
    with pytest.raises(ConfigError, match="array_size"):
        load_config(bad)


def test_digital_unit_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"digital_unit": {
        "stage_cycles": {"div": [8, 16]},
        "recipes": {"relu": [["max", 2]]}}}))
    du = load_config(path).digital_unit_config(m=64, f_c=1e9)
    assert du.stage_cycles["div"] == (8, 16)
    assert du.recipes["relu"] == (("max", 2),)
    assert du.stage_cycles["add"] == (1, 1)  # untouched defaults survive


def test_run_simulation_deterministic(toy_workload):
    a = sim.run_simulation(toy_workload, batch=4)
    b = sim.run_simulation(toy_workload, batch=4)
    assert report.emit_report(a, "json") == report.emit_report(b, "json")


def test_json_round_trip(toy_workload):
    rep = sim.run_simulation(toy_workload, batch=4)
    parsed = json.loads(report.emit_report(rep, "json"))
    assert parsed == rep.to_dict() == json.loads(json.dumps(rep.to_dict()))


def test_csv_is_parseable_and_complete(toy_workload):
    rep = sim.run_simulation(toy_workload, batch=4)
    rows = list(csv.reader(io.StringIO(report.emit_report(rep, "csv"))))
    assert rows[0] == ["field", "value"]
    fields = {r[0] for r in rows[1:]}
    assert {"ips", "total_w", "power_w.laser"} <= fields


def test_table_has_power_percent_column(toy_workload):
    rep = sim.run_simulation(toy_workload, batch=4)
    table = report.emit_report(rep, "table")
    assert "%" in table and "IPS/W" in table


def test_no_pipelining_strictly_slower(toy_workload):
    fast = sim.run_simulation(toy_workload, batch=16, pipelining=True)
    slow = sim.run_simulation(toy_workload, batch=16, pipelining=False)
    assert slow.total_cycles > fast.total_cycles


def test_roofline_bound_holds_everywhere(toy_workload):
    for rep in (sim.run_simulation(toy_workload, batch=1),
                sim.run_simulation(toy_workload, batch=64),
                sim.run_simulation(RESNET, batch=4)):
        r = rep.roofline
        assert r["attained_ips"] <= min(r["peak_ips"], r["mem_ceiling_ips"]) * (1 + 1e-9)


def test_sweep_deterministic_ordering(toy_workload):
    # Axes run in sorted-name order (f_c, then m), batch varying fastest.
    axes = {"m": [64, 128], "f_c": [1e9, 10e9], "batch": [4, 8]}
    reports = sim.run_sweep(toy_workload, axes=axes)
    got = [(r.accelerator["f_c"], r.accelerator["m"], r.batch) for r in reports]
    assert got == list(product([1e9, 10e9], [64, 128], [4, 8]))
    again = sim.run_sweep(toy_workload, axes=axes)
    assert ([report.emit_report(r, "json") for r in reports]
            == [report.emit_report(r, "json") for r in again])


def test_sweep_rejects_empty_or_unknown_axes(toy_workload):
    with pytest.raises(ConfigError):
        sim.run_sweep(toy_workload, axes={})
    with pytest.raises(ConfigError):
        sim.run_sweep(toy_workload, axes={"batch": []})
    with pytest.raises(ConfigError):
        sim.run_sweep(toy_workload, axes={"voltage": [1]})


def test_compare_pairs_cores(toy_workload):
    photo, sa = sim.compare_cores(toy_workload, batch=8)
    assert photo.accelerator["core"] == "photo_core"
    assert sa.accelerator["core"] == "systolic_array"
    assert photo.batch == sa.batch == 8


def test_cli_simulate_exit_codes(toy_workload, capsys, tmp_path):
    assert cli.main(["simulate", "--workload", toy_workload, "--batch", "2"]) == 0
    out = capsys.readouterr().out
    assert "IPS" in out

    missing = cli.main(["simulate", "--workload", str(tmp_path / "nope.workload")])
    assert missing == 2

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"accelerator": {"m": 1}}')
    assert cli.main(["simulate", "--workload", toy_workload,
                     "--config", str(bad_cfg)]) == 2


def test_cli_infeasible_batch_exit_code(tmp_path, capsys):
    big = tmp_path / "big.workload"
    big.write_text(json.dumps({"name": "big", "layers": [
        {"kind": "dense", "dims": {"in_features": 200_000_000,
                                   "out_features": 16}}]}))
    assert cli.main(["simulate", "--workload", str(big)]) == 3


def test_cli_sweep_and_compare_smoke(toy_workload, capsys):
    assert cli.main(["sweep", "--workload", toy_workload, "--axis", "m=64,128",
                     "--batch", "4", "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2
    assert [r["feasible"] for r in rows] == ["True", "True"]
    assert {r["hidden"] for r in rows} <= {"True", "False"}
    assert cli.main(["compare", "--workload", toy_workload, "--batch", "4"]) == 0


def test_cli_sweep_infeasible_point_exit_code(capsys):
    # batch 500 of resnet50 peaks far above the 100 MB activation SRAM
    assert cli.main(["sweep", "--workload", "resnet50", "--axis", "m=128",
                     "--batch", "500", "--format", "json"]) == 3
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["feasible"] is False and rows[0]["hidden"] is False


def test_cli_buffer_schedule(capsys):
    assert cli.main(["buffer-schedule", "--workload", RESNET,
                     "--batch", "16", "--bins", "300",
                     "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is True
    assert len(payload["x_pcie_bytes"]) == len(payload["usage_bytes"]) == 301


def test_cli_decompose_round_trips(capsys):
    from lightmesh import mesh
    import numpy as np
    assert cli.main(["decompose", "--size", "6", "--seed", "3"]) == 0
    prog = mesh.PhaseProgram.from_dict(json.loads(capsys.readouterr().out))
    assert prog.m == 6 and len(prog.phi_u) == 15
    rng = np.random.default_rng(3)
    tile = rng.uniform(-1, 1, (6, 6))
    v = rng.uniform(-1, 1, 6)
    assert np.allclose(mesh.mesh_forward(prog, v), tile @ v, atol=1e-9)


def test_cli_precision_smoke(capsys):
    assert cli.main(["precision", "--sizes", "4,8", "--trials", "10",
                     "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["m"] for r in rows] == [4, 8]
    assert all(r["bits_naive"] <= r["bits_corrected"] + 1e-9 for r in rows)


def test_bundled_workload_lookup_error():
    with pytest.raises(ConfigError):
        config.bundled_workload("alexnet")
