"""Golden-report regression: bundled workloads x both cores must reproduce
the stored JSON reports byte for byte.

Each point stores the SHA-256 of `emit_report(r, "json")` plus a few
headline figures, so a failure names the figure that moved.  An intended
change to the reports regenerates the data with

    PYTHONPATH=src python tests/test_golden.py

and lists the change in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lightmesh import sim
from lightmesh.config import bundled_workload, load_config
from lightmesh.report import emit_report

GOLDEN = Path(__file__).parent / "golden" / "reports.json"
WORKLOADS = ("rnnt", "resnet50", "bertlarge")
CORES = {"photo_core-WS": ("photo_core", "WS"),
         "systolic_array-OS": ("systolic_array", "OS")}
HEADLINES = ("batch", "total_cycles", "ips", "total_w")


def _point(workload: str, core_key: str) -> dict:
    core, dataflow = CORES[core_key]
    cfg = load_config().with_accelerator(core=core, dataflow=dataflow)
    rep = sim.run_simulation(str(bundled_workload(workload)), cfg)
    text = emit_report(rep, "json")
    parsed = json.loads(text)
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            **{k: parsed[k] for k in HEADLINES}}


def _key(workload: str, core_key: str) -> str:
    return f"{workload}/{core_key}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("core_key", sorted(CORES))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_report_matches_golden(golden, workload, core_key):
    want = golden[_key(workload, core_key)]
    got = _point(workload, core_key)
    assert {k: got[k] for k in HEADLINES} == {k: want[k] for k in HEADLINES}
    assert got["sha256"] == want["sha256"]


if __name__ == "__main__":
    data = {_key(w, c): _point(w, c) for w in WORKLOADS for c in sorted(CORES)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(data)} points to {GOLDEN}")
