"""The seed-sweep script, run end to end on two seeds at the tiny config."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import write_config

SWEEP = Path(__file__).resolve().parent.parent / "scripts" / "sweep.py"


def test_two_seed_sweep_reports_every_seed(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "sweep"
    proc = subprocess.run([sys.executable, str(SWEEP), "--seeds", "3", "131",
                           "--config", config, "--out", str(out)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((out / "sweep.json").read_text())
    assert doc["seeds"] == [3, 131] and doc["jobs"] == 2
    assert [r["seed"] for r in doc["runs"]] == [3, 131]
    for record in doc["runs"]:
        report = json.loads((out / f"seed{record['seed']}" / "reports" /
                             "report.json").read_text())
        # every check is reported, passed or not
        assert record["checks"] == report["checks"] and len(record["checks"]) == 12
        assert record["checks_passed"] == sum(c["passed"] for c in report["checks"])
        assert (record["seed"] in doc["seeds_passed"]) == report["passed"]
        ms = report["matrix_summary"]
        assert record["deltas"] == {
            "ood": ms["shortcut_aware"]["mean_ood"] - ms["standard"]["mean_ood"],
            "iid": ms["shortcut_aware"]["mean_iid"] - ms["standard"]["mean_iid"]}
        cells = record["sfd_cells"]
        assert len(cells) == 12  # 2 audited modes x 6 o.o.d. cells
        assert all(c["n_success"] + c["n_fail"] == 120 for c in cells)  # TINY n_test
    # the seeds really differ, so each ran in its own directory
    assert doc["runs"][0]["deltas"] != doc["runs"][1]["deltas"]
    assert sum(doc["check_pass_counts"].values()) == \
        sum(r["checks_passed"] for r in doc["runs"])


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-a-file"])
def test_unusable_out_exits_2_without_traceback(tmp_path, sub):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    proc = subprocess.run([sys.executable, str(SWEEP), "--seeds", "3",
                           "--config", write_config(tmp_path), "--out", str(blocker / sub)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert blocker.read_text() == "not a directory"
