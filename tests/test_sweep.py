"""The seed-sweep script, run end to end on two seeds at the tiny config."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from rmlab.cli import main
from test_cli import default_checks, kill_lock_holder, write_config

SWEEP = Path(__file__).resolve().parent.parent / "scripts" / "sweep.py"


def test_floor_names_every_check():
    # CI's floor step reads only the names in the floor, so a check without
    # one would never be enforced
    spec = importlib.util.spec_from_file_location("sweep", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    floor = json.loads((SWEEP.parent / "sweep_floor.json").read_text())
    assert sorted(floor) == sorted(c["name"] for c in default_checks())
    assert len(floor) == 12
    assert all(type(least) is int and 0 <= least <= len(sweep.DEFAULT_SEEDS)
               for least in floor.values())


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


def test_rerun_rewrites_sweep_json_and_no_seed_output(tmp_path):
    # a second sweep over the same --out brings each seed directory up to
    # date; only report's own two files are written again
    config = write_config(tmp_path)
    out = tmp_path / "sweep"
    argv = [sys.executable, str(SWEEP), "--seeds", "5", "--config", config, "--out", str(out)]

    def outputs():
        return {p.relative_to(out).as_posix(): (p.read_bytes(), p.stat().st_mtime_ns)
                for sub in ("reports", "models") for p in sorted(out.glob(f"seed*/{sub}/**/*"))
                if p.is_file()}

    assert subprocess.run(argv, capture_output=True, text=True, timeout=600).returncode == 0
    sweep_json, before = (out / "sweep.json").read_bytes(), outputs()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert (out / "sweep.json").read_bytes() == sweep_json
    after = outputs()
    assert {k: v[0] for k, v in after.items()} == {k: v[0] for k, v in before.items()}
    rewritten = sorted(k for k in after if after[k][1] != before[k][1])
    assert rewritten == ["seed5/reports/report.json", "seed5/reports/summary.txt"]


def test_rerun_takes_the_lock_of_a_killed_run(tmp_path):
    # a seed directory that a killed verb left locked is brought up to date
    config = write_config(tmp_path)
    seed_dir = tmp_path / "sweep" / "seed7"
    assert main(["gen", "--seed", "7", "--config", config, "--out", str(seed_dir)]) == 0
    kill_lock_holder(seed_dir)
    proc = subprocess.run([sys.executable, str(SWEEP), "--seeds", "7", "--config", config,
                           "--out", str(tmp_path / "sweep")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((seed_dir / "reports" / "report.json").read_text())["checks"]
    assert not (seed_dir / ".lock").exists()


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


def test_repeated_seed_exits_2_before_any_verb(tmp_path):
    # one seed run twice would count its checks twice in check_pass_counts
    out = tmp_path / "sweep"
    proc = subprocess.run([sys.executable, str(SWEEP), "--seeds", "3", "3",
                           "--config", write_config(tmp_path), "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and len(proc.stderr) < 200
    assert "Traceback" not in proc.stderr
    assert not out.exists()
