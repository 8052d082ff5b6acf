"""Seed sweep: the report's checks of the rmlab pipeline across master seeds.

    python3 scripts/sweep.py                              # seeds 1-8 and 131
    python3 scripts/sweep.py --seeds 1 2 --config cfg.json --out labout/sweep

For each seed, ``gen -> matrix -> sfd -> bon -> report`` run as separate
``python3 -m rmlab.cli`` processes (``--seed <k> --jobs <n>``) into
``<out>/seed<k>/``; a directory left by an earlier sweep is brought up to date,
not rebuilt. The sweep then writes one JSON file, ``<out>/sweep.json``, with
each seed's check results, the paired shortcut_aware - standard deltas of the
mean o.o.d. and i.i.d. accuracy, and every sfd cell with its n_success and
n_fail. Every seed is reported: ``report`` exiting 1 because a check failed is
a result, not an error. The file holds no wall-clock data, so rerunning a
sweep rewrites it byte for byte.

Exit status: 0 when every verb of every seed ran, 2 when one exited 2 (the
seed's stderr is printed), its report.json is missing, or an I/O error stopped
the sweep (an ``--out`` that is not a usable directory, a verb that cannot
start, a ``sweep.json`` that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERBS = ("gen", "matrix", "sfd", "bon", "report")
DEFAULT_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 131)
DELTA_MODES = ("shortcut_aware", "standard")  # delta = first minus second


def run_seed(seed: int, out: Path, config: str | None, jobs: int) -> Path:
    """Run the five verbs for one seed; returns its report.json path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    flags = ["--seed", str(seed), "--out", str(out), "--jobs", str(jobs)]
    if config:
        flags += ["--config", config]
    for verb in VERBS:
        proc = subprocess.run([sys.executable, "-m", "rmlab.cli", verb, *flags],
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0 and not (verb == "report" and proc.returncode == 1):
            raise RuntimeError(f"seed {seed}: {verb} exited {proc.returncode}\n{proc.stderr}")
    report = out / "reports" / "report.json"
    if not report.is_file():
        raise RuntimeError(f"seed {seed}: {report} is missing")
    return report


def seed_record(seed: int, report: dict) -> dict:
    """The sweep's view of one seed's report.json."""
    summary = report["matrix_summary"]
    deltas = {}
    if all(m in summary for m in DELTA_MODES):
        a, b = (summary[m] for m in DELTA_MODES)
        deltas = {"ood": a["mean_ood"] - b["mean_ood"], "iid": a["mean_iid"] - b["mean_iid"]}
    cells = [{k: d[k] for k in ("mode", "train_env", "test_env", "sfd",
                                "n_success", "n_fail")}
             for mode in sorted(report["sfd"]) for d in report["sfd"][mode]]
    return {"seed": seed, "passed": report["passed"],
            "checks_passed": sum(c["passed"] for c in report["checks"]),
            "checks": report["checks"], "deltas": deltas, "sfd_cells": cells,
            "missing_artifacts": report["missing_artifacts"]}


def sweep(seeds, out: Path, config: str | None, jobs: int) -> dict:
    records = []
    for seed in seeds:
        t0 = time.monotonic()
        with open(run_seed(seed, out / f"seed{seed}", config, jobs), encoding="utf-8") as fh:
            record = seed_record(seed, json.load(fh))
        records.append(record)
        print(f"seed {seed}: {record['checks_passed']}/{len(record['checks'])} checks, "
              f"d_ood {record['deltas'].get('ood', float('nan')):+.4f}, "
              f"{time.monotonic() - t0:.1f} s", flush=True)
    names = [c["name"] for c in records[0]["checks"]] if records else []
    return {
        "config": config, "jobs": jobs, "seeds": list(seeds),
        "seeds_passed": [r["seed"] for r in records if r["passed"]],
        "check_pass_counts": {name: sum(c["passed"] for r in records for c in r["checks"]
                                        if c["name"] == name) for name in names},
        "delta_modes": list(DELTA_MODES),
        "runs": records,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    parser.add_argument("--config", help="base experiment config JSON (default: built-in)")
    parser.add_argument("--out", default="labout/sweep", help="sweep directory")
    parser.add_argument("--jobs", type=int, default=2, help="training workers per verb")
    args = parser.parse_args(argv)
    out = Path(args.out)
    path = out / "sweep.json"
    try:
        out.mkdir(parents=True, exist_ok=True)
        doc = sweep(args.seeds, out, args.config, args.jobs)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{len(doc['seeds_passed'])}/{len(doc['seeds'])} seeds pass every check; "
          f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
