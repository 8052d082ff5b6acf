"""Self-test of the benchmark, on the tiny config and the same code paths.

    python3 perfbench/selftest.py

Runs every workload once with tracing, and checks that every end-to-end and
per-layer metric of BENCHMARK.json is reported with its unit and sample
count, that tracing patches and restores the names callers use, that the
correctness gate rejects a tampered reports/ tree, and that the benchmark
refuses to run without the rmlab sources. Exits 1 on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402


def check(cond, what):
    if not cond:
        print(f"selftest FAILED: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def check_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    check([(w["name"], w["why"]) for w in doc["workloads"]]
          == [(name, w.why) for name, w in run.WORKLOADS.items()],
          "BENCHMARK.json workloads match run.WORKLOADS")
    check([(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]]
          == [tuple(m) for m in run.E2E_METRICS],
          "BENCHMARK.json end_to_end matches run.E2E_METRICS")
    check([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
          == [tuple(m) for m in run.VERB_METRICS + tracing.LAYER_METRICS],
          "BENCHMARK.json per_layer matches run.VERB_METRICS + tracing.LAYER_METRICS")


def check_patching():
    sys.path.insert(0, str(run.SRC))
    import rmlab.cli
    import rmlab.evaluation
    import rmlab.training

    names = [(rmlab.cli, "train"), (rmlab.training, "train"),
             (rmlab.training, "adamw_step"), (rmlab.evaluation, "_stack_pairs"),
             (rmlab.training, "_stack_pairs"), (rmlab.cli, "_file_sha256")]
    before = [getattr(mod, name) for mod, name in names]
    commands = dict(rmlab.cli.COMMANDS)
    load = rmlab.training.TrainRun.__dict__["load"]
    tracer = tracing.Tracer(str(run.WORK / "selftest-unused"))
    tracer.install()
    try:
        check(all(getattr(mod, name) is not orig
                  for (mod, name), orig in zip(names, before)),
              "install wraps every caller-side name (cli.train, training.adamw_step, "
              "evaluation._stack_pairs, ...)")
        check(rmlab.cli.COMMANDS["gen"] is not commands["gen"],
              "install wraps the verb table entries")
    finally:
        tracer.restore()
    check(all(getattr(mod, name) is orig for (mod, name), orig in zip(names, before))
          and rmlab.cli.COMMANDS == commands
          and rmlab.training.TrainRun.__dict__["load"] is load,
          "restore puts every original back")


def check_workload(name):
    result = run.run_workload(name, 131, 1.0, trace=True, scale="tiny")
    check(result["correct"] and result["failed"] == 0,
          f"{name}: every op passes the gate ({result['attempted']} ops)")
    for metric, unit, _ in run.E2E_METRICS:
        m = result["e2e"][metric]
        check(m["unit"] == unit and m["n"] >= 1 and m["value"] is not None,
              f"{name}: {metric} [{unit}] n={m['n']}")
    for metric, unit, _ in run.VERB_METRICS + tracing.LAYER_METRICS:
        m = {**result["verbs"], **result["layers"]}.get(metric)
        check(m is not None and m["unit"] == unit and m["n"] >= 1 and m["value"] is not None,
              f"{name}: {metric} [{unit}] n={m and m['n']}")
    check(0.0 <= result["error_rate"] <= 1.0 and result["checks_total"] == 12,
          f"{name}: error_rate {result['error_rate']} and checks_passed "
          f"{result['checks_passed']}/{result['checks_total']} reported")
    layers = result["layers"]
    trained = layers["cli.ensure_runs.jobs_trained"]["value"]
    skipped = layers["cli.ensure_runs.jobs_skipped"]["value"]
    calls = layers["training.train.calls"]["value"]
    if run.WORKLOADS[name].warm:
        check(trained == 0 and calls == 0 and skipped == 15,
              f"{name}: nothing trains, all 15 jobs skipped")
    else:
        check(trained == 15 and calls == 15 and skipped == 0,
              f"{name}: all 15 jobs trained, none skipped")


def check_gate_catches_tampering():
    work = run.WORK / "selftest-gate"
    shutil.rmtree(work, ignore_errors=True)
    bench = run.Run("cold-serial", 131, "tiny", work)
    try:
        lab = work / "lab"
        first = bench.op("measured", lab, 1, cold=True)
        check(first.ok, "untampered op passes the gate")
        with open(lab / "reports" / "summary.txt", "a", encoding="utf-8") as fh:
            fh.write("tampered\n")
        rechecked = run.Op("measured", 1, True, verbs=first.verbs)
        run.gate(rechecked, lab, bench.first_tree, None)
        check(rechecked.failure == "reports/ tree differs from the run's first op",
              f"gate rejects a tampered reports/ file ({rechecked.failure})")
        rerun = bench.op("measured", lab, 1, cold=False)
        check(not rerun.ok, f"a rerun over the tampered lab fails ({rerun.failure})")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_refuses_without_sources():
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               "cold-serial", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"without src/ the benchmark exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    check_benchmark_json()
    check_patching()
    check_refuses_without_sources()
    check_gate_catches_tampering()
    for name in run.WORKLOADS:
        check_workload(name)
    print("selftest passed")


if __name__ == "__main__":
    main()
