"""Benchmark for the rmlab pipeline, driven through its CLI.

    python3 perfbench/run.py --workload cold-serial --seed 131 --seconds 30 --trace 0
    python3 perfbench/run.py --scale full --seed 131 --seconds 1   # every workload

One closed-loop client runs ``gen -> matrix -> sfd -> bon -> report`` as
separate ``python3 -m rmlab.cli`` processes; each verb starts after the
previous one exits, and no verb uses more than ``--jobs`` (at most 2)
training workers. Every verb is timed from outside. The master seed is a
benchmark argument; the program only sees the generated config file and flags.

Workloads (see WORKLOADS for the measured mix of each):
  cold-serial  full pipeline into a fresh directory, --jobs 1 (training-bound)
  cold-jobs2   the same with --jobs 2 (training shared by a 2-worker pool)
  warm-rerun   the lab is built during set-up; each op reruns every verb over
               the up-to-date directory, so all 15 training jobs are skipped

Each op passes a correctness gate: no verb exits 2 or prints a traceback,
report.json lists no missing artifact, and the reports/ tree hashes the same as
the run's first op (and, on seed 131, as the recorded reference). ``report``
exiting 1 because a directional check failed is a scientific outcome: it is
counted in ``checks_passed``, not as a failure.

``--trace 1`` adds one op run under ``traced_verb.py``, whose spans give the
per-layer metrics, and one cold op with the other ``--jobs`` value for the
pool speed-up. End-to-end metrics always come from untraced ops. Timings are
never read from manifest.json: after a full run its ``timings["train"]`` is
overwritten by the no-op ``train`` inside ``bon``, and ``timings["matrix"]``
includes training. Training time comes from spans around ``training.train``.

Measured ops run back to back for at most ``--seconds`` (at least one op).
An end-to-end timing, and each verb's time, is the median over a run's
successful ops, printed with its sample count and the highest of p50/p90/p99
that has at least ten samples beyond it (none below 20 samples). A span-derived
per-layer value is a total over the one traced op.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
A fuller record (environment stamp, every op, sample counts) goes to
``.perfbench/results/``. Everything the benchmark writes stays under
``.perfbench/`` in the repository root; lab directories are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

VERBS = ("gen", "matrix", "sfd", "bon", "report")
# Set-up is repeated and its median reported. warm-rerun builds its lab
# SETUP_BUILDS times. The cold workloads have no state to build: their set-up
# warms the checkout (the first start compiles bytecode) with SETUP_PROBES
# program starts, whose median is the start-up cost every verb process pays,
# so work moved to import time shows there.
SETUP_BUILDS = 3
SETUP_PROBES = 15

# Config overrides. At --scale bench each workload uses its own entry
# (Workload.config), sized so that 70 runs fit the driver's time limit:
# "train-heavy" keeps n_train large and cuts n_test and n_pools, so training
# stays the largest part of a cold pipeline; "rerun" keeps the default n_pools,
# which best-of-N recomputes on every pass, and a small n_train, so that
# building the lab in set-up is cheap. --scale full uses the default config,
# --scale tiny the self-test's.
CONFIGS = {
    "train-heavy": {"n_train": 1500, "n_test": 100, "n_pools": 20},
    "rerun": {"n_train": 500, "n_test": 250, "n_pools": 200},
    "tiny": {"n_train": 200, "n_test": 100, "n_pools": 4, "train": {"epochs": 1}},
    "full": {},
}
SCALES = ("bench", "full", "tiny")
# Wall-clock budget of one run, in seconds.
BUDGET_S = {"bench": 170, "tiny": 170, "full": 3600}
REFERENCE_SEED = 131
# sha256 of reports/report.json and of the reports/ tree at seed 131, per
# config; the tree hash is sha256 over "<file sha256>  <relative path>\n"
# lines sorted by path.
REFERENCE = {
    "tiny": ("c1023d1094e1683abefc36cdda9295398e6ed553366a24c228875301f41ebabe",
             "13ba4b756551bcb91cdc1429ec3de28c2ce997f6bc8e65b85b988481b8b12e19"),
    "train-heavy": ("e1115eacb97f03ff1a237968703490ba615b774870d7a350810bc5c2fece3c0c",
                    "84d6a2869b09fe5ea896107e0bfae91f9ab044acad3530211868c17c2325b3fe"),
    "rerun": ("c30aa5dc079edf0c9ed29d89669dd76530e16e26fb39d1a454fad69c77d1c5ac",
              "3516d4e40d93fa1891aa5c3a42ac29d49c6786c9ec46b70984799b8e0ba080b1"),
    "full": ("2f6c848c322c6cd1e89fadc78cc1a20c3d8cf5ffd883c99e3e190ae176d47ef2",
             "d88fd34a167e521d059ad897fba20f283aec4762c39740a20fcf8dfe78b9c024"),
}


@dataclass(frozen=True)
class Workload:
    jobs: int
    warm: bool
    config: str  # CONFIGS entry at --scale bench
    why: str


# The shares in each "why" come from traced runs at seeds 7 and 131 on a
# 2-core host; the speed-up compares 10-seed pipeline_s medians.
WORKLOADS = {
    "cold-serial": Workload(
        1, False, "train-heavy",
        "train-heavy config, fresh directory, --jobs 1: training spans are 63-68% of the "
        "pipeline (matrix ~55%, sfd ~25%), so training-core changes show here"),
    "cold-jobs2": Workload(
        2, False, "train-heavy",
        "same with --jobs 2: 15 jobs of at most ~1.1 s share two workers, so total training / 2 "
        "sets matrix and sfd, not the longest job; ~1.3x faster than cold-serial"),
    "warm-rerun": Workload(
        1, True, "rerun",
        "rerun config, lab built in set-up, every verb rerun with all 15 jobs skipped: best-of-N "
        "is about two thirds of a pass, the rest mostly interpreter starts and loading"),
}

# (metric, unit, better); each value is the median over the run's successful ops
E2E_METRICS = [
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
# Wall time of each verb, from the same untraced ops. Printed on every run and
# reported with the per-layer metrics: a short verb's median moves more with
# the host's own speed than any end-to-end bound allows.
VERB_METRICS = [
    ("gen_s", "s", "lower"),
    ("matrix_s", "s", "lower"),
    ("sfd_s", "s", "lower"),
    ("bon_s", "s", "lower"),
]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Verb:
    name: str
    code: int
    seconds: float
    rss_mb: float


@dataclass
class Op:
    kind: str  # setup, measured, traced, counterpart
    jobs: int
    cold: bool
    wall_s: float = 0.0
    verbs: list = field(default_factory=list)
    failure: str | None = None
    tree_sha: str | None = None
    report_sha: str | None = None
    checks_passed: int = 0
    checks_total: int = 0
    trace_dir: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def verb_s(self, name) -> float:
        return next(v.seconds for v in self.verbs if v.name == name)


class Run:
    """One benchmark run: its config, lab directories and every op made."""

    def __init__(self, workload: str, seed: int, scale: str, run_dir: Path):
        self.workload = WORKLOADS[workload]
        self.dir = run_dir
        self.config = self.workload.config if scale == "bench" else scale
        overrides = CONFIGS[self.config]
        self.deadline = time.monotonic() + BUDGET_S[scale]
        self.config_path = run_dir / "config.json"
        self.log_path = run_dir / "verbs.log"
        run_dir.mkdir(parents=True, exist_ok=True)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump({"master_seed": seed, **overrides}, fh, sort_keys=True)
        self.env = {k: v for k, v in os.environ.items() if k != "LAB_OUT"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.ops = []
        self.first_tree = None
        self.reference = REFERENCE[self.config] if seed == REFERENCE_SEED else None

    # -- processes ---------------------------------------------------------

    def spawn(self, argv) -> tuple:
        """Run argv to completion; (exit code, seconds, max RSS in MB, output).

        wait4 reports the largest RSS of the process and of every descendant
        it waited for, which covers pool workers."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return -1, 0.0, 0.0, ""
        with open(self.log_path, "ab+") as log:
            log.write(f"$ {' '.join(map(str, argv))}\n".encode())
            log.flush()
            offset = log.tell()
            start = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            timer = threading.Timer(remaining, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
            log.seek(offset)
            output = log.read().decode(errors="replace")
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # anything the verb left behind in its session
        return proc.returncode, seconds, usage.ru_maxrss / 1024.0, output

    def verb_argv(self, verb, lab, jobs, trace_dir=None):
        flags = [verb, "--config", self.config_path, "--out", lab, "--jobs", jobs]
        if trace_dir is None:
            return [sys.executable, "-m", "rmlab.cli", *flags]
        return [sys.executable, HERE / "traced_verb.py", Path(trace_dir) / verb, *flags]

    # -- ops ---------------------------------------------------------------

    def op(self, kind, lab, jobs, cold, traced=False) -> Op:
        """One gen -> report sequence, checked by the correctness gate."""
        op = Op(kind, jobs, cold)
        if cold:
            shutil.rmtree(lab, ignore_errors=True)
        if traced:
            op.trace_dir = str(self.dir / f"trace-{len(self.ops)}")
            os.makedirs(op.trace_dir)
        start = time.perf_counter()
        for verb in VERBS:
            code, seconds, rss, output = self.spawn(
                self.verb_argv(verb, lab, jobs, op.trace_dir))
            op.verbs.append(Verb(verb, code, seconds, rss))
            if "Traceback (most recent call last)" in output:
                op.failure = f"{verb} raised (exit {code})"
            elif code != 0 and not (verb == "report" and code == 1):
                op.failure = f"{verb} exited {code}"
            if op.failure:
                break
        op.wall_s = time.perf_counter() - start
        if op.ok:
            gate(op, lab, self.first_tree, self.reference)
            if self.first_tree is None and op.tree_sha:
                self.first_tree = op.tree_sha
        self.ops.append(op)
        return op

    def setup(self) -> list:
        """Set-up samples in seconds. Cold workloads time a program start
        (imports, bytecode cache); warm-rerun builds its lab from scratch,
        with the pool, and keeps the last build."""
        if self.workload.warm:
            ops = [self.op("setup", self.dir / "lab", 2, cold=True)
                   for _ in range(SETUP_BUILDS)]
            return [op.wall_s if op.ok else None for op in ops]
        samples = []
        for _ in range(SETUP_PROBES):
            code, seconds, _, _ = self.spawn([sys.executable, "-m", "rmlab.cli", "--help"])
            samples.append(seconds if code == 0 else None)
        return samples


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def tree_sha(reports: Path) -> str:
    """sha256 over "<file sha256>  <relative path>" lines, sorted by path."""
    files = sorted(p.relative_to(reports).as_posix() for p in reports.rglob("*") if p.is_file())
    blob = "".join(f"{file_sha(reports / rel)}  {rel}\n" for rel in files)
    return hashlib.sha256(blob.encode()).hexdigest()


def file_sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def gate(op: Op, lab, first_tree, reference) -> None:
    """Mark the op failed unless its outputs are complete and reproducible."""
    lab = Path(lab)
    try:
        with open(lab / "reports" / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        op.report_sha = file_sha(lab / "reports" / "report.json")
        op.tree_sha = tree_sha(lab / "reports")
    except (OSError, ValueError) as exc:
        op.failure = f"unreadable report: {exc}"
        return
    checks = report.get("checks", [])
    op.checks_total = len(checks)
    op.checks_passed = sum(1 for c in checks if c.get("passed"))
    code = op.verbs[-1].code
    if report.get("missing_artifacts"):
        op.failure = f"missing artifacts: {report['missing_artifacts'][:3]}"
    elif (code == 0) != (op.checks_passed == op.checks_total):
        op.failure = f"report exited {code} with {op.checks_passed}/{op.checks_total} checks"
    elif first_tree is not None and op.tree_sha != first_tree:
        op.failure = "reports/ tree differs from the run's first op"
    elif reference is not None and (op.report_sha, op.tree_sha) != reference:
        op.failure = "reports/ differ from the recorded seed-131 reference"


# -- statistics and metrics -------------------------------------------------

def summarize(samples: list) -> dict:
    """Median plus the highest of p50/p90/p99 with at least ten samples beyond it."""
    out = {"value": statistics.median(samples), "n": len(samples)}
    for p in (99, 90, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            ranked = sorted(samples)
            out[f"p{p}"] = ranked[min(len(ranked) - 1, int(len(ranked) * p / 100))]
            break
    return out


def timing_metrics(setup_samples: list, measured: list) -> dict:
    """Every E2E_METRICS and VERB_METRICS entry, summarized over the ops."""
    ok = [op for op in measured if op.ok]
    series = {
        "setup_s": [s for s in setup_samples if s is not None],
        "pipeline_s": [op.wall_s for op in ok],
        "peak_rss_mb": [max(v.rss_mb for v in op.verbs) for op in ok],
    }
    for verb in ("gen", "matrix", "sfd", "bon"):
        series[f"{verb}_s"] = [op.verb_s(verb) for op in ok]
    return {name: ({**summarize(series[name]), "unit": unit} if series[name]
                   else {"value": None, "n": 0, "unit": unit})
            for name, unit, _ in E2E_METRICS + VERB_METRICS}


def layer_metrics(run: Run, traced: Op, untraced_pipeline_s) -> dict:
    docs = [tracing.load_spans(str(Path(traced.trace_dir) / v.name)) for v in traced.verbs]
    summaries = [tracing.verb_summary(d, v.seconds) for d, v in zip(docs, traced.verbs)]
    totals = tracing.span_totals([doc for d in docs for doc in d])
    values = tracing.layer_values(totals, [k for s in summaries for k in s["jobs_trained"]],
                                  {k for s in summaries for k in s["jobs_wanted"]})
    values["cli.pool.critical_path_s"] = max(values["training.train.max_job_s"],
                                             values["training.train.total_s"] / 2)
    cold = {jobs: [op.wall_s for op in run.ops
                   if op.ok and op.cold and op.jobs == jobs and op.kind != "traced"]
            for jobs in (1, 2)}
    values["cli.pool.speedup"] = (statistics.median(cold[1]) / statistics.median(cold[2])
                                  if cold[1] and cold[2] else None)
    values["trace.overhead_s"] = (traced.wall_s - untraced_pipeline_s
                                  if untraced_pipeline_s is not None else None)
    values["trace.untraced_s"] = sum(s["untraced_s"] for s in summaries)
    return {name: {"value": values[name], "unit": unit, "n": 1}
            for name, unit, _ in tracing.LAYER_METRICS}


# -- the run ------------------------------------------------------------------

def env_stamp(env) -> dict:
    probe = ("import json, numpy\n"
             "try:\n"
             "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
             "except Exception:\n"
             "    blas = {}\n"
             "print(json.dumps({'numpy': numpy.__version__, 'blas_name': blas.get('name'),"
             " 'blas_version': blas.get('version'),"
             " 'blas_config': blas.get('openblas configuration')}))\n")
    try:
        found = json.loads(subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                                          capture_output=True, text=True,
                                          timeout=60).stdout)
    except (subprocess.SubprocessError, ValueError):
        found = {"numpy": None}
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **found,
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
            "note": "wall-clock timings on a host whose cores may be shared with "
                    "other tenants; compare loadavg before and after"}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "bench") -> dict:
    run_dir = WORK / f"run-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run = Run(name, seed, scale, run_dir)
    try:
        stamp = env_stamp(run.env)
        stamp["loadavg_before"] = os.getloadavg()
        setup_samples = run.setup()
        setup_ok = all(s is not None for s in setup_samples)
        lab, jobs, warm = run_dir / "lab", run.workload.jobs, run.workload.warm
        measured = []
        start = time.monotonic()
        while setup_ok:
            measured.append(run.op("measured", lab, jobs, cold=not warm))
            # no op is started that would, at the mean pace so far, end past --seconds
            elapsed = time.monotonic() - start
            if (elapsed * (len(measured) + 1) / len(measured) > seconds
                    or time.monotonic() >= run.deadline):
                break
        timings = timing_metrics(setup_samples, measured)
        e2e = {name: timings[name] for name, _, _ in E2E_METRICS}
        verbs = {name: timings[name] for name, _, _ in VERB_METRICS}
        layers = {}
        if trace and setup_ok:
            other = 2 if (jobs == 1 and not warm) else 1
            run.op("counterpart", run_dir / "lab-other", other, cold=True)
            traced = run.op("traced", lab, jobs, cold=not warm, traced=True)
            if traced.ok:
                layers = layer_metrics(run, traced, e2e["pipeline_s"]["value"])
        stamp["loadavg_after"] = os.getloadavg()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for op in run.ops if not op.ok)
    checks = sorted({(op.checks_passed, op.checks_total) for op in run.ops if op.ok})
    correct = (setup_ok and failed == 0 and bool(measured)
               and (not trace or bool(layers)))
    return {
        "workload": name, "why": run.workload.why, "seed": seed, "scale": scale,
        "config": run.config, "overrides": CONFIGS[run.config],
        "seconds": seconds, "trace": trace, "env": stamp,
        "correct": correct, "attempted": len(run.ops), "failed": failed,
        "error_rate": failed / len(run.ops) if run.ops else 1.0,
        "checks_passed": checks[0][0] if len(checks) == 1 else None,
        "checks_total": checks[0][1] if len(checks) == 1 else None,
        "setup_samples": setup_samples,
        "e2e": e2e, "verbs": verbs, "layers": layers,
        "ops": [{"kind": op.kind, "jobs": op.jobs, "cold": op.cold,
                 "wall_s": op.wall_s, "failure": op.failure,
                 "tree_sha": op.tree_sha, "report_sha": op.report_sha,
                 "checks": f"{op.checks_passed}/{op.checks_total}",
                 "verbs": [vars(v) for v in op.verbs]} for op in run.ops],
    }


def print_result(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, scale {result['scale']}, "
          f"config {result['config']} {result['overrides']}): "
          f"{result['why']}")
    env = result["env"]
    print(f"   env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"blas {env.get('blas_name')} {env.get('blas_version')}, "
          f"threads {env['thread_env']}, loadavg {env['loadavg_before']} -> "
          f"{env['loadavg_after']}; {env['note']}")
    print(f"   ops {result['attempted']}, failed {result['failed']}, "
          f"error_rate {result['error_rate']:.3f}, checks_passed "
          f"{result['checks_passed']}/{result['checks_total']}")
    for op in result["ops"]:
        if op["failure"]:
            print(f"   FAILED {op['kind']} op: {op['failure']}")
    for name, m in [*result["e2e"].items(), *result["verbs"].items(),
                    *result["layers"].items()]:
        tail = "".join(f", {k} {v:.4g}" for k, v in m.items() if k.startswith("p")) or (
            ", no percentile with 10 samples beyond it" if m["n"] > 1 else "")
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"   {name:38s} {value:>12s} {m['unit']:6s} (n={m['n']}{tail})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="bench")
    args = parser.parse_args(argv)
    if not (SRC / "rmlab" / "cli.py").is_file():
        print(f"error: rmlab sources not found under {SRC}", file=sys.stderr)
        return 2

    results = [run_workload(name, args.seed, args.seconds, bool(args.trace), args.scale)
               for name in ([args.workload] if args.workload else list(WORKLOADS))]
    os.makedirs(WORK / "results", exist_ok=True)
    for result in results:
        print_result(result)
        path = WORK / "results" / (f"{result['workload']}-seed{args.seed}-"
                                   f"{args.scale}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    metrics = {}
    for result in results:
        chosen = {**result["verbs"], **result["layers"]} if args.trace else result["e2e"]
        prefix = "" if args.workload else f"{result['workload']}."
        for name, m in chosen.items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
