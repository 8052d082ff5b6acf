"""Command-line harness: dataset generation, training, evaluation matrices,
shortcut-failure reports, best-of-N curves, and the consolidated report.

Verbs: gen, train, matrix, sfd, bon, report. All randomness derives from one
master seed through named sub-seeds (sha256 of "seed:component"), so adding a
command never perturbs existing streams and two runs from the same master
seed produce byte-identical reports. Wall-clock timings live only in
manifest.json, which is the one file allowed to differ between runs.

Exit codes: 0 success, 1 assertion failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace

from . import bestofn, envs, evaluation, svg
from .envs import ENVS
from .errors import ConfigError, LabError, MissingArtifactError
from .training import MODES, TrainConfig, TrainRun, train

DEFAULT_OUT = "labout"
AUDIT_MODES = ("standard", "shortcut_aware")  # the modes sfd and bon compare
DEFAULT_N_GRID = [1, 2, 4, 8, 16, 32, 64]


def derive_seed(master_seed: int, component: str) -> int:
    """Stable 63-bit sub-seed for a named component of the pipeline."""
    digest = hashlib.sha256(f"{master_seed}:{component}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def canonical_hash(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _replace_file(path, doc) -> None:
    """Write ``doc`` (text, CSV rows for a ``.csv`` path, else a JSON document)
    to a temp file, then swap it in: an interrupted write keeps the old file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            if isinstance(doc, str):
                fh.write(doc)
            elif path.endswith(".csv"):
                csv.writer(fh).writerows(doc)
            else:
                json.dump(doc, fh, sort_keys=True, indent=1)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class ExperimentConfig:
    """The settings that decide a lab's results, hashable in canonical form."""

    master_seed: int = 131
    n_train: int = 8000
    n_test: int = 1000
    train: dict = field(default_factory=dict)  # TrainConfig overrides, minus mode/seed
    n_pools: int = 200
    pool_size: int = 64
    n_grid: list = field(default_factory=lambda: list(DEFAULT_N_GRID))

    def __post_init__(self):
        """Reject a malformed config (types, ranges, train keys) up front."""
        def ints(x):  # a nonempty list of integers >= 1
            return isinstance(x, list) and x and all(type(n) is int and n >= 1 for n in x)

        allowed = set(TrainConfig.__dataclass_fields__) - {"mode", "seed"}
        for ok, what in [
                (type(self.master_seed) is int, "master_seed must be an integer"),
                (ints([self.n_train, self.n_test, self.n_pools, self.pool_size]),
                 "n_train, n_test, n_pools and pool_size must be integers >= 1"),
                (ints(self.n_grid), "n_grid must be a nonempty list of integers >= 1"),
                (isinstance(self.train, dict) and set(self.train) <= allowed,
                 f"train must be an object with keys from {sorted(allowed)}")]:
            if not ok:
                raise ConfigError(f"config: {what}")
        if max(self.n_grid) > self.pool_size:
            raise ConfigError(f"config: n_grid entries must be <= pool_size={self.pool_size}")
        try:
            TrainConfig(mode=MODES[0], **self.train)  # value types and ranges
        except ConfigError as exc:
            raise ConfigError(f"config: train: {exc}") from None

    def to_dict(self) -> dict:
        # family, modes and subsample_fractions are gone; their old defaults
        # keep every lab's config hash
        return dict(asdict(self), family="default", modes=list(MODES), subsample_fractions=[])

    def config_hash(self) -> str:
        return canonical_hash(self.to_dict())

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"config {path} is not valid JSON ({exc})") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"config: unknown keys {sorted(unknown)}")
        return cls(**doc)

    def build_family(self) -> envs.EnvironmentFamily:
        return envs.default_family(derive_seed(self.master_seed, "family"),
                                   n_train=self.n_train, n_test=self.n_test)[0]

    def train_config(self, mode: str, env_id: str) -> TrainConfig:
        seed = derive_seed(self.master_seed, f"train:{mode}:{env_id}")
        return TrainConfig(mode=mode, seed=seed, **self.train)

    def proxy_config(self, audited_mode: str, env_id: str) -> TrainConfig:
        # Paired proxy: same init seed as the audited model, text-only loss.
        return replace(self.train_config(audited_mode, env_id), mode="text_only")


class Workspace:
    """Paths, manifest bookkeeping, and resume logic for one output dir;
    ``jobs`` is the number of training workers."""

    def __init__(self, config: ExperimentConfig, out: str, jobs: int = 1):
        self.config, self.out, self.jobs = config, out, jobs
        self.manifest_path = os.path.join(self.out, "manifest.json")
        self.manifest = {"config_hash": config.config_hash(), "artifacts": {},
                         "timings": {}}
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path, encoding="utf-8") as fh:
                try:
                    old = json.load(fh)
                except ValueError:  # truncated or not JSON at all
                    old = None
            if not isinstance(old, dict):
                raise LabError(f"corrupt manifest {self.manifest_path}: not a JSON "
                               "object; delete it to rebuild the output dir")
            if old.get("config_hash") == self.manifest["config_hash"]:
                arts = old.get("artifacts")
                if not (isinstance(arts, dict) and isinstance(old.get("timings"), dict)
                        and all(isinstance(e, dict) and isinstance(e.get("path"), str)
                                and isinstance(e.get("sha256"), str) for e in arts.values())):
                    raise LabError(f"corrupt manifest {self.manifest_path}: artifacts "
                                   "or timings malformed; delete it to rebuild the output dir")
                self.manifest = old

    def path(self, *parts) -> str:
        full = os.path.join(self.out, *parts)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        return full

    def rel(self, path) -> str:
        return os.path.relpath(path, self.out)

    def is_current(self, key: str, path) -> bool:
        """True when ``artifact_path`` accepts the artifact and it was
        recorded at ``path``."""
        try:
            return self.rel(self.artifact_path(key)) == self.rel(path)
        except MissingArtifactError:
            return False

    def record(self, key: str, path) -> None:
        """Record an artifact, deleting the file it supersedes inside the output dir."""
        old = self.manifest["artifacts"].get(key, {}).get("path", self.rel(path))
        if old != self.rel(path):
            stale, root = os.path.realpath(os.path.join(self.out, old)), os.path.realpath(self.out)
            if stale.startswith(root + os.sep) and os.path.isfile(stale):
                os.remove(stale)
        self.manifest["artifacts"][key] = {"path": self.rel(path),
                                           "sha256": _file_sha256(path)}

    def write(self, key: str, rel: str, doc) -> None:
        """Write an artifact at ``rel`` through ``_replace_file`` and record it."""
        path = self.path(rel)
        _replace_file(path, doc)
        self.record(key, path)

    def artifact_path(self, key: str) -> str:
        entry = self.manifest["artifacts"].get(key)
        if not entry:
            raise MissingArtifactError(f"artifact {key!r} not in manifest")
        path = os.path.join(self.out, entry["path"])
        if not os.path.exists(path):
            raise MissingArtifactError(f"artifact {key!r} missing on disk: {entry['path']}")
        if _file_sha256(path) != entry["sha256"]:
            raise MissingArtifactError(f"artifact {key!r} failed its hash check")
        return path

    def save_manifest(self, timing_key: str | None = None, seconds: float | None = None):
        if timing_key is not None:
            self.manifest["timings"][timing_key] = seconds
        _replace_file(self.manifest_path, self.manifest)


class OutputLock:
    """One process owns an output directory at a time. A lock whose pid is not
    running is reported as stale, never taken over: two takers would race."""

    def __init__(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        self.path = os.path.join(out_dir, ".lock")

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                with open(self.path, encoding="utf-8") as fh:
                    pid = int(fh.read())
                os.kill(pid, 0)  # signal 0 only asks whether the process exists
            except (ProcessLookupError, OverflowError):
                raise LabError(f"stale lock {self.path}: pid {pid} is not running; "
                               "delete it if no other run uses this dir") from None
            except (OSError, ValueError):  # alive under another user, or no pid yet
                pass
            raise LabError(f"output dir is locked by another run: {self.path}") from None
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))
        return self

    def __exit__(self, *exc):
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        return False


def _dataset_key(env_id: str, split: str) -> str:
    return f"dataset:{env_id}:{split}"


def cmd_gen(ws: Workspace) -> None:
    """Write every environment split to disk."""
    t0 = time.monotonic()
    family = ws.config.build_family()
    specs = family.specs.values()
    ws.write("family", "family.json", {"family_seed": family.family_seed, "m_scale": envs.M_SCALE,
                                       "envs": [envs.spec_to_dict(s) for s in specs]})

    for spec in specs:
        for split in ("train", "test"):
            key = _dataset_key(spec.env_id, split)
            path = ws.path("datasets", f"{spec.env_id}_{split}.npz")
            if ws.is_current(key, path):
                print(f"gen: skip {spec.env_id}/{split} (up to date)")
                continue
            dataset = envs.sample_env(family, spec.env_id, split)
            envs.write_dataset(dataset, path)
            ws.record(key, path)
            ws.manifest["artifacts"][key]["fingerprint"] = dataset.fingerprint
            print(f"gen: wrote {ws.rel(path)} ({len(dataset)} samples)")
    ws.save_manifest("gen", time.monotonic() - t0)


def _load_dataset(ws: Workspace, env_id: str, split: str):
    key = _dataset_key(env_id, split)
    path = ws.artifact_path(key)
    fingerprint = ws.manifest["artifacts"][key].get("fingerprint", "")
    return envs.read_dataset(path, fingerprint)


def _train_one(job: tuple) -> str:
    """One training job, (config doc, dataset path, fingerprint, run dir);
    worker-safe. Returns the path of the saved ``run.json``."""
    config_doc, dataset_path, fingerprint, run_dir = job
    run = train(TrainConfig.from_dict(config_doc),
                envs.read_dataset(dataset_path, fingerprint))
    return run.save(run_dir)


def _ensure_runs(ws: Workspace, wanted: list) -> int:
    """Train whatever is stale in ``wanted``: (key, TrainConfig, env_id) triples.

    Returns the number of jobs trained."""
    keys, jobs = [], []
    for key, config, env_id in wanted:
        run_dir = os.path.join(ws.out, "models", *key.split(":")[1:])
        if ws.is_current(key, os.path.join(run_dir, "run.json")):
            continue
        data_key = _dataset_key(env_id, "train")
        keys.append(key)
        jobs.append((config.to_dict(), ws.artifact_path(data_key),
                     ws.manifest["artifacts"][data_key].get("fingerprint", ""), run_dir))
    with (ProcessPoolExecutor(max_workers=min(ws.jobs, len(jobs)))
          if ws.jobs > 1 and jobs else nullcontext()) as pool:
        try:
            for key, path in zip(keys, (pool.map if pool else map)(_train_one, jobs)):
                ws.record(key, path)
                ws.save_manifest()  # a run that dies later keeps this one
                print(f"train: finished {key}")
        except BrokenProcessPool:
            raise LabError("a training worker died; the finished runs are recorded, "
                           "rerun to train the rest") from None
    return len(jobs)


def _run_key(mode: str, env_id: str) -> str:
    return f"model:{mode}:{env_id}"


def _proxy_key(mode: str, env_id: str) -> str:
    return f"model:proxy-{mode}:{env_id}"


def _load_run(ws: Workspace, key: str) -> TrainRun:
    return TrainRun.load(os.path.dirname(ws.artifact_path(key)))


def cmd_train(ws: Workspace) -> None:
    """Train the lab's 15 nets: one per (mode, environment), then the paired
    text-only proxy of each audited net."""
    t0 = time.monotonic()
    wanted = ([(_run_key(mode, e), ws.config.train_config(mode, e), e)
               for mode in MODES for e in ENVS]
              + [(_proxy_key(mode, e), ws.config.proxy_config(mode, e), e)
                 for mode in AUDIT_MODES for e in ENVS])
    if _ensure_runs(ws, wanted):  # only a call that trained may set the timing
        ws.save_manifest("train", time.monotonic() - t0)


def cmd_matrix(ws: Workspace) -> None:
    """Cross-distribution accuracy matrices for every mode."""
    t0 = time.monotonic()
    cmd_train(ws)
    test_sets = {e: _load_dataset(ws, e, "test") for e in ENVS}

    summary = {}
    for mode in MODES:
        nets = {e: _load_run(ws, _run_key(mode, e)).primary for e in ENVS}
        matrix = evaluation.gen_matrix(mode, nets, test_sets, ENVS)
        ws.write(f"report:matrix:{mode}", f"reports/matrix_{mode}.csv", matrix.csv_rows())
        ws.write(f"report:matrix-svg:{mode}", f"reports/matrix_{mode}.svg",
                 svg.heatmap_svg(ENVS, ENVS, matrix.acc,
                                 f"accuracy matrix ({mode})", lo=0.0, hi=1.0))
        summary[mode] = {
            "matrix": matrix.to_dict(),
            "mean_iid": matrix.mean_diagonal,
            "mean_ood": matrix.mean_off_diagonal,
            "gap": matrix.mean_diagonal - matrix.mean_off_diagonal,
        }
        print(f"matrix[{mode}]: iid={matrix.mean_diagonal:.4f} "
              f"ood={matrix.mean_off_diagonal:.4f}")
    ws.write("report:matrix-summary", "reports/matrix_summary.json", summary)
    ws.save_manifest("matrix", time.monotonic() - t0)


def cmd_sfd(ws: Workspace) -> None:
    """Shortcut-failure degradation reports for every o.o.d. cell."""
    t0 = time.monotonic()
    cmd_train(ws)

    test_sets = {e: _load_dataset(ws, e, "test") for e in ENVS}
    for mode in AUDIT_MODES:
        reports = []
        for train_env in ENVS:
            run = _load_run(ws, _run_key(mode, train_env))
            proxy = _load_run(ws, _proxy_key(mode, train_env)).primary
            for test_env in ENVS:
                if test_env == train_env:
                    continue
                rep = evaluation.sfd_report(run.primary, proxy, test_sets[test_env],
                                            train_env=train_env, mode=mode)
                reports.append(rep.to_dict())
        ws.write(f"report:sfd:{mode}", f"reports/sfd_{mode}.json", reports)
        vals = [r["sfd"] for r in reports if r["sfd"] is not None]
        print(f"sfd[{mode}]: {len(reports)} cells, "
              f"range [{min(vals):.3f}, {max(vals):.3f}]" if vals else
              f"sfd[{mode}]: all splits degenerate")
    ws.save_manifest("sfd", time.monotonic() - t0)


def cmd_bon(ws: Workspace) -> None:
    """Best-of-N curves for every net over i.i.d. and o.o.d. pools."""
    t0 = time.monotonic()
    family = ws.config.build_family()
    cmd_train(ws)

    nets = {f"{mode}/{e}": _load_run(ws, _run_key(mode, e)).primary
            for mode, e in sorted((m, e) for m in AUDIT_MODES for e in ENVS)}

    rows = []
    for pool_env in ENVS:
        pools = bestofn.make_pools(
            family, ws.config.n_pools, m=ws.config.pool_size,
            seed=derive_seed(ws.config.master_seed, f"pools:{pool_env}"),
            env_id=pool_env)
        for pool in pools:
            bestofn.score_pool(pool, nets)
        curves = bestofn.bon_curve(list(nets), pools, ws.config.n_grid)
        for name, curve in sorted(curves.items()):
            mode, train_env = name.split("/")
            for n, score in curve.points:
                rows.append({"mode": mode, "train_env": train_env,
                             "pool_env": pool_env, "n": n, "score": score})
        ws.write(f"report:bon-svg:{pool_env}", f"reports/bon_{pool_env}.svg",
                 svg.line_chart_svg({name: curve.points for name, curve in curves.items()},
                                    f"best-of-N on env {pool_env} pools", "N", "judge score"))

    # LF line ends (the matrix CSVs get csv.writer's CRLF), so the bytes of
    # earlier labs' curve files stay valid
    ws.write("report:bon-curves", "reports/bon_curves.csv",
             "mode,train_env,pool_env,n,score\n" + "".join(
                 f"{r['mode']},{r['train_env']},{r['pool_env']},{r['n']},{r['score']!r}\n"
                 for r in rows))

    n_max = max(ws.config.n_grid)
    summary = {"n_max": n_max, "ood_best_at_n_max": {}}
    for mode in AUDIT_MODES:  # every family has an o.o.d. pool for each net
        vals = [r["score"] for r in rows
                if r["mode"] == mode and r["n"] == n_max
                and r["train_env"] != r["pool_env"]]
        summary["ood_best_at_n_max"][mode] = sum(vals) / len(vals)
    ws.write("report:bon-summary", "reports/bon_summary.json", summary)
    print(f"bon: ood best-of-{n_max} " +
          " ".join(f"{m}={v:.3f}" for m, v in summary["ood_best_at_n_max"].items()))
    ws.save_manifest("bon", time.monotonic() - t0)


def _default_family_checks(summary, sfd_docs, bon_summary):
    """The 12 directional claims the default pipeline is expected to satisfy;
    a degenerate (None) sfd cell fails the checks that read it."""
    checks = []

    def check(name, ok):
        checks.append({"name": name, "passed": bool(ok)})

    text, std, sa = (summary[m] for m in ("text_only", "standard", "shortcut_aware"))
    check("text_only mean i.i.d. >= 0.85", text["mean_iid"] >= 0.85)
    check("text_only mean o.o.d. <= 0.60", text["mean_ood"] <= 0.60)
    b, c = ENVS.index("B"), ENVS.index("C")
    check("text_only B->C <= 0.55", text["matrix"]["acc"][b][c] <= 0.55)
    check("shortcut_aware o.o.d. mean >= standard + 0.05",
          sa["mean_ood"] >= std["mean_ood"] + 0.05)
    check("shortcut_aware i.i.d. mean >= standard - 0.03",
          sa["mean_iid"] >= std["mean_iid"] - 0.03)
    check("gap(standard) > gap(shortcut_aware)", std["gap"] > sa["gap"])
    for mode, docs in sfd_docs.items():
        check(f"sfd[{mode}] splits nondegenerate", all(d["sfd"] is not None for d in docs))
    std_cells, sa_cells = ({(d["train_env"], d["test_env"]): d["sfd"]
                            for d in sfd_docs[m] if d["sfd"] is not None}
                           for m in ("standard", "shortcut_aware"))
    check("standard sfd > 0 on every o.o.d. cell",
          std_cells and all(v > 0 for v in std_cells.values()))
    check("standard sfd B->C >= 0.15",
          ("B", "C") in std_cells and std_cells[("B", "C")] >= 0.15)
    check("shortcut_aware sfd < standard sfd in every cell",
          sa_cells.keys() == std_cells.keys()
          and all(sa_cells[k] < std_cells[k] for k in std_cells))
    best = bon_summary["ood_best_at_n_max"]
    check(f"best-of-{bon_summary['n_max']} shortcut_aware >= standard (o.o.d.)",
          best["shortcut_aware"] >= best["standard"])
    return checks


def cmd_report(ws: Workspace) -> int:
    """Aggregate all artifacts, run the assertion suite, emit the report.

    The checks read the outputs of matrix, sfd and bon; while one is missing,
    it is listed in ``missing_artifacts``, no check runs and the report fails."""
    t0 = time.monotonic()
    inputs = ["report:matrix-summary", *(f"report:sfd:{m}" for m in AUDIT_MODES),
              "report:bon-summary"]
    verified, missing = {}, []  # each recorded key, plus the required inputs
    for key in sorted(set(ws.manifest["artifacts"]) | set(inputs)):
        try:
            verified[key] = ws.artifact_path(key)
        except MissingArtifactError as exc:
            missing.append(f"{key}: {exc}")

    def load(key):
        with open(verified[key], encoding="utf-8") as fh:
            return json.load(fh)

    summary, sfd_docs, bon_summary, checks, lines = {}, {}, None, [], []
    if all(key in verified for key in inputs):
        summary, bon_summary = load("report:matrix-summary"), load("report:bon-summary")
        sfd_docs = {m: load(f"report:sfd:{m}") for m in AUDIT_MODES}
        checks = _default_family_checks(summary, sfd_docs, bon_summary)
        for mode in sorted(summary):
            s = summary[mode]
            lines.append(f"{mode:>15}: i.i.d. {s['mean_iid']:.4f}  "
                         f"o.o.d. {s['mean_ood']:.4f}  gap {s['gap']:.4f}")
        for mode, docs in sorted(sfd_docs.items()):
            vals = [d["sfd"] for d in docs if d["sfd"] is not None]
            if vals:
                lines.append(f"{mode:>15}: sfd range [{min(vals):.4f}, {max(vals):.4f}]")
        for mode, val in sorted(bon_summary["ood_best_at_n_max"].items()):
            lines.append(f"{mode:>15}: o.o.d. best-of-{bon_summary['n_max']} {val:.4f}")
    failed = [c["name"] for c in checks if not c["passed"]]
    ok = not failed and not missing

    report = {
        "config_hash": ws.config.config_hash(),
        "envs": list(ENVS),
        "matrix_summary": summary,
        "sfd": sfd_docs,
        "bon_summary": bon_summary,
        "checks": checks,
        "missing_artifacts": missing,
        "passed": ok,
    }
    ws.write("report:final", "reports/report.json", report)

    lines = [f"lab report (config {report['config_hash'][:12]})", "", *lines, ""]
    for c in checks:
        lines.append(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}")
    for m in missing:
        lines.append(f"[FAIL] missing artifact: {m}")
    lines.append("")
    lines.append("RESULT: " + ("PASS" if ok else "FAIL"))
    text = "\n".join(lines) + "\n"
    ws.write("report:summary", "reports/summary.txt", text)
    ws.save_manifest("report", time.monotonic() - t0)
    print(text, end="")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmlab",
        description="shortcut-learning lab for multimodal reward models")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, doc in [("gen", "generate environment datasets"),
                      ("train", "train all 15 nets: one per mode and environment, "
                                "plus the 6 text-only proxies"),
                      ("matrix", "cross-distribution accuracy matrices"),
                      ("sfd", "shortcut-failure degradation reports"),
                      ("bon", "best-of-N curves"),
                      ("report", "consolidated report and assertion suite")]:
        p = sub.add_parser(verb, help=doc)
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", default=DEFAULT_OUT, help="output directory")
        p.add_argument("--jobs", type=int, default=1, help="parallel training jobs")
    return parser


def load_config(args) -> ExperimentConfig:
    """The config file (or the defaults) with ``--seed`` applied, validated."""
    config = (ExperimentConfig.from_file(args.config) if args.config
              else ExperimentConfig())
    return config if args.seed is None else replace(config, master_seed=args.seed)


COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "matrix": cmd_matrix,
    "sfd": cmd_sfd,
    "bon": cmd_bon,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not args.out:
            raise LabError("--out must name a directory")
        if args.jobs < 1:
            raise LabError("--jobs must be an integer >= 1")
        config = load_config(args)
        with OutputLock(args.out):
            ws = Workspace(config, args.out, args.jobs)
            if args.verb == "report":
                return cmd_report(ws)
            COMMANDS[args.verb](ws)
            return 0
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
