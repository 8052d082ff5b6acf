"""Command-line harness: dataset generation, training, evaluation matrices,
shortcut-failure reports, best-of-N curves, and the consolidated report.

Verbs: gen, train, matrix, sfd, bon, report. All randomness derives from one
master seed through named sub-seeds (sha256 of "seed:component"), so adding a
command never perturbs existing streams and two runs from the same master
seed produce byte-identical reports. Wall-clock timings live only in
manifest.json, which is the one file allowed to differ between runs.

An artifact's one name is its POSIX path in the output dir, such as
``models/standard/A/run.json``; manifest.json maps each name to its sha256.

matrix, sfd and bon share one build (``_evaluate``): whichever runs first on
a stale lab writes the outputs of all three. That build and gen reuse their
outputs when the inputs they were built from are unchanged (see
``Workspace.reuse``), and the array modules run only when a verb computes
(see ``_lazy``), so a verb over an up-to-date lab, ``report`` and ``--help``
never load numpy. The ``rmlab`` command leaves
through ``entry``, which skips interpreter teardown.

Exit codes: 0 success, 1 assertion failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import importlib.util
import json
import os
import reprlib
import sys
import time
from collections import namedtuple
from contextlib import nullcontext, suppress

from .config import ENVS, MODES, TrainConfig, canonical_hash
from .errors import ConfigError, LabError, MissingArtifactError

DEFAULT_OUT = "labout"
AUDIT_MODES = ("standard", "shortcut_aware")  # the modes sfd and bon compare
DEFAULT_N_GRID = [1, 2, 4, 8, 16, 32, 64]
NAME_MAX = 200  # the longest artifact name a manifest may hold


def _lazy(name: str):
    """The module ``rmlab.<name>``, registered now and executed on its first
    attribute access; only then does an array module import numpy. Every
    module of the package is in ``sys.modules`` once ``cli`` is imported, so a
    profiler or tracer that walks them to patch functions finds them all."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = importlib.util.module_from_spec(spec)
        setattr(sys.modules[__package__], name, sys.modules[full])
        spec.loader.exec_module(sys.modules[full])
    return sys.modules[full]


_lazy("net")  # cli calls no net function; registered with the modules built on it
envs, training, evaluation, bestofn, svg = map(
    _lazy, ("envs", "training", "evaluation", "bestofn", "svg"))


def __getattr__(name):
    """``cli.train`` is ``training.train``, bound on first access, so that
    importing ``cli`` runs no array module."""
    if name != "train":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()["train"] = training.train
    return training.train


def derive_seed(master_seed: int, component: str) -> int:
    """Stable 63-bit sub-seed for a named component of the pipeline."""
    digest = hashlib.sha256(f"{master_seed}:{component}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _replace_file(path, doc) -> None:
    """The lab's one writer: ``doc`` (text, a function that writes the file
    at the path it is given, else a JSON document) goes to ``<path>.tmp``,
    cleared first, then replaces ``path``. An interrupted write keeps the old
    file, and a FIFO, device or symlink at either name is replaced, never opened."""
    tmp = path + ".tmp"
    try:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        if callable(doc):
            doc(tmp)
        else:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                if isinstance(doc, str):
                    fh.write(doc)
                else:
                    json.dump(doc, fh, sort_keys=True, indent=1)
        os.replace(tmp, path)
    finally:
        with suppress(FileNotFoundError):
            os.unlink(tmp)


def _file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class ExperimentConfig(namedtuple("ExperimentConfig", "master_seed n_train n_test train "
                                  "n_pools pool_size n_grid",
                                  defaults=(131, 8000, 1000, {}, 200, 64, DEFAULT_N_GRID))):
    """The settings that decide a lab's results, hashable in canonical form.
    ``train`` holds TrainConfig overrides, minus mode and seed. A config is
    read-only: the default ``train`` and ``n_grid`` are shared."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        """Reject a malformed config (types, ranges, train keys) up front."""
        def ints(x):  # a nonempty list of integers >= 1
            return isinstance(x, list) and x and all(type(n) is int and n >= 1 for n in x)

        self = super().__new__(cls, *args, **kwargs)
        allowed = set(TrainConfig._fields) - {"mode", "seed"}
        for ok, what in [
                (type(self.master_seed) is int, "master_seed must be an integer"),
                (ints([self.n_train, self.n_test, self.n_pools, self.pool_size]),
                 "n_train, n_test, n_pools and pool_size must be integers >= 1"),
                (ints(self.n_grid) and all(a < b for a, b in zip(self.n_grid, self.n_grid[1:])),
                 "n_grid must be a nonempty, strictly increasing list of integers >= 1"),
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
        return self

    def to_dict(self) -> dict:
        # family, modes and subsample_fractions are gone; their old defaults
        # keep every lab's config hash
        return dict(self._asdict(), family="default", modes=list(MODES), subsample_fractions=[])

    def config_hash(self) -> str:
        return canonical_hash(self.to_dict())

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
                raise ConfigError(f"config {path} is not valid JSON ({exc})") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        unknown = set(doc) - set(cls._fields)
        if unknown:
            raise ConfigError(f"config: unknown keys {reprlib.repr(sorted(unknown))}")
        return cls(**doc)

    def build_family(self) -> envs.EnvironmentFamily:
        return envs.default_family(derive_seed(self.master_seed, "family"),
                                   self.n_train, self.n_test)

    def train_config(self, mode: str, env_id: str) -> TrainConfig:
        seed = derive_seed(self.master_seed, f"train:{mode}:{env_id}")
        return TrainConfig(mode=mode, seed=seed, **self.train)

    def proxy_config(self, audited_mode: str, env_id: str) -> TrainConfig:
        # Paired proxy: same init seed as the audited model, text-only loss.
        return TrainConfig(**dict(self.train_config(audited_mode, env_id)._asdict(),
                                  mode="text_only"))


class Workspace:
    """Paths, manifest bookkeeping, and resume logic for one output dir;
    ``jobs`` is the number of training workers.

    A manifest whose ``files`` holds a name that is absolute, not normal,
    starts with ``..`` or is over ``NAME_MAX`` characters is corrupt, so the
    lab reads only paths its own code builds; one without ``files`` (an older
    format) is set aside like another config's, and the lab is rebuilt.
    ``artifact_path`` hashes each file at most once, and counts a name whose
    path is not a regular file (a FIFO, a device, a symlink to one) or is in
    a symlinked directory as missing, and ``path`` refuses the latter."""

    def __init__(self, config: ExperimentConfig, out: str, jobs: int = 1):
        self.config, self.out, self.jobs = config, out, jobs
        self.verified = {}  # name -> sha256 last checked against its file
        self.rebuild = None  # {"build", "inputs", "outputs"} while a verb rebuilds
        self.manifest_path = os.path.join(self.out, "manifest.json")
        self.manifest = {"config_hash": config.config_hash(), "files": {}, "timings": {}}
        if os.path.isfile(self.manifest_path):
            with open(self.manifest_path, encoding="utf-8") as fh:
                try:
                    old = json.load(fh)
                except (ValueError, RecursionError):  # truncated, not JSON, or nested too deep
                    old = None
            if not isinstance(old, dict):
                raise LabError(f"corrupt manifest {self.manifest_path}: not a JSON "
                               "object; delete it to rebuild the output dir")
            if old.get("config_hash") == self.manifest["config_hash"] and "files" in old:
                files = old["files"]
                if not (isinstance(files, dict) and isinstance(old.get("timings"), dict)
                        and all(isinstance(sha, str) and len(name) <= NAME_MAX
                                and not os.path.isabs(name) and not name.startswith("..")
                                and os.path.normpath(name) == name
                                for name, sha in files.items())):
                    raise LabError(f"corrupt manifest {self.manifest_path}: files "
                                   "or timings malformed; delete it to rebuild the output dir")
                self.manifest = old

    def _own_dir(self, name) -> bool:
        """True when the directory of ``name`` resolves to itself under the real
        path of ``--out`` (which may be a symlink): no symlink leads it elsewhere."""
        real = os.path.join(os.path.realpath(self.out), os.path.dirname(name))
        return os.path.realpath(real) == os.path.normpath(real)

    def path(self, name) -> str:
        full = os.path.join(self.out, name)
        if not self._own_dir(name):
            raise LabError(f"{os.path.dirname(full)} goes through a symlinked directory")
        os.makedirs(os.path.dirname(full), exist_ok=True)
        return full

    def is_current(self, name) -> bool:
        """True when ``artifact_path`` accepts the artifact."""
        try:
            return bool(self.artifact_path(name))
        except MissingArtifactError:
            return False

    def record(self, name: str) -> None:
        """Record the sha256 of the artifact at ``name``."""
        sha = _file_sha256(os.path.join(self.out, name))
        self.manifest["files"][name] = self.verified[name] = sha
        if self.rebuild is not None:
            self.rebuild["outputs"].append(name)

    def write(self, name: str, doc) -> None:
        """Write the artifact at ``name`` through ``_replace_file`` and record it."""
        _replace_file(self.path(name), doc)
        self.record(name)

    def artifact_path(self, name: str) -> str:
        sha = self.manifest["files"].get(name)
        if sha is None:
            raise MissingArtifactError(f"artifact {name!r} not in manifest")
        path = os.path.join(self.out, name)
        if self.verified.get(name) == sha:
            return path
        if not (os.path.isfile(path) and self._own_dir(name)):  # a FIFO would block
            raise MissingArtifactError(f"artifact {name!r} missing on disk")
        if _file_sha256(path) != sha:
            raise MissingArtifactError(f"artifact {name!r} failed its hash check")
        self.verified[name] = sha
        return path

    def reuse(self, verb: str, build: str, input_names) -> bool:
        """True, after ``verb`` says so, when the record of ``build``'s last
        run lists the verified sha256 of each of ``input_names`` as it is now
        and every output that run recorded is current.

        Otherwise the record is dropped and ``verb`` rebuilds; ``finish``
        writes the new record once every output is written. A missing or
        malformed record only means a rebuild."""
        inputs = {}
        for name in input_names:
            self.artifact_path(name)
            inputs[name] = self.manifest["files"][name]
        builds = self.manifest.get("builds")
        if not isinstance(builds, dict):
            builds = self.manifest["builds"] = {}
        last = builds.pop(build, None)
        outputs = last.get("outputs") if isinstance(last, dict) else None
        if (isinstance(outputs, list) and outputs and last.get("inputs") == inputs
                and all(isinstance(name, str) and self.is_current(name) for name in outputs)):
            builds[build] = last
            print(f"{verb}: skip (outputs up to date)")
            return True
        self.rebuild = {"build": build, "inputs": inputs, "outputs": []}
        return False

    def finish(self, t0: float) -> None:
        """Record the build that ``reuse`` started (its inputs and every output
        recorded since) and its wall time since ``t0``; save the manifest."""
        build = self.rebuild.pop("build")
        self.manifest["builds"][build], self.rebuild = self.rebuild, None
        self.save_manifest(build, time.monotonic() - t0)

    def save_manifest(self, timing_key: str, seconds: float) -> None:
        """Set ``timings[timing_key]`` and save the manifest."""
        self.manifest["timings"][timing_key] = seconds
        _replace_file(self.manifest_path, self.manifest)


class OutputLock:
    """One process owns an output directory at a time, through an exclusive
    ``flock`` on ``DIR/.lock``, opened without blocking. The kernel drops it
    when its holder ends, so a killed run leaves a file the next run takes."""

    def __init__(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        self.path = os.path.join(out_dir, ".lock")

    def __enter__(self):
        self.fd = os.open(self.path, os.O_CREAT | os.O_WRONLY | os.O_NONBLOCK)
        try:
            fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # a holder that finished unlinked the file it locked: ours must be the one at path
            if os.fstat(self.fd).st_ino != os.stat(self.path).st_ino:
                raise FileNotFoundError
        except (BlockingIOError, FileNotFoundError):
            os.close(self.fd)
            raise LabError(f"output dir is locked by another run: {self.path}") from None
        return self

    def __exit__(self, *exc):
        with suppress(FileNotFoundError):  # unlinked while held: a later locker sees it gone
            os.unlink(self.path)
        os.close(self.fd)
        return False


def _dataset_name(env_id: str, split: str) -> str:
    return f"datasets/{env_id}_{split}.npz"


def cmd_gen(ws: Workspace) -> None:
    """Write the family description and every environment split to disk."""
    t0 = time.monotonic()
    # the family and its splits come from the config, which the manifest is keyed on
    if ws.reuse("gen", "gen", []):
        return
    family = ws.config.build_family()
    specs = family.specs.values()
    ws.write("family.json", {"family_seed": family.family_seed, "m_scale": envs.M_SCALE,
                             "envs": [envs.spec_to_dict(s) for s in specs]})

    for spec in specs:
        for split in ("train", "test"):
            name = _dataset_name(spec.env_id, split)
            dataset = envs.sample_env(family, spec.env_id, split)
            ws.write(name, lambda path: envs.write_dataset(dataset, path))
            print(f"gen: wrote {name} ({len(dataset)} samples)")
    ws.finish(t0)


def _train_one(job: tuple) -> float:
    """One training job, (TrainConfig, train split path, run.json path), that
    writes its own run; worker-safe. Returns the job's wall seconds."""
    t0 = time.monotonic()
    config, dataset_path, path = job
    _replace_file(path, training.train(config, envs.read_dataset(dataset_path)).save)
    return time.monotonic() - t0


def _ensure_runs(ws: Workspace, wanted: list) -> int:
    """Train whatever is stale in ``wanted``: (run.json name, TrainConfig,
    env_id) triples. Each trained job's wall seconds go to ``timings[name]``.

    Returns the number of jobs trained."""
    names, jobs = [], []
    for name, config, env_id in wanted:
        if ws.is_current(name):
            continue
        names.append(name)
        jobs.append((config, ws.artifact_path(_dataset_name(env_id, "train")), ws.path(name)))
    pool, run, broken = nullcontext(), map, ()  # serial: no pool error to catch
    if ws.jobs > 1 and jobs:  # the pool modules load only when a pool is made
        # executed before the fork (any attribute access runs a lazy module),
        # so each worker inherits numpy instead of importing it
        vars(envs), vars(training)
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        pool = ProcessPoolExecutor(max_workers=min(ws.jobs, len(jobs)))
        run, broken = pool.map, BrokenProcessPool
    with pool:
        try:
            for name, seconds in zip(names, run(_train_one, jobs)):
                ws.record(name)
                ws.save_manifest(name, seconds)  # a run that dies later keeps this one
                print(f"train: finished {name}")
        except broken:
            raise LabError("a training worker died; the finished runs are recorded, "
                           "rerun to train the rest") from None
    return len(jobs)


def _run_name(mode: str, env_id: str) -> str:
    """The ``run.json`` of a net; a proxy's ``mode`` is ``proxy-<audited mode>``."""
    return f"models/{mode}/{env_id}/run.json"


def _nets(config: ExperimentConfig) -> list:
    """(run.json name, TrainConfig, env_id) of the lab's 15 nets: one per
    (mode, environment), then the paired text-only proxy of each audited net."""
    return ([(_run_name(mode, e), config.train_config(mode, e), e)
             for mode in MODES for e in ENVS]
            + [(_run_name(f"proxy-{mode}", e), config.proxy_config(mode, e), e)
               for mode in AUDIT_MODES for e in ENVS])


def cmd_train(ws: Workspace) -> None:
    """Train the lab's 15 nets."""
    t0 = time.monotonic()
    if _ensure_runs(ws, _nets(ws.config)):  # only a call that trained may set the timing
        ws.save_manifest("train", time.monotonic() - t0)


def _evaluate(ws: Workspace, verb: str) -> None:
    """The one build behind ``matrix``, ``sfd`` and ``bon``, run by whichever
    of them ``verb`` is: bring the 15 nets up to date, score each once on each
    test split, and write all three outputs; matrix and sfd cells count those."""
    t0 = time.monotonic()
    cmd_train(ws)
    names = [name for name, _, _ in _nets(ws.config)]
    # the best-of-N pools come from the config, which the manifest is keyed on
    if ws.reuse(verb, "evaluate", names + [_dataset_name(e, "test") for e in ENVS]):
        return
    nets = {name: training.TrainRun.load(ws.artifact_path(name)).primary for name in names}
    text_rows = [training.TEXT_ROWS[config.mode][0] for _, config, _ in _nets(ws.config)]
    test_sets = (envs.read_dataset(ws.artifact_path(_dataset_name(e, "test"))) for e in ENVS)
    correct = {(name, e): row for e, test_set in zip(ENVS, test_sets) for name, row
               in zip(names, evaluation.outcomes(nets.values(), text_rows, test_set))}

    summary = {}
    for mode in MODES:
        cells = {(tr, te): correct[_run_name(mode, tr), te] for tr in ENVS for te in ENVS}
        matrix = evaluation.gen_matrix(mode, cells, ENVS)
        iid, ood = matrix["mean_diagonal"], matrix["mean_off_diagonal"]
        rows = [["train_env", *ENVS]] + [[e, *map(repr, row)]
                                         for e, row in zip(ENVS, matrix["acc"])]
        ws.write(f"reports/matrix_{mode}.csv", "".join(",".join(row) + "\r\n" for row in rows))
        ws.write(f"reports/matrix_{mode}.svg",
                 svg.heatmap_svg(ENVS, ENVS, matrix["acc"], f"accuracy matrix ({mode})"))
        summary[mode] = {"matrix": matrix, "mean_iid": iid, "mean_ood": ood, "gap": iid - ood}
        print(f"matrix[{mode}]: iid={iid:.4f} ood={ood:.4f}")
    ws.write("reports/matrix_summary.json", summary)

    for mode in AUDIT_MODES:  # shortcut-failure degradation of every o.o.d. cell
        reports = [evaluation.sfd_report(correct[_run_name(mode, train_env), test_env],
                                         correct[_run_name(f"proxy-{mode}", train_env), test_env],
                                         train_env=train_env, test_env=test_env, mode=mode)
                   for train_env in ENVS for test_env in ENVS if test_env != train_env]
        ws.write(f"reports/sfd_{mode}.json", reports)
        vals = [r["sfd"] for r in reports if r["sfd"] is not None]
        print(f"sfd[{mode}]: {len(reports)} cells, "
              f"range [{min(vals):.3f}, {max(vals):.3f}]" if vals else
              f"sfd[{mode}]: all splits degenerate")

    family = ws.config.build_family()
    audited = {f"{mode}/{e}": nets[_run_name(mode, e)]
               for mode, e in sorted((m, e) for m in AUDIT_MODES for e in ENVS)}
    n_max = max(ws.config.n_grid)
    # LF line ends, where the matrix CSVs end theirs in CRLF: each keeps the
    # bytes of earlier labs' files
    lines, ood = ["mode,train_env,pool_env,n,score\n"], {mode: [] for mode in AUDIT_MODES}
    for pool_env in ENVS:
        seed = derive_seed(ws.config.master_seed, f"pools:{pool_env}")
        pools = bestofn.make_pools(family, ws.config.n_pools, ws.config.pool_size, seed, pool_env)
        curves = bestofn.bon_curve(bestofn.score_pool(pools, audited), pools.judge_scores,
                                   ws.config.n_grid)
        del pools  # freed before the next environment's pools are built
        for name, points in sorted(curves.items()):
            mode, train_env = name.split("/")
            for n, score in points:
                lines.append(f"{mode},{train_env},{pool_env},{n},{score!r}\n")
                if n == n_max and train_env != pool_env:
                    ood[mode].append(score)
        ws.write(f"reports/bon_{pool_env}.svg",
                 svg.line_chart_svg(curves, f"best-of-N on env {pool_env} pools",
                                    "N", "judge score"))
    ws.write("reports/bon_curves.csv", "".join(lines))

    best = {mode: sum(vals) / len(vals)  # every family has an o.o.d. pool for each net
            for mode, vals in ood.items()}
    ws.write("reports/bon_summary.json", {"n_max": n_max, "ood_best_at_n_max": best})
    print(f"bon: ood best-of-{n_max} " + " ".join(f"{m}={v:.3f}" for m, v in best.items()))
    ws.finish(t0)


def cmd_matrix(ws: Workspace) -> None:
    """Cross-distribution accuracy matrices for every mode (``_evaluate``)."""
    _evaluate(ws, "matrix")


def cmd_sfd(ws: Workspace) -> None:
    """Shortcut-failure degradation reports for every o.o.d. cell (``_evaluate``)."""
    _evaluate(ws, "sfd")


def cmd_bon(ws: Workspace) -> None:
    """Best-of-N curves for every audited net over i.i.d. and o.o.d. pools
    (``_evaluate``)."""
    _evaluate(ws, "bon")


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
    inputs = ["reports/matrix_summary.json", *(f"reports/sfd_{m}.json" for m in AUDIT_MODES),
              "reports/bon_summary.json"]
    verified, missing = {}, []  # each recorded name, plus the required inputs
    for name in sorted(set(ws.manifest["files"]) | set(inputs)):
        try:
            verified[name] = ws.artifact_path(name)
        except MissingArtifactError as exc:
            missing.append(f"{name}: {exc}")

    def load(name):
        with open(verified[name], encoding="utf-8") as fh:
            return json.load(fh)

    summary, sfd_docs, bon_summary, checks, lines = {}, {}, None, [], []
    if all(name in verified for name in inputs):
        try:
            summary, *sfd, bon_summary = map(load, inputs)
            sfd_docs = dict(zip(AUDIT_MODES, sfd))
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
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            # the exception's type, not its message: a message can echo file content
            raise LabError(f"malformed report input among {', '.join(inputs)} "
                           f"({type(exc).__name__})") from None
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
    ws.write("reports/report.json", report)

    lines = [f"lab report (config {report['config_hash'][:12]})", "", *lines, ""]
    for c in checks:
        lines.append(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}")
    for m in missing:
        lines.append(f"[FAIL] missing artifact: {m}")
    lines.append("")
    lines.append("RESULT: " + ("PASS" if ok else "FAIL"))
    text = "\n".join(lines) + "\n"
    ws.write("reports/summary.txt", text)
    ws.save_manifest("report", time.monotonic() - t0)
    print(text, end="")
    return 0 if ok else 1


VERBS = {"gen": "generate environment datasets",
         "train": "train all 15 nets: one per mode and env, plus 6 text-only proxies",
         "matrix": "cross-distribution accuracy matrices (one build with sfd and bon)",
         "sfd": "shortcut-failure degradation reports (one build with matrix and bon)",
         "bon": "best-of-N curves (one build with matrix and sfd)",
         "report": "consolidated report and assertion suite"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmlab", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="shortcut-learning lab for multimodal reward models",
        epilog="verbs:\n" + "".join(f"  {verb:<8}{doc}\n" for verb, doc in VERBS.items()))
    parser.add_argument("verb", choices=VERBS, metavar="verb", help="one of the verbs below")
    parser.add_argument("--config", help="experiment config JSON")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out", default=DEFAULT_OUT, help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="parallel training jobs")
    return parser


def load_config(args) -> ExperimentConfig:
    """The config file (or the defaults) with ``--seed`` applied, validated."""
    config = (ExperimentConfig.from_file(args.config) if args.config
              else ExperimentConfig())
    if args.seed is None:
        return config
    return ExperimentConfig(**dict(config._asdict(), master_seed=args.seed))


COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "matrix": cmd_matrix,
    "sfd": cmd_sfd,
    "bon": cmd_bon,
    "report": cmd_report,
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
            return COMMANDS[args.verb](Workspace(config, args.out, args.jobs)) or 0
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the allocation it could not make
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """The ``rmlab`` command: ``main()``, then flush stdout and stderr and end
    the process with ``os._exit``, which skips interpreter teardown (and so
    closes no file: every file a verb opens is closed before ``main`` returns).
    ``--help`` and usage errors leave through argparse's ``SystemExit``."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        with suppress(BrokenPipeError):  # a reader that left loses the output, not the code
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
