import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from rmlab import cli
from rmlab.cli import ExperimentConfig, canonical_hash, derive_seed, main
from rmlab.errors import LabError

SRC = Path(__file__).resolve().parent.parent / "src"


TINY = {
    "master_seed": 31337,
    "n_train": 360,
    "n_test": 120,
    "train": {"epochs": 2, "batch_size": 64, "hidden": 16},
    "n_pools": 6,
    "pool_size": 16,
    "n_grid": [1, 2, 4, 8, 16],
}


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = dict(TINY)
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(verb, config, out):
    return main([verb, "--config", config, "--out", str(out)])


def run_cli(verb, config, out, *flags, cwd=None):
    """One verb in a fresh interpreter, as a user runs it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "rmlab.cli", verb, "--config", config,
                           "--out", str(out), *flags], env=env, capture_output=True,
                          text=True, timeout=120, cwd=cwd)


class TestConfig:
    def test_hash_ignores_key_order(self):
        a = {"x": 1, "y": [1, 2], "z": {"k": 3}}
        b = {"z": {"k": 3}, "y": [1, 2], "x": 1}
        assert canonical_hash(a) == canonical_hash(b)

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(7, "family") == derive_seed(7, "family")
        assert derive_seed(7, "family") != derive_seed(7, "train:standard:A")
        assert derive_seed(7, "family") != derive_seed(8, "family")

    def test_config_hash_unchanged(self):
        # A lab whose stored config hash differs throws its manifest away and
        # rebuilds everything, so these must not move.
        assert ExperimentConfig().config_hash() == \
            "d6a5253b9354955146b94408b43fc85e05aa3b3a9381cee43bf89fd5042e9a7e"
        assert ExperimentConfig(**TINY).config_hash() == \
            "e666907f731787041841ffd0663d56a6820253df63843a317ac374c2235a338c"

    def test_readme_config_example_is_valid(self):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("Config file keys")[1].split("```json")[1].split("```")[0]
        ExperimentConfig(**json.loads(block))
        assert set(json.loads(block)) == set(ExperimentConfig.__dataclass_fields__)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"masterseed": 1}))
        from rmlab.errors import ConfigError

        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    def test_mode_flag_is_rejected(self, tmp_path):
        proc = run_cli("gen", write_config(tmp_path), tmp_path / "out", "--mode", "standard")
        assert proc.returncode == 2
        assert "unrecognized arguments: --mode" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_modes_key_is_rejected(self, tmp_path):
        # removed: every verb runs all three modes
        proc = run_cli("gen", write_config(tmp_path, modes=["standard"]), tmp_path / "out")
        assert proc.returncode == 2
        assert "error: config: unknown keys ['modes']" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("override", [
        {"train": {"mode": "standard"}},  # mode is set per job, not in train
        {"n_train": "many"},
        {"train": {"bogus": 3}},
        {"train": {"sfc_normalized": True}},  # removed: weights are always normalized
        {"subsample_fractions": [0.25]},  # removed: no verb read the subsampled sets
        {"family": "default"},  # removed: the default family is the only one
        # json reads NaN and Infinity; a non-finite or negative rate or decay
        # must stop gen, not surface after all 15 jobs have trained
        {"train": {"base_lr": float("nan")}},
        {"train": {"base_lr": -0.001}},
        {"train": {"aux_lr_scale": float("inf")}},
        {"train": {"weight_decay": -5.0}},
        {"train": {"base_lr": 0.0}},
        {"train": {"weight_decay": float("inf")}},
        # every TrainConfig range or type error is reported as a config error
        {"train": {"epochs": 0}},
        {"train": {"warmup_ratio": 1.0}},
        {"train": {"hidden": True}},
        # top-level types and ranges
        {"master_seed": 1.5},
        {"master_seed": True},
        {"n_grid": []},
        {"jobs": 0},
        # removed: the output dir and the worker count are flags, not settings
        {"out_dir": "x"},
        {"jobs": 2},
        {"train": {"force_uniform_weights": True}},
    ])
    def test_malformed_config_exits_2_without_traceback(self, tmp_path, override):
        config = write_config(tmp_path, **override)
        out = tmp_path / "out"
        proc = run_cli("gen", config, out)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config")
        assert "Traceback" not in proc.stderr
        assert not (out / "manifest.json").exists()

    # --out and --jobs are flags only; an empty --out must not fall back to labout
    @pytest.mark.parametrize("out, flags", [("out", ["--jobs", "0"]), ("out", ["--jobs", "-1"]),
                                            ("", [])], ids=["jobs-0", "jobs-neg", "empty-out"])
    def test_bad_flag_exits_2_without_traceback(self, tmp_path, out, flags):
        proc = run_cli("gen", write_config(tmp_path), out, *flags, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("*/manifest.json"))

    def test_subsample_flag_is_rejected(self, tmp_path):
        proc = run_cli("gen", write_config(tmp_path), tmp_path / "out", "--subsample", "0.25")
        assert proc.returncode == 2
        assert "unrecognized arguments: --subsample" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestGen:
    def test_writes_all_datasets_and_manifest(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("gen", config, out) == 0
        files = sorted(os.listdir(out / "datasets"))
        assert files == ["A_test.npz", "A_train.npz", "B_test.npz",
                         "B_train.npz", "C_test.npz", "C_train.npz"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert "dataset:A:train" in manifest["artifacts"]

    def test_rerun_is_skipped_and_fingerprint_stable(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        run("gen", config, out)
        m1 = json.loads((out / "manifest.json").read_text())["artifacts"]
        run("gen", config, out)
        captured = capsys.readouterr().out
        assert "skip" in captured
        m2 = json.loads((out / "manifest.json").read_text())["artifacts"]
        assert {k: v["sha256"] for k, v in m1.items()} == \
               {k: v["sha256"] for k, v in m2.items()}

    def test_entry_at_an_old_path_is_regenerated(self, tmp_path, capsys):
        # An output dir from before the .npz format records its datasets as
        # .jsonl files with valid hashes; gen must not skip them.
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("gen", config, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        entry = manifest["artifacts"]["dataset:A:train"]
        old = out / "datasets" / "A_train.jsonl"
        old.write_text('{"env_id": "A"}\n')
        entry["path"] = "datasets/A_train.jsonl"
        entry["sha256"] = hashlib.sha256(old.read_bytes()).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run("gen", config, out) == 0
        assert "wrote datasets/A_train.npz" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"]["dataset:A:train"]["path"] == "datasets/A_train.npz"
        assert not old.exists()  # the superseded file is deleted

    def test_superseded_path_outside_the_output_dir_is_kept(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("gen", config, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        outside = tmp_path / "A_train.jsonl"
        outside.write_text('{"env_id": "A"}\n')
        manifest["artifacts"]["dataset:A:train"]["path"] = "../A_train.jsonl"
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run("gen", config, out) == 0
        assert outside.exists()

    def test_unreadable_dataset_exits_2_without_traceback(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("gen", config, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        bad = out / "datasets" / "A_train.npz"
        bad.write_bytes(b"not an archive")
        manifest["artifacts"]["dataset:A:train"]["sha256"] = \
            hashlib.sha256(bad.read_bytes()).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest))
        proc = run_cli("train", config, out)
        assert proc.returncode == 2
        assert "not a valid dataset file" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_truncated_manifest_exits_2_without_traceback(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("gen", config, out) == 0
        manifest = out / "manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:100])
        proc = run_cli("report", config, out)
        assert proc.returncode == 2
        assert "corrupt manifest" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("damage", [
        lambda m: m.pop("artifacts"),
        lambda m: m.update(artifacts={"family": "x"}),
        lambda m: m["artifacts"]["family"].update(path=None),
        lambda m: m.pop("timings"),
    ], ids=["no-artifacts", "entry-not-object", "path-not-string", "no-timings"])
    def test_malformed_manifest_exits_2_without_traceback(self, tmp_path, damage):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("gen", config, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        damage(manifest)
        (out / "manifest.json").write_text(json.dumps(manifest))
        proc = run_cli("gen", config, out)
        assert proc.returncode == 2
        assert "corrupt manifest" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_lock_excludes_concurrent_runs(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text("123")
        assert run("gen", config, out) == 2

    def test_live_lock_is_reported_as_locked(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text(str(os.getpid()))
        assert run("gen", config, out) == 2
        assert "locked by another run" in capsys.readouterr().err

    def test_stale_lock_reported_with_its_pid(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        finished = subprocess.Popen([sys.executable, "-c", "pass"])
        finished.wait()
        (out / ".lock").write_text(str(finished.pid))
        assert run("gen", config, out) == 2
        err = capsys.readouterr().err
        assert "stale lock" in err and f"pid {finished.pid} is not running" in err
        assert (out / ".lock").read_text() == str(finished.pid)  # not taken over
        assert not (out / "manifest.json").exists()

    def test_interrupted_manifest_write_keeps_the_old_manifest(self, tmp_path,
                                                                monkeypatch):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("gen", config, out) == 0
        before = (out / "manifest.json").read_bytes()
        real_dump = json.dump

        def dump_then_fail(doc, fh, **kwargs):
            if not fh.name.endswith("manifest.json.tmp"):
                return real_dump(doc, fh, **kwargs)
            fh.write(json.dumps(doc, **kwargs)[:100])
            raise OSError("no space left on device")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        assert run("gen", config, out) == 2
        monkeypatch.undo()
        assert (out / "manifest.json").read_bytes() == before
        assert not (out / "manifest.json.tmp").exists()
        assert run("gen", config, out) == 0


@pytest.fixture(scope="module")
def done(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipe")
    config = write_config(tmp)
    out = tmp / "out"
    for verb in ("gen", "matrix", "sfd", "bon"):
        assert main([verb, "--config", config, "--out", str(out)]) == 0
    return config, out


class TestPipeline:
    def test_matrix_reports_per_mode(self, done):
        _, out = done
        for mode in ("standard", "text_only", "shortcut_aware"):
            assert (out / "reports" / f"matrix_{mode}.csv").exists()
            assert (out / "reports" / f"matrix_{mode}.svg").exists()
        summary = json.loads((out / "reports" / "matrix_summary.json").read_text())
        assert set(summary) == {"standard", "text_only", "shortcut_aware"}
        for doc in summary.values():
            assert 0.0 <= doc["mean_iid"] <= 1.0

    def test_sfd_reports_cover_off_diagonal_cells(self, done):
        _, out = done
        for mode in ("standard", "shortcut_aware"):
            docs = json.loads((out / "reports" / f"sfd_{mode}.json").read_text())
            assert len(docs) == 6
            cells = {(d["train_env"], d["test_env"]) for d in docs}
            assert all(a != b for a, b in cells) and len(cells) == 6

    def test_bon_outputs(self, done):
        _, out = done
        lines = (out / "reports" / "bon_curves.csv").read_text().splitlines()
        # 2 modes x 3 train envs x 3 pool envs x 5 grid points + header
        assert len(lines) == 2 * 3 * 3 * 5 + 1
        summary = json.loads((out / "reports" / "bon_summary.json").read_text())
        assert summary["n_max"] == 16
        assert set(summary["ood_best_at_n_max"]) == {"standard", "shortcut_aware"}

    # sha256 of the tiny lab's best-of-N outputs, recorded with the per-call
    # rank-loop estimator and per-candidate judge that the batched path
    # replaced: a one-ulp drift in any curve point changes them.
    BON_DIGESTS = {
        "bon_curves.csv": "90955216fde685d1c0fc7e01e716aa12a096a70a5dd619249eb6b815f3a79154",
        "bon_summary.json": "28588b68b4bb6baf9cc3eef1742682cb183af88c388cd3273a8b7a5a4c563c11",
    }

    def test_bon_outputs_bit_identical_to_recorded_digests(self, done):
        _, out = done
        assert {name: hashlib.sha256((out / "reports" / name).read_bytes()).hexdigest()
                for name in self.BON_DIGESTS} == self.BON_DIGESTS

    def test_report_emits_consolidated_artifacts(self, done):
        config, out = done
        code = main(["report", "--config", config, "--out", str(out)])
        report = json.loads((out / "reports" / "report.json").read_text())
        assert report["envs"] == ["A", "B", "C"]
        assert not report["missing_artifacts"]
        assert (out / "reports" / "summary.txt").exists()
        # directional checks may legitimately fail at this tiny scale; the
        # exit code must agree with the verdict either way
        assert code == (0 if report["passed"] else 1)
        assert len(report["checks"]) == 12

    @pytest.mark.parametrize("victim, key", [
        ("models/standard/A/run.json", "model:standard:A"),
        ("reports/matrix_summary.json", "report:matrix-summary"),
    ], ids=["run", "matrix-summary"])
    def test_report_flags_deleted_artifact(self, done, victim, key):
        config, out = done
        victim = out / victim
        backup = victim.read_bytes()
        victim.unlink()
        try:
            code = main(["report", "--config", config, "--out", str(out)])
            assert code == 1
            report = json.loads((out / "reports" / "report.json").read_text())
            assert len([m for m in report["missing_artifacts"] if key in m]) == 1
        finally:
            victim.write_bytes(backup)

    def test_every_file_is_a_hashed_manifest_entry(self, done):
        config, out = done
        main(["report", "--config", config, "--out", str(out)])
        artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
        recorded = {e["path"]: e["sha256"] for e in artifacts.values()}
        files = sorted(os.path.relpath(os.path.join(d, f), out)
                       for d, _, names in os.walk(out) for f in names)
        files.remove("manifest.json")
        unhashed = [f for f in files if recorded.get(f) !=
                    hashlib.sha256((out / f).read_bytes()).hexdigest()]
        assert not unhashed
        assert "models/shortcut_aware/A/run.json" in files

    @pytest.mark.parametrize("part", ["aux", "epoch_sfc_stats", "sfc_trace"])
    def test_damaged_run_part_is_flagged_and_retrained(self, tmp_path, capsys, part):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        for verb in ("gen", "matrix"):
            assert run(verb, config, out) == 0
        path = out / "models" / "shortcut_aware" / "A" / "run.json"
        good = path.read_bytes()
        doc = json.loads(good)
        doc[part] = None
        path.write_text(json.dumps(doc))
        assert run("report", config, out) == 1
        report = json.loads((out / "reports" / "report.json").read_text())
        assert [m for m in report["missing_artifacts"] if "model:shortcut_aware:A" in m]
        capsys.readouterr()
        assert run("matrix", config, out) == 0
        assert capsys.readouterr().out.count("train: finished") == 1
        assert path.read_bytes() == good

    def test_run_recorded_at_old_primary_path_is_retrained(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        for verb in ("gen", "matrix"):
            assert run(verb, config, out) == 0
        run_dir = out / "models" / "standard" / "A"
        # An output dir from before run.json records the net alone, beside its
        # side files, in primary.json.
        old = run_dir / "primary.json"
        old.write_text(json.dumps(json.loads((run_dir / "run.json").read_text())["primary"]))
        (run_dir / "run.json").unlink()
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["artifacts"]["model:standard:A"] = {
            "path": "models/standard/A/primary.json",
            "sha256": hashlib.sha256(old.read_bytes()).hexdigest()}
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run("matrix", config, out) == 0
        assert "train: finished model:standard:A" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"]["model:standard:A"]["path"] == \
            "models/standard/A/run.json"
        assert (run_dir / "run.json").exists()
        assert not old.exists()

    def test_train_timing_left_to_calls_that_train(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        for verb in ("gen", "matrix"):
            assert run(verb, config, out) == 0
        timings = json.loads((out / "manifest.json").read_text())["timings"]
        assert run("bon", config, out) == 0  # every bon model is already trained
        after = json.loads((out / "manifest.json").read_text())["timings"]
        assert after["train"] == timings["train"]
        assert "bon" in after

    def test_first_model_verb_trains_all_15_nets(self, tmp_path, capsys):
        # one job list: bon alone trains the matrix nets and the sfd proxies
        # too, so matrix and sfd after it train nothing
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("gen", config, out) == 0
        capsys.readouterr()
        assert run("bon", config, out) == 0
        assert capsys.readouterr().out.count("train: finished") == 15
        keys = json.loads((out / "manifest.json").read_text())["artifacts"]
        assert sorted(k for k in keys if k.startswith("model:")) == sorted(
            f"model:{m}:{e}" for m in ("standard", "text_only", "shortcut_aware",
                                       "proxy-standard", "proxy-shortcut_aware")
            for e in ("A", "B", "C"))
        for verb in ("matrix", "sfd"):
            assert run(verb, config, out) == 0
        assert "train: finished" not in capsys.readouterr().out

    def test_n_grid_beyond_pool_size_rejected_before_training(self, tmp_path):
        config = write_config(tmp_path, n_grid=[1, 16], pool_size=8)
        out = tmp_path / "out"
        assert run("gen", config, out) == 2
        assert not (out / "models").exists()

    def test_report_requires_sfd_and_bon_outputs(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        for verb in ("gen", "matrix"):
            assert run(verb, config, out) == 0
        assert run("report", config, out) == 1
        report = json.loads((out / "reports" / "report.json").read_text())
        assert [m.split(": ")[0] for m in report["missing_artifacts"]] == [
            "report:bon-summary", "report:sfd:shortcut_aware", "report:sfd:standard"]
        assert report["checks"] == [] and not report["passed"]

    def test_pool_forks_no_more_workers_than_stale_jobs(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("gen", config, out) == 0
        sizes = []

        class RecordingPool:  # runs the jobs in this process; records the pool size
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [fn(job) for job in jobs]

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        ws = cli.Workspace(ExperimentConfig.from_file(config), str(out), jobs=64)
        wanted = [(cli._run_key("standard", e), ws.config.train_config("standard", e), e)
                  for e in ("A", "B")]
        assert cli._ensure_runs(ws, wanted) == 2
        assert sizes == [2]

    def test_dead_worker_exits_2_keeping_finished_runs(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("gen", config, out) == 0

        class DyingPool:  # the first job finishes, then a worker is killed
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                yield fn(jobs[0])
                raise BrokenProcessPool("a child process terminated abruptly")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", DyingPool)
        ws = cli.Workspace(ExperimentConfig.from_file(config), str(out), jobs=2)
        wanted = [(cli._run_key("standard", e), ws.config.train_config("standard", e), e)
                  for e in ("A", "B")]
        with pytest.raises(LabError, match="worker died"):
            cli._ensure_runs(ws, wanted)
        recorded = json.loads((out / "manifest.json").read_text())["artifacts"]
        assert "model:standard:A" in recorded and "model:standard:B" not in recorded
        assert cli._ensure_runs(cli.Workspace(ws.config, str(out)), wanted) == 1

    def test_jobs_flag_matches_serial_results(self, done, tmp_path_factory):
        config, serial_out = done
        tmp = tmp_path_factory.mktemp("jobs")
        out = tmp / "out"
        for verb in ("gen", "matrix"):
            assert main([verb, "--config", config, "--out", str(out),
                         "--jobs", "2"]) == 0
        a = (serial_out / "reports" / "matrix_standard.csv").read_bytes()
        b = (out / "reports" / "matrix_standard.csv").read_bytes()
        assert a == b


class TestReportChecks:
    def test_degenerate_standard_b_to_c_fails_its_check(self):
        envs_ = ["A", "B", "C"]
        summary = {m: {"mean_iid": 0.9, "mean_ood": 0.5, "gap": 0.4,
                       "matrix": {"acc": [[0.5] * 3 for _ in envs_]}}
                   for m in ("text_only", "standard", "shortcut_aware")}
        sfd_docs = {m: [{"train_env": a, "test_env": b,
                         "sfd": None if (m, a, b) == ("standard", "B", "C") else sfd}
                        for a in envs_ for b in envs_ if a != b]
                    for m, sfd in (("standard", 0.3), ("shortcut_aware", 0.1))}
        bon = {"n_max": 64, "ood_best_at_n_max": {"standard": 0.5, "shortcut_aware": 0.6}}
        checks = cli._default_family_checks(summary, sfd_docs, bon)
        assert len(checks) == 12
        assert {c["name"]: c["passed"] for c in checks}["standard sfd B->C >= 0.15"] is False


class TestDeterminism:
    def test_two_runs_byte_identical_reports(self, tmp_path):
        config = write_config(tmp_path)
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            for verb in ("gen", "matrix", "sfd", "bon", "report"):
                main([verb, "--config", config, "--out", str(out)])
        reports1 = sorted(os.listdir(outs[0] / "reports"))
        reports2 = sorted(os.listdir(outs[1] / "reports"))
        assert reports1 == reports2
        for name in reports1:
            a = (outs[0] / "reports" / name).read_bytes()
            b = (outs[1] / "reports" / name).read_bytes()
            assert a == b, f"report differs between runs: {name}"
