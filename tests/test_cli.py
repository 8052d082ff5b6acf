import concurrent.futures
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from blas_core import openblas_core
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


def src_env() -> dict:
    """This environment with the package sources first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli(verb, config, out, *flags, cwd=None):
    """One verb in a fresh interpreter, as a user runs it."""
    return subprocess.run([sys.executable, "-m", "rmlab.cli", verb, "--config", config,
                           "--out", str(out), *flags], env=src_env(), capture_output=True,
                          text=True, timeout=120, cwd=cwd)


def kill_lock_holder(out, sig="SIGKILL"):
    """Leave ``out/.lock`` as a run killed by ``sig`` while it held the lock does."""
    holder = ("import os, signal, sys\n"
              "from rmlab.cli import OutputLock\n"
              "with OutputLock(sys.argv[1]):\n"
              f"    os.kill(os.getpid(), signal.{sig})\n")
    proc = subprocess.run([sys.executable, "-c", holder, str(out)], env=src_env(), timeout=60)
    assert proc.returncode == -getattr(signal, sig)
    assert (Path(out) / ".lock").exists()  # the killed holder never got to delete it


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
        assert set(json.loads(block)) == set(ExperimentConfig._fields)

    def test_help_lists_every_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        printed = capsys.readouterr().out
        assert list(cli.VERBS) == ["gen", "train", "matrix", "sfd", "bon", "report"]
        for verb, doc in cli.VERBS.items():
            assert f"  {verb:<8}{doc}\n" in printed

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
        # a key the lab never writes, whole in every later error if accepted
        lambda m: m["artifacts"].update({"k" * 1_000_000: m["artifacts"]["family"]}),
    ], ids=["no-artifacts", "entry-not-object", "path-not-string", "no-timings",
            "oversized-key"])
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
        assert len(proc.stderr) < 1024

    @pytest.mark.parametrize("verb, overrides, flags", [
        ("gen", {"n_train": 10**12}, ()),
        ("bon", {"pool_size": 10**13}, ()),
        ("train", {"train": {**TINY["train"], "hidden": 10**14}}, ("--jobs", "2")),
    ], ids=["gen", "bon", "train-jobs2"])
    def test_allocation_failure_exits_2_without_traceback(self, tmp_path, verb, overrides,
                                                          flags):
        # every size is past the 128 TiB address space, so the allocation
        # fails at once whatever the kernel's overcommit setting; with
        # --jobs 2 the pool re-raises the worker's error in the parent
        config = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        if verb != "gen":
            assert run("gen", config, out) == 0
        proc = run_cli(verb, config, out, *flags)
        assert proc.returncode == 2
        assert "error: out of memory: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (out / ".lock").exists()

    @pytest.mark.parametrize("doc", [
        {"train": {"epochs": [0] * 200_000}},
        {"train": {"hidden": "x" * 1_000_000}},
        {f"key{i}": 0 for i in range(200_000)},
    ], ids=["train-epochs-list", "train-hidden-string", "unknown-keys"])
    def test_oversized_config_value_gives_a_short_error(self, tmp_path, doc):
        # the error names a short repr of what it rejects, not the whole input
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        proc = run_cli("gen", str(config), out)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config: ")
        assert len(proc.stderr.encode()) < 1024, proc.stderr[:2000]
        assert "Traceback" not in proc.stderr
        assert not (out / ".lock").exists()

    @pytest.mark.parametrize("where", ["config", "config-train-epochs", "manifest-artifacts"])
    def test_deeply_nested_json_exits_2_without_traceback(self, tmp_path, where):
        # written as text: json.dumps cannot encode what json.load cannot decode
        def nested(depth):
            return "[" * depth + "]" * depth

        out = tmp_path / "out"
        config = write_config(tmp_path)
        if where == "config":
            Path(config).write_text(nested(100_000))
        elif where == "config-train-epochs":
            Path(config).write_text('{"train": {"epochs": %s}}' % nested(995))
        else:
            out.mkdir()
            (out / "manifest.json").write_text('{"artifacts": %s}' % nested(100_000))
        proc = run_cli("gen", config, out)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        if where == "manifest-artifacts":
            assert "error: corrupt manifest " in proc.stderr
        else:
            assert f"error: config {config} is not valid JSON (" in proc.stderr
            assert not (out / "manifest.json").exists()
        assert not (out / ".lock").exists()

    def test_held_lock_excludes_another_run(self, tmp_path, capsys):
        # flocks on two open file descriptions conflict even within one process
        config = write_config(tmp_path)
        out = tmp_path / "out"
        with cli.OutputLock(out) as held:
            assert run("gen", config, out) == 2
            assert "output dir is locked by another run" in capsys.readouterr().err
            assert os.fstat(held.fd).st_ino == (out / ".lock").stat().st_ino  # left alone
            with pytest.raises(LabError, match="locked by another run"):
                cli.OutputLock(out).__enter__()  # and still held
        assert not (out / ".lock").exists()
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("sig", ["SIGKILL", "SIGTERM"])
    def test_lock_of_a_killed_run_is_taken(self, tmp_path, sig):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        kill_lock_holder(out, sig)
        assert run("gen", config, out) == 0
        assert not (out / ".lock").exists()

    @pytest.mark.parametrize("replaced", [False, True], ids=["gone", "replaced"])
    def test_lock_file_unlinked_before_the_flock_is_not_taken(self, tmp_path, monkeypatch,
                                                              replaced):
        # a holder that finishes between a taker's open and its flock unlinks
        # the file the taker opened; a lock on that file would exclude no one
        lock, flock = cli.OutputLock(tmp_path / "out"), fcntl.flock

        def holder_finishes_first(fd, op):
            os.unlink(lock.path)
            if replaced:  # and a third run made the file anew
                Path(lock.path).touch()
            return flock(fd, op)

        monkeypatch.setattr(fcntl, "flock", holder_finishes_first)
        with pytest.raises(LabError, match="locked by another run"):
            lock.__enter__()
        assert os.path.exists(lock.path) == replaced

    def test_lock_file_with_a_live_pid_does_not_block(self, tmp_path):
        # what an older version left behind: its contents are never read
        config = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text(str(os.getpid()))
        assert run("gen", config, out) == 0
        assert not (out / ".lock").exists()

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
        (out / "datasets" / "A_test.npz").unlink()  # so that gen saves its manifest
        assert run("gen", config, out) == 2
        monkeypatch.undo()
        assert (out / "manifest.json").read_bytes() == before
        assert not (out / "manifest.json.tmp").exists()
        assert run("gen", config, out) == 0


def for_this_kernel(digests: dict) -> dict:
    """The digests recorded for the OpenBLAS kernel this process runs. A kernel
    with none recorded fails, naming itself: float bits depend on the kernel."""
    core = openblas_core()
    if core not in digests:
        pytest.fail(f"no digests recorded for OpenBLAS core {core!r} (recorded: "
                    f"{', '.join(sorted(digests))}); record them from a run on it")
    return digests[core]


def run_doc_damage(change):
    """A damage to a run.json's text that applies ``change`` to its document."""
    def damage(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return damage


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

    def test_matrix_csv_emission(self, done):
        _, out = done
        lines = (out / "reports" / "matrix_standard.csv").read_text().strip().splitlines()
        assert lines[0] == "train_env,A,B,C"
        assert len(lines) == 4

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

    def test_bon_summary_is_mean_of_ood_csv_rows(self, done):
        # ties the two files together: each mode's summary value is the mean,
        # in file order, of its o.o.d. curve points at n_max
        _, out = done
        header, *lines = (out / "reports" / "bon_curves.csv").read_text().splitlines()
        assert header == "mode,train_env,pool_env,n,score"
        rows = [line.split(",") for line in lines]
        summary = json.loads((out / "reports" / "bon_summary.json").read_text())
        n_max = summary["n_max"]
        for mode, value in summary["ood_best_at_n_max"].items():
            vals = [float(score) for m, train_env, pool_env, n, score in rows
                    if m == mode and int(n) == n_max and train_env != pool_env]
            assert len(vals) == 6
            assert sum(vals) / len(vals) == value

    # sha256 of the tiny lab's best-of-N outputs, recorded with the per-call
    # rank-loop estimator and per-candidate judge that the batched path
    # replaced: a one-ulp drift in any curve point changes them. Keyed on the
    # OpenBLAS kernel (see for_this_kernel).
    BON_DIGESTS = {"SkylakeX": {
        "bon_curves.csv": "90955216fde685d1c0fc7e01e716aa12a096a70a5dd619249eb6b815f3a79154",
        "bon_summary.json": "28588b68b4bb6baf9cc3eef1742682cb183af88c388cd3273a8b7a5a4c563c11",
    }}
    BON_DIGESTS["Haswell"] = dict(BON_DIGESTS["SkylakeX"], **{
        "bon_curves.csv": "37dce12340f6ebcc7ab52ea5570649cb71e1af4a085664c30f0440e6b359c9b1"})

    def test_bon_outputs_bit_identical_to_recorded_digests(self, done):
        _, out = done
        digests = for_this_kernel(self.BON_DIGESTS)
        assert {name: hashlib.sha256((out / "reports" / name).read_bytes()).hexdigest()
                for name in digests} == digests

    # sha256 of the tiny lab's six dataset files, recorded with the per-row
    # generator that the array-at-a-time one replaced
    DATASET_DIGESTS = {
        "A_test.npz": "77dc6ae6d77be84c575ca91436c51797a18b0893f4ae4c2c6858a18c5ed81539",
        "A_train.npz": "b8eb58980cbcb8b6deb16fb228f2b3c07e3baecb8eae817f9ab37eea054070d1",
        "B_test.npz": "9b9e6473c99bc4c8b554e1c2d06ec73e0d0fc115a86350e8b1778aa85654baf2",
        "B_train.npz": "f889356dc42cfc0d0e40d69550e71f5df749d413f772e78ba906609f41bdbb88",
        "C_test.npz": "78b12bbb9184b8200ce063740287f4267549ab5c0d51777fe5afb2e8f5c4c73d",
        "C_train.npz": "27b11a7cf2905d8445a7c555905aa25c1d4750b9ed4ec58b4fe3857bdc766e82",
    }

    def test_datasets_bit_identical_to_recorded_digests(self, done):
        _, out = done
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in (out / "datasets").glob("*.npz")} == self.DATASET_DIGESTS

    # sha256 of the tiny lab's matrix and sfd outputs and of one shortcut-aware
    # run.json, recorded with the record classes (GenMatrix, SFDReport,
    # EpochSfcStats) that the plain documents replaced; keyed on the OpenBLAS
    # kernel
    REPORT_DIGESTS = {"SkylakeX": {
        "reports/matrix_shortcut_aware.csv":
            "3a951abad4dc0d1a1573385a9360f14ee39cf4794741e16f15d2683337f73b06",
        "reports/matrix_shortcut_aware.svg":
            "93e326fa408c5f5e2fa2962ef9b9bad14e21035bb2dbac1264a15055d9b397eb",
        "reports/matrix_standard.csv":
            "cfa6ff1b8bbb86b03e1c1f346b4031d301ade203ab70e970ee531d2bd480eb88",
        "reports/matrix_standard.svg":
            "f7b5e03c7c8c600df0d77e037dd0ffff2793a708e6e5274943f3efc0f4717e40",
        "reports/matrix_summary.json":
            "f25a2d2c8e9a4baf60270b054b5fe086840927373dd617105520b1dd41b02eec",
        "reports/matrix_text_only.csv":
            "90412b8fe9cf1f891962da28b66bf19606c00faa99c549a1bdfc05736a061377",
        "reports/matrix_text_only.svg":
            "633778d47653e47edb3d394f23a2c1af0de1f40dfb7bf883bb0b03525ceff2cf",
        "reports/sfd_shortcut_aware.json":
            "7254afe9806abb8d5daf3a2859ec00475b00bcd1bc3d83a96759b54529973fd3",
        "reports/sfd_standard.json":
            "a56b92d4e6265563c540df8c479c89bbda7663997fee46a25089ac187eb123ec",
        "models/shortcut_aware/A/run.json":
            "36b00aec51e3e819e58db29bf2069e4c60f348be923b9b9de6309b7ba55d006f",
    }}
    REPORT_DIGESTS["Haswell"] = dict(REPORT_DIGESTS["SkylakeX"], **{
        "models/shortcut_aware/A/run.json":
            "07bdceded6abebcd1817fef9ba91acd394a90a494db6f44ff9dfc900701cb9ef"})

    def test_reports_bit_identical_to_recorded_digests(self, done):
        _, out = done
        digests = for_this_kernel(self.REPORT_DIGESTS)
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in digests} == digests

    # sha256 of the tiny lab's 15 run.json files, recorded with the training
    # core that stepped each branch on full-width features (a text branch on
    # zeroed vision columns) and made one AdamW update per branch: any drift
    # in a trained net, a loss or sfc trace, an epoch stat or the JSON
    # encoding changes them. Keyed on the OpenBLAS kernel: at hidden 16 the
    # SkylakeX and Haswell kernels sum the forward products in different orders.
    MODEL_DIGESTS = {"SkylakeX": {
        "proxy-shortcut_aware/A/run.json":
            "f261e68c93bc343f736ad9e54dedff60334ca57b4a6f846327ddb79c173556d6",
        "proxy-shortcut_aware/B/run.json":
            "0f19e35968944cac4fc119b1407ce53977a40852ebd60f61c1c433e7b58ae5c6",
        "proxy-shortcut_aware/C/run.json":
            "babd04d8e76d4c9995ce41924979fe3601578efe9c6be5924f43842b7c4298ff",
        "proxy-standard/A/run.json":
            "4c5ac32fa04b09518eb9c1c9742b20d633eae82c27b65b1be773b4307b4f84a4",
        "proxy-standard/B/run.json":
            "9bcaaa2ad1dfd1de1a9b1fde7cd3aef405f17f2fb2afee7f8c2cdce522463401",
        "proxy-standard/C/run.json":
            "4ece8441ddf41374a1d20c3df7fcf39fa3897f3e7df13131a6e9095e74b4baca",
        "shortcut_aware/A/run.json":
            "36b00aec51e3e819e58db29bf2069e4c60f348be923b9b9de6309b7ba55d006f",
        "shortcut_aware/B/run.json":
            "862d718203e708f67efd5ccc6e0c1e2bf0afb932263db488c15791620336fa09",
        "shortcut_aware/C/run.json":
            "7187f40c36b043bbfdded80ddce65a444db54cfe4efe251a115531cca3bc0c94",
        "standard/A/run.json":
            "68dfa18b771bb281c6588bf742bf3efda549d1f9b9ee51a6f3c5deef9cdcd2ea",
        "standard/B/run.json":
            "582251f7807e6f0e7906c8c049a9fe26138408533f6014d49e31348fe79c5913",
        "standard/C/run.json":
            "90290cdd54e3827906467ab6d241c26b0a96c35e3fec47f44b10ea471552de18",
        "text_only/A/run.json":
            "bfec9fe4d800a717fe08dd167eec516e7c0b2f27d36241f0ed1cb4e8e7f2f897",
        "text_only/B/run.json":
            "a21ff4604bf3c45b76771a3cfde39b2a61d9987420afd4bb66e308b9c5214c75",
        "text_only/C/run.json":
            "deb319e1a826a24a4609c91d32f77f0bf6ea7d1dd0058193d850b788e3349a1a",
    }, "Haswell": {
        "proxy-shortcut_aware/A/run.json":
            "95d973540e024689d02cc6c520b770e0c196f9b087e6c03dbaa0c72d76a64ff9",
        "proxy-shortcut_aware/B/run.json":
            "a7b7667ecc7d73093d3e786ae8a61481f7b926ed489ba3792c8f80a67ddab47c",
        "proxy-shortcut_aware/C/run.json":
            "7ecd5267d7b1dfda567e109c3f40ff670093eb3ead4bf7a438cf88773f720a69",
        "proxy-standard/A/run.json":
            "ed4f61cfdc4e8dccd313c2dd723cf617d8aa8da80f86fe056360f77afa00f067",
        "proxy-standard/B/run.json":
            "bd74859370364554f0b0b1fc81f5e5516890abfc70d1225722fbe88edc724c43",
        "proxy-standard/C/run.json":
            "b6094cb992207fc8e17da7153db0391ec3eb8b1a19ec91ff1180db55d2b3b9e2",
        "shortcut_aware/A/run.json":
            "07bdceded6abebcd1817fef9ba91acd394a90a494db6f44ff9dfc900701cb9ef",
        "shortcut_aware/B/run.json":
            "54dd5e8fc66dc5059443a1b33369f5e58bc1978433ed5a775af2aa20b491194f",
        "shortcut_aware/C/run.json":
            "08d509de7d59efd3fddcc8762d2c5a30a1e02a356780ae9665c7bd276b117858",
        "standard/A/run.json":
            "504133eace8b5683cebbc7471c8aa6def03667829a8f2fc147438c6de4b03565",
        "standard/B/run.json":
            "a8b48815f8cb0100c9ecea82ec9761682b164848aca782db55cf41bc948d8f14",
        "standard/C/run.json":
            "f99fd5f0ca460c39d95c35da268f0b1feb1fa9065c6b75367fabea173c7e718f",
        "text_only/A/run.json":
            "35880b4ba6610d7643d2a7ef67613414c32fb6f684e18fd07db9da5d6c1acf9b",
        "text_only/B/run.json":
            "3bee4a21ca0fb69c67bc492647306ac935f1c5a44a35136f9eca703107e5f2a3",
        "text_only/C/run.json":
            "ea5ece351e58c69227c367592a3c6f3dd4468520e4cb37df016b748385911d2b",
    }}

    def test_models_bit_identical_to_recorded_digests(self, done):
        _, out = done
        models = out / "models"
        assert {p.relative_to(models).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in models.rglob("run.json")} == for_this_kernel(self.MODEL_DIGESTS)

    def test_haswell_kernel_matches_its_recorded_bits(self):
        # the digest tests above and train()'s, rerun on OpenBLAS's Haswell
        # kernel: its recorded values are checked even on a host that picks
        # SkylakeX. The stacked-net test runs there too: at hidden 16 the two
        # kernels sum differently, and a stack's rows must still match single
        # nets.
        here = Path(__file__)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(here),
             str(here.with_name("test_net.py")), str(here.with_name("test_training.py")),
             "-k", "digests or two_row_stack"],
            env=dict(src_env(), OPENBLAS_CORETYPE="Haswell"), capture_output=True,
            text=True, timeout=300, cwd=SRC.parent)
        assert proc.returncode == 0, proc.stdout[-3000:]
        assert "13 passed" in proc.stdout.splitlines()[-1], proc.stdout[-3000:]

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
        rel, victim = victim, out / victim
        backup = victim.read_bytes()
        victim.unlink()
        try:
            code = main(["report", "--config", config, "--out", str(out)])
            assert code == 1
            report = json.loads((out / "reports" / "report.json").read_text())
            [message] = [m for m in report["missing_artifacts"] if key in m]
            assert message.endswith(f"missing on disk: {rel!r}")  # the path kept whole
        finally:
            victim.write_bytes(backup)

    def test_long_recorded_path_gives_a_short_error(self, lab_copy):
        # the error names a short repr of the recorded path, not the whole input
        config, out = lab_copy
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["artifacts"]["dataset:A:test"]["path"] = "x" * 1_000_000
        (out / "manifest.json").write_text(json.dumps(manifest))
        proc = run_cli("matrix", config, out)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: artifact 'dataset:A:test' missing on disk: 'xxx")
        assert len(proc.stderr.encode()) < 1024, proc.stderr[:2000]
        assert "Traceback" not in proc.stderr
        assert run_cli("report", config, out).returncode == 1
        report = json.loads((out / "reports" / "report.json").read_text())
        [message] = [m for m in report["missing_artifacts"] if m.startswith("dataset:A:test: ")]
        assert len(message.encode()) < 1024

    @pytest.mark.parametrize("damage, message", [
        (lambda text: text[:len(text) // 2], "(JSONDecodeError)"),
        (run_doc_damage(lambda doc: doc.pop("primary")), "(KeyError)"),
        (run_doc_damage(lambda doc: doc["primary"]["dims"].update(extra=1)), "(TypeError)"),
        (lambda text: '{"config": %s}' % ("[" * 100_000 + "]" * 100_000), "(RecursionError)"),
        (run_doc_damage(lambda doc: doc["primary"]["w1"].pop()), "theta: expected shape"),
    ], ids=["truncated", "no-primary", "extra-dims-key", "nested-too-deep", "short-w1"])
    def test_malformed_run_json_exits_2_without_traceback(self, lab_copy, damage, message):
        # a run.json whose recorded sha256 matches is loaded, not retrained
        config, out = lab_copy
        path = out / "models" / "standard" / "A" / "run.json"
        path.write_text(damage(path.read_text()))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["artifacts"]["model:standard:A"]["sha256"] = file_sha(path)
        (out / "manifest.json").write_text(json.dumps(manifest))
        proc = run_cli("matrix", config, out)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.encode()) < 1024, proc.stderr[:2000]

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
        for verb in ("gen", "train"):
            assert run(verb, config, out) == 0
        timings = json.loads((out / "manifest.json").read_text())["timings"]
        assert run("bon", config, out) == 0  # every net is already trained
        after = json.loads((out / "manifest.json").read_text())["timings"]
        assert after["train"] == timings["train"]
        assert "evaluate" in after

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

    def test_train_hashes_each_stale_train_split_once(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("gen", config, out) == 0
        hashed, sha256 = [], cli._file_sha256
        monkeypatch.setattr(cli, "_file_sha256",
                            lambda path: hashed.append(os.path.basename(path)) or sha256(path))

        def train_split_hashes():
            counts = {n: hashed.count(n) for n in hashed if n.endswith("_train.npz")}
            hashed.clear()
            return counts

        assert run("train", config, out) == 0  # cold: 5 jobs per split
        assert train_split_hashes() == {f"{e}_train.npz": 1 for e in ("A", "B", "C")}
        assert run("train", config, out) == 0  # warm: no job is stale
        assert train_split_hashes() == {}

    def test_n_grid_beyond_pool_size_rejected_before_training(self, tmp_path):
        config = write_config(tmp_path, n_grid=[1, 16], pool_size=8)
        out = tmp_path / "out"
        assert run("gen", config, out) == 2
        assert not (out / "models").exists()

    def test_report_requires_sfd_and_bon_outputs(self, tmp_path):
        # and the matrix summary: train writes none of the three
        config = write_config(tmp_path)
        out = tmp_path / "out"
        for verb in ("gen", "train"):
            assert run(verb, config, out) == 0
        assert run("report", config, out) == 1
        report = json.loads((out / "reports" / "report.json").read_text())
        assert [m.split(": ")[0] for m in report["missing_artifacts"]] == [
            "report:bon-summary", "report:matrix-summary", "report:sfd:shortcut_aware",
            "report:sfd:standard"]
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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DyingPool)
        ws = cli.Workspace(ExperimentConfig.from_file(config), str(out), jobs=2)
        wanted = [(cli._run_key("standard", e), ws.config.train_config("standard", e), e)
                  for e in ("A", "B")]
        with pytest.raises(LabError, match="worker died"):
            cli._ensure_runs(ws, wanted)
        recorded = json.loads((out / "manifest.json").read_text())["artifacts"]
        assert "model:standard:A" in recorded and "model:standard:B" not in recorded
        assert cli._ensure_runs(cli.Workspace(ws.config, str(out)), wanted) == 1

    def test_serial_run_loads_no_pool_modules(self, tmp_path):
        config = write_config(tmp_path, train={"epochs": 1, "batch_size": 64, "hidden": 16})
        out = tmp_path / "out"
        probe = ("import sys\nimport rmlab.cli\n"
                 "for verb in ('gen', 'matrix'):\n"
                 "    assert rmlab.cli.main([verb, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
                 "print(sorted(m for m in sys.modules if m.split('.')[0] in "
                 "('concurrent', 'multiprocessing')))\n")
        proc = subprocess.run([sys.executable, "-c", probe, config, str(out)],
                              env=src_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        assert json.loads((out / "reports" / "matrix_summary.json").read_text())

    def test_pool_workers_inherit_the_training_stack(self, tmp_path):
        # numpy loads only in verbs that compute, so the pool must be made
        # after the training modules have run: forked workers then inherit
        # them instead of each importing numpy. A module registered but not
        # yet run (cli registers them lazily) is not a plain module.
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("gen", config, out).returncode == 0
        probe = ("import sys, types, concurrent.futures\nimport rmlab.cli\nseen = []\n"
                 "class RecordingPool:\n"
                 "    def __init__(self, max_workers):\n"
                 "        seen.append([type(sys.modules.get(m)) is types.ModuleType\n"
                 "                     for m in ('rmlab.training', 'rmlab.envs', 'numpy')])\n"
                 "    def __enter__(self):\n        return self\n"
                 "    def __exit__(self, *exc):\n        return False\n"
                 "    def map(self, fn, jobs):\n        return [fn(job) for job in jobs]\n"
                 "concurrent.futures.ProcessPoolExecutor = RecordingPool\n"
                 "assert rmlab.cli.main(['train', '--config', sys.argv[1], '--out', sys.argv[2],"
                 " '--jobs', '2']) == 0\n"
                 "print(seen)\n")
        proc = subprocess.run([sys.executable, "-c", probe, config, str(out)],
                              env=src_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[[True, True, True]]"

    def test_jobs_flag_matches_serial_results(self, done, tmp_path_factory):
        config, serial_out = done
        tmp = tmp_path_factory.mktemp("jobs")
        out = tmp / "out"
        for verb in ("gen", "matrix"):
            assert main([verb, "--config", config, "--out", str(out),
                         "--jobs", "2"]) == 0
        # every net and every evaluation output the parallel lab wrote
        for sub in ("models", "reports"):
            files = sorted(p.relative_to(out) for p in (out / sub).rglob("*") if p.is_file())
            assert files and {f: (out / f).read_bytes() for f in files} == {
                f: (serial_out / f).read_bytes() for f in files}
        models = sorted((out / "models").rglob("run.json"))
        assert len(models) == 15
        assert models == [out / p.relative_to(serial_out)
                          for p in sorted((serial_out / "models").rglob("run.json"))]


def tree(out) -> dict:
    """Bytes, mtime_ns and inode of every file under ``out``."""
    return {p.relative_to(out).as_posix():
            (p.read_bytes(), p.stat().st_mtime_ns, p.stat().st_ino)
            for p in sorted(Path(out).rglob("*")) if p.is_file()}


def file_sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture()
def lab_copy(done, tmp_path):
    """A private copy of the built tiny lab, for tests that damage it."""
    config, out = done
    shutil.copytree(out, tmp_path / "out")
    return config, tmp_path / "out"


RUN_JSONS = sorted(f"models/{m}/{e}/run.json" for e in ("A", "B", "C")
                   for m in ("standard", "text_only", "shortcut_aware",
                             "proxy-standard", "proxy-shortcut_aware"))


class TestReuse:
    def test_rerun_reuses_outputs_and_writes_nothing(self, done, capsys):
        config, out = done
        before = tree(out)
        capsys.readouterr()
        for verb in ("gen", "train", "matrix", "sfd", "bon"):
            assert run(verb, config, out) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{verb}: skip (outputs up to date)" for verb in ("gen", "matrix", "sfd", "bon")]
        assert tree(out) == before  # manifest.json included

    def test_warm_verbs_hash_each_file_once(self, done, monkeypatch):
        config, out = done
        hashed, sha256 = [], cli._file_sha256
        monkeypatch.setattr(cli, "_file_sha256", lambda path: hashed.append(
            Path(path).relative_to(out).as_posix()) or sha256(path))
        for verb in ("matrix", "sfd", "bon"):
            assert run(verb, config, out) == 0
            assert sorted(p for p in hashed if p.endswith("run.json")) == RUN_JSONS, verb
            assert len(hashed) == len(set(hashed)), verb
            hashed.clear()

    def test_evaluation_stacks_each_test_split_once(self, lab_copy, monkeypatch):
        # matrix scores every net on a split from one stack of it; the sfd
        # cells count those outcomes, so the skipping sfd stacks nothing
        config, out = lab_copy
        stacked, stack_pairs = [], cli.evaluation._stack_pairs
        monkeypatch.setattr(cli.evaluation, "_stack_pairs", lambda dataset, text_rows: (
            stacked.append(dataset.env_id) or stack_pairs(dataset, text_rows)))
        (out / "reports" / "matrix_standard.csv").unlink()
        assert main(["matrix", "--config", config, "--out", str(out), "--jobs", "1"]) == 0
        assert sorted(stacked) == ["A", "B", "C"]
        stacked.clear()
        assert run("sfd", config, out) == 0
        assert stacked == []

    def test_deleted_output_is_rebuilt(self, lab_copy, capsys):
        config, out = lab_copy
        manifest = json.loads((out / "manifest.json").read_text())
        outputs = manifest["builds"]["evaluate"]["outputs"]
        assert "reports/bon_B.svg" in outputs.values()
        recorded = {rel: manifest["artifacts"][key]["sha256"] for key, rel in outputs.items()}
        (out / "reports" / "bon_B.svg").unlink()
        capsys.readouterr()
        assert run("bon", config, out) == 0
        assert "bon: ood best-of-16" in capsys.readouterr().out
        assert {rel: file_sha(out / rel) for rel in recorded} == recorded
        assert run("bon", config, out) == 0
        assert capsys.readouterr().out == "bon: skip (outputs up to date)\n"

    def test_rewritten_input_makes_its_readers_recompute(self, lab_copy, capsys):
        config, out = lab_copy
        reports = {k: v[0] for k, v in tree(out / "reports").items()}
        path = out / "models" / "standard" / "A" / "run.json"
        path.write_text(json.dumps(json.loads(path.read_text()), indent=1))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["artifacts"]["model:standard:A"]["sha256"] = sha = file_sha(path)
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run("sfd", config, out) == 0
        printed = capsys.readouterr().out
        assert "skip" not in printed and "train: finished" not in printed
        assert "matrix[standard]" in printed and "sfd[standard]" in printed
        assert "bon: ood best-of-16" in printed
        assert {k: v[0] for k, v in tree(out / "reports").items()} == reports
        builds = json.loads((out / "manifest.json").read_text())["builds"]
        assert builds["evaluate"]["inputs"]["model:standard:A"] == sha
        for verb in ("matrix", "bon"):
            assert run(verb, config, out) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{verb}: skip (outputs up to date)" for verb in ("matrix", "bon")]

    @pytest.mark.parametrize("damage", [
        lambda m, verb: m.update(builds="x"),
        lambda m, verb: m["builds"].update({verb: []}),
        lambda m, verb: m["builds"][verb].pop("inputs"),
        lambda m, verb: m["builds"][verb].update(outputs={}),
        lambda m, verb: m["builds"][verb]["outputs"].update({"family": 7}),
        lambda m, verb: m["builds"][verb]["outputs"].update({"report:gone": "reports/gone.csv"}),
    ], ids=["builds-not-object", "record-not-object", "no-inputs", "no-outputs",
            "path-not-string", "unknown-output"])
    def test_malformed_build_record_means_rebuild(self, lab_copy, damage, capsys):
        config, out = lab_copy
        for build, verb, rebuilt in (("evaluate", "matrix", "matrix[standard]"),
                                     ("gen", "gen", "gen: wrote datasets/A_train.npz")):
            manifest = json.loads((out / "manifest.json").read_text())
            damage(manifest, build)
            (out / "manifest.json").write_text(json.dumps(manifest))
            proc = run_cli(verb, config, out)
            assert proc.returncode == 0, proc.stderr
            assert "Traceback" not in proc.stderr
            assert rebuilt in proc.stdout
            capsys.readouterr()
            assert run(verb, config, out) == 0
            assert capsys.readouterr().out == f"{verb}: skip (outputs up to date)\n"

    def test_lab_without_a_gen_record_regenerates_the_same_bytes(self, lab_copy, capsys):
        # a lab built before gen kept a build record
        config, out = lab_copy
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["builds"]["gen"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        datasets = tree(out / "datasets")
        capsys.readouterr()
        assert run("gen", config, out) == 0
        assert capsys.readouterr().out.count("gen: wrote") == 6
        assert {k: v[0] for k, v in tree(out / "datasets").items()} == \
            {k: v[0] for k, v in datasets.items()}
        assert run("matrix", config, out) == 0  # the nets and the test splits are current
        assert capsys.readouterr().out == "matrix: skip (outputs up to date)\n"
        assert run("gen", config, out) == 0
        assert capsys.readouterr().out == "gen: skip (outputs up to date)\n"

    @pytest.mark.parametrize("first", ["matrix", "sfd", "bon"])
    def test_any_model_verb_builds_every_model_output(self, tmp_path, capsys, first):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("gen", config, out) == 0
        assert run(first, config, out) == 0
        digests = {**for_this_kernel(TestPipeline.REPORT_DIGESTS),
                   **{f"reports/{name}": sha for name, sha in
                      for_this_kernel(TestPipeline.BON_DIGESTS).items()}}
        assert {name: file_sha(out / name) for name in digests} == digests
        assert all((out / "reports" / f"bon_{e}.svg").exists() for e in ("A", "B", "C"))
        built = tree(out)
        # the other two, in one process: each prints its skip line alone,
        # writes nothing and never loads numpy
        others = [verb for verb in ("matrix", "sfd", "bon") if verb != first]
        probe = ("import json, sys\nimport rmlab.cli\n"
                 "for verb in sys.argv[3:]:\n"
                 "    code = rmlab.cli.main([verb, '--config', sys.argv[1], '--out', sys.argv[2]])\n"
                 "    print(json.dumps([verb, code, 'numpy' in sys.modules]))\n")
        proc = subprocess.run([sys.executable, "-c", probe, config, str(out), *others],
                              env=src_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            line for verb in others
            for line in (f"{verb}: skip (outputs up to date)", json.dumps([verb, 0, False]))]
        assert tree(out) == built  # manifest.json included

    def test_per_verb_build_records_are_replaced_by_one(self, lab_copy, capsys):
        # a lab built when matrix, sfd and bon each kept a build record
        config, out = lab_copy
        manifest = json.loads((out / "manifest.json").read_text())
        shared = manifest["builds"].pop("evaluate")
        manifest["builds"].update({verb: shared for verb in ("matrix", "sfd", "bon")})
        (out / "manifest.json").write_text(json.dumps(manifest))
        reports = {k: v[0] for k, v in tree(out / "reports").items()}
        capsys.readouterr()
        assert run("bon", config, out) == 0
        assert "matrix[standard]" in capsys.readouterr().out
        assert {k: v[0] for k, v in tree(out / "reports").items()} == reports
        assert sorted(json.loads((out / "manifest.json").read_text())["builds"]) == [
            "evaluate", "gen"]
        for verb in ("matrix", "sfd"):
            assert run(verb, config, out) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{verb}: skip (outputs up to date)" for verb in ("matrix", "sfd")]

    def test_verbs_without_array_work_load_no_numpy(self, lab_copy):
        # nor dataclasses or csv, and the svg module stays registered, unrun
        config, out = lab_copy
        probe = ("import json, sys\nimport rmlab.cli\nseen = []\n"
                 "def loaded():\n"
                 "    return [m for m in ('numpy', 'dataclasses', 'csv') if m in sys.modules] + (\n"
                 "        [] if type(sys.modules['rmlab.svg']).__name__ == '_LazyModule'\n"
                 "        else ['rmlab.svg'])\n"
                 "try:\n    rmlab.cli.main(['--help'])\nexcept SystemExit as exc:\n"
                 "    seen.append(['--help', exc.code, loaded()])\n"
                 "for verb in ('gen', 'train', 'matrix', 'sfd', 'bon', 'report'):\n"
                 "    code = rmlab.cli.main([verb, '--config', sys.argv[1], '--out', sys.argv[2]])\n"
                 "    seen.append([verb, code, loaded()])\n"
                 "print(json.dumps(seen))\n")
        proc = subprocess.run([sys.executable, "-c", probe, config, str(out)],
                              env=src_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert [[verb, loaded] for verb, _, loaded in seen if loaded] == []
        assert [code for verb, code, _ in seen if verb != "report"] == [0] * 6


def piped_env() -> dict:
    """``src_env`` with stdout block-buffered on a pipe, so a line that the
    process does not flush before it exits is lost."""
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def piped_cli(*args):
    return subprocess.run([sys.executable, "-m", "rmlab.cli", *args], env=piped_env(),
                          capture_output=True, text=True, timeout=120)


class TestFastExit:
    """The command ends in ``os._exit`` after flushing: every printed line
    arrives, the exit codes hold, and the lock and manifest are left whole."""

    @staticmethod
    def assert_lab_whole(out):
        assert not (out / ".lock").exists()
        json.loads((out / "manifest.json").read_text())

    def test_gen_prints_every_line(self, tmp_path):
        out = tmp_path / "out"
        proc = piped_cli("gen", "--config", write_config(tmp_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"gen: wrote datasets/{e}_{split}.npz ({n} samples)"
            for e in ("A", "B", "C") for split, n in (("train", 360), ("test", 120))]
        self.assert_lab_whole(out)

    def test_failing_report_prints_whole_summary(self, lab_copy):
        config, out = lab_copy
        (out / "models" / "standard" / "A" / "run.json").unlink()
        proc = piped_cli("report", "--config", config, "--out", str(out))
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == (out / "reports" / "summary.txt").read_text()
        assert proc.stdout.count("\n[PASS] ") + proc.stdout.count("\n[FAIL] ") == 13
        assert proc.stdout.endswith("\nRESULT: FAIL\n")
        self.assert_lab_whole(out)

    @pytest.mark.parametrize("args, code, stderr", [
        (["gen", "--jobs", "0"], 2, "error: --jobs must be an integer >= 1\n"),
        (["bogus"], 2, "error: argument verb: invalid choice: 'bogus'"),
        (["--help"], 0, ""),
    ], ids=["jobs-0", "unknown-verb", "help"])
    def test_usage_exits(self, lab_copy, args, code, stderr):
        config, out = lab_copy
        proc = piped_cli(*args, "--config", config, "--out", str(out))
        assert proc.returncode == code
        assert stderr in proc.stderr and "Traceback" not in proc.stderr
        if code == 0:
            assert proc.stderr == ""
            assert proc.stdout.endswith(f"  report  {cli.VERBS['report']}\n")
        self.assert_lab_whole(out)

    def test_reader_that_leaves_early_keeps_the_exit_code(self, lab_copy):
        config, out = lab_copy
        with subprocess.Popen([sys.executable, "-m", "rmlab.cli", "gen", "--config", config,
                               "--out", str(out)], env=piped_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            proc.stdout.close()  # long before the verb prints its line
            _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert stderr == b""
        self.assert_lab_whole(out)


def default_checks(degenerate=()):
    """``_default_family_checks`` of synthetic inputs at the default ``n_grid``;
    each (mode, train_env, test_env) in ``degenerate`` has a None sfd."""
    envs_ = ["A", "B", "C"]
    summary = {m: {"mean_iid": 0.9, "mean_ood": 0.5, "gap": 0.4,
                   "matrix": {"acc": [[0.5] * 3 for _ in envs_]}}
               for m in ("text_only", "standard", "shortcut_aware")}
    sfd_docs = {m: [{"train_env": a, "test_env": b,
                     "sfd": None if (m, a, b) in degenerate else sfd}
                    for a in envs_ for b in envs_ if a != b]
                for m, sfd in (("standard", 0.3), ("shortcut_aware", 0.1))}
    bon = {"n_max": max(cli.DEFAULT_N_GRID),
           "ood_best_at_n_max": {"standard": 0.5, "shortcut_aware": 0.6}}
    return cli._default_family_checks(summary, sfd_docs, bon)


class TestReportChecks:
    def test_degenerate_standard_b_to_c_fails_its_check(self):
        checks = default_checks(degenerate={("standard", "B", "C")})
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
