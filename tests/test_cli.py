import concurrent.futures
import fcntl
import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import zipfile
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from blas_core import openblas_core
from rmlab import cli, training
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
HIDDEN = TINY["train"]["hidden"]


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
        # out of order or repeated: a grid is strictly increasing, so no N
        # gets two rows in bon_curves.csv
        {"n_grid": [4, 1, 4]},
        {"n_grid": [1, 2, 2]},
        {"n_grid": [2, 1]},
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
        assert "datasets/A_train.npz" in manifest["files"]

    def test_rerun_is_skipped_and_fingerprint_stable(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        run("gen", config, out)
        m1 = json.loads((out / "manifest.json").read_text())["files"]
        run("gen", config, out)
        captured = capsys.readouterr().out
        assert "skip" in captured
        m2 = json.loads((out / "manifest.json").read_text())["files"]
        assert m1 == m2

    def test_unreadable_dataset_exits_2_without_traceback(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("gen", config, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        bad = out / "datasets" / "A_train.npz"
        bad.write_bytes(b"not an archive")
        manifest["files"]["datasets/A_train.npz"] = hashlib.sha256(bad.read_bytes()).hexdigest()
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
        lambda m: m.update(files=list(m["files"])),  # the files entry is not an object
        lambda m: m["files"].update({"family.json": None}),  # a path without a sha256 string
        lambda m: m.pop("timings"),
        # a name the lab never writes, whole in every later error if accepted
        lambda m: m["files"].update({"k" * 1_000_000: m["files"]["family.json"]}),
        # names of files outside the lab: each verb would hash the file, and
        # on /dev/zero never finish
        lambda m: m["files"].update({"/dev/zero": m["files"]["family.json"]}),
        lambda m: m["files"].update({"../x": m["files"]["family.json"]}),
        lambda m: m["files"].update({"datasets/../family.json": m["files"]["family.json"]}),
    ], ids=["entry-not-object", "path-not-string", "no-timings", "oversized-key",
            "absolute-name", "parent-name", "unnormal-name"])
    def test_malformed_manifest_exits_2_without_traceback(self, tmp_path, damage):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("gen", config, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        damage(manifest)
        (out / "manifest.json").write_text(json.dumps(manifest))
        for verb in ("gen", "report"):
            proc = run_cli(verb, config, out)
            assert proc.returncode == 2, verb
            assert "corrupt manifest" in proc.stderr
            assert "Traceback" not in proc.stderr
            assert len(proc.stderr) < 1024

    @pytest.mark.parametrize("verb, overrides, flags", [
        ("gen", {"n_train": 10**12}, ()),
        ("bon", {"pool_size": 10**13}, ()),
        ("train", {"train": {**TINY["train"], "hidden": 10**14}}, ("--jobs", "2")),
        # the optimizer's lr table, one entry per step
        ("train", {"train": {**TINY["train"], "epochs": 10**14}}, ()),
    ], ids=["gen", "bon", "train-jobs2", "train-epochs"])
    def test_allocation_failure_exits_2_without_traceback(self, tmp_path, verb, overrides,
                                                          flags):
        # every size is past the 128 TiB address space, so the allocation
        # fails at once whatever the kernel's overcommit setting; with
        # --jobs 2 the pool re-raises the worker's error in the parent. The
        # verb's address space is capped at 1 GiB and its time at 5 s, so a
        # verb that grows toward such a size piece by piece fails here
        # without taking the machine's memory
        config = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        if verb != "gen":
            assert run("gen", config, out) == 0

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        proc = subprocess.run([sys.executable, "-m", "rmlab.cli", verb, "--config", config,
                               "--out", str(out), *flags], capture_output=True, text=True,
                              env=dict(src_env(), OPENBLAS_NUM_THREADS="1"),
                              preexec_fn=cap, timeout=5)
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

    # sha256 of the tiny lab's six dataset files, recorded when the archives
    # dropped their env_id and split members; every column keeps the bytes
    # of the per-row generator that the array-at-a-time one replaced
    DATASET_DIGESTS = {
        "A_test.npz": "1564b77ffaf28b538255308ff05b1e091300aa773a8d2b806e8072ddc0e64764",
        "A_train.npz": "b0ec2de0dc53dce348965a82b9b90eca8c6be942f130f35697fe30dff05b258a",
        "B_test.npz": "462b063eeecce0057e6d27f3a99e3dfbedd7b49ea7aee0fd7daab933ddbe0b4f",
        "B_train.npz": "3ebcd74d1377f14b0879a1b910ed1b2184c424bebf9d49f8477588e5c101d02b",
        "C_test.npz": "4a6852f30d01d481866c0b003f1a01db1f45a91deeb5464124fcaba8b5c86e8b",
        "C_train.npz": "294b02fa1f1df3cd60e4323fd5b7e4668f6a95349432f0f3d07a48527dd79e28",
    }

    def test_datasets_bit_identical_to_recorded_digests(self, done):
        _, out = done
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in (out / "datasets").glob("*.npz")} == self.DATASET_DIGESTS
        manifest = json.loads((out / "manifest.json").read_text())
        assert {k: sha for k, sha in manifest["files"].items() if k.startswith("datasets/")} \
            == {f"datasets/{name}": sha for name, sha in self.DATASET_DIGESTS.items()}

    def test_family_json_keeps_its_recorded_sha256(self, done):
        # family.json is the one record of every spec: spec_to_dict keeps the
        # fixed values of removed settings, so its bytes do not move
        _, out = done
        assert file_sha(out / "family.json") == \
            "bfe39ee6eec928743b25f37a74e89c306cbe4201441a92701a9fd2e531f2d4e7"

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
            "20053507d8257070c929e7a1ba778e89c6a33b5c3765c125fbd046d5ac782141",
    }}
    REPORT_DIGESTS["Haswell"] = dict(REPORT_DIGESTS["SkylakeX"], **{
        "models/shortcut_aware/A/run.json":
            "b8141557b53c45e15e622492e47ea290f8bde57aa7681c70936e2c10932b2579"})

    def test_reports_bit_identical_to_recorded_digests(self, done):
        _, out = done
        digests = for_this_kernel(self.REPORT_DIGESTS)
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in digests} == digests

    # sha256 of the tiny lab's 15 run.json files, recorded when run.json
    # dropped dataset_fingerprint and each net's dims and seed; every other
    # byte is that of the training core that stepped each branch on
    # full-width features (a text branch on zeroed vision columns) and made
    # one AdamW update per branch: any drift in a trained net, a loss or sfc
    # trace, an epoch stat or the JSON encoding changes them. Keyed on the
    # OpenBLAS kernel: at hidden 16 the SkylakeX and Haswell kernels sum the
    # forward products in different orders.
    MODEL_DIGESTS = {"SkylakeX": {
        "proxy-shortcut_aware/A/run.json":
            "12ea000876a1b2eaae3862781c04d4b73e0a44cdf2059403e5faeca04f5038b7",
        "proxy-shortcut_aware/B/run.json":
            "c5e648c8f84423fa42da02d59ff163828e8e3caa0ebeb3956333ce2886eb0a94",
        "proxy-shortcut_aware/C/run.json":
            "9d461603a4f199aec6664974a4379b38e154d12e5818196afd38f4730a25ef0f",
        "proxy-standard/A/run.json":
            "2a25bc17d7123c57f0b990c529ad9eb0c34f440d74978690ae4faf51a606ae13",
        "proxy-standard/B/run.json":
            "4e88ade9afd6c29d06b924d5cb9a6ffd2f34821c0b9fecfc37fd5fa766f34246",
        "proxy-standard/C/run.json":
            "e3ecfb8f84b6bfa3bbf351915a66ef3a4d7c7ec0638dfb314fbf8444d7bcc23a",
        "shortcut_aware/A/run.json":
            "20053507d8257070c929e7a1ba778e89c6a33b5c3765c125fbd046d5ac782141",
        "shortcut_aware/B/run.json":
            "151bf4fe3ba69c1022ce92eea9d4495e075735482c5095b78a60ca269acb086a",
        "shortcut_aware/C/run.json":
            "345abf06877c1810987b2546d2820799347d73c4c8b908661b004da45eb14121",
        "standard/A/run.json":
            "835a5997aabea9d6220e8fc1b654e35a11e6a97478330d44586461979a290fcc",
        "standard/B/run.json":
            "ed1aff78f0df898743cc3c0b784aad2e562cc272ddfa286f5b3534681a2c4f1a",
        "standard/C/run.json":
            "886b77b91acb5e601506fb7e74c2ec03480db3eeb0a986c1391be8a99c584c60",
        "text_only/A/run.json":
            "525af20b7b34123279e27e4bef770ef5fd893b4d22a7312704fae78b28663a2b",
        "text_only/B/run.json":
            "300d217c941ae76b9077d6fa4fb19ed58786a5e08c6bbfa980461e86243a34d0",
        "text_only/C/run.json":
            "4547e0afc0dd8402dc4dcc0af929819df38c3feb5d3c7d9c5fe2b58695a29291",
    }, "Haswell": {
        "proxy-shortcut_aware/A/run.json":
            "135968fe9f2f9f485984bf05206acf84accf5b46e6dd8ff8f8421f02badd6972",
        "proxy-shortcut_aware/B/run.json":
            "d9fd8fcf586196ccddb669e502585ee78e690d37b39ea0f87048f4bae8f7dbc5",
        "proxy-shortcut_aware/C/run.json":
            "5de08606c666ce872303bc0138a6ccfbf9f84e90d88f56f082434ed7e673e3d8",
        "proxy-standard/A/run.json":
            "06677977637cf16c8ed01da1d79f043e75cbf57bc468775d538cd5079fa255eb",
        "proxy-standard/B/run.json":
            "6001961b28ff51f60e1be7fb4c8b59c6ecc05ee09daa014ad93baebf18307a55",
        "proxy-standard/C/run.json":
            "040dab95c02898ce0bc50c8ed9c7ed3763f1cec05f9465fc81b6d2d6ad980d9b",
        "shortcut_aware/A/run.json":
            "b8141557b53c45e15e622492e47ea290f8bde57aa7681c70936e2c10932b2579",
        "shortcut_aware/B/run.json":
            "b593867c8c55ac2a76feabd997464a0a9b6d268989185735a62b15f1cb4df958",
        "shortcut_aware/C/run.json":
            "81a2a867f48c7af0d319809c4938634121253e2c8a7d8584a0a44b88a1f9fb98",
        "standard/A/run.json":
            "5cbea382de70a263f5697f36f126878837dcd865bab1897407c438694de7c0a3",
        "standard/B/run.json":
            "437b203a64f48d1a239b980facd193f052ed660d56d6975670f79b77fa6b91b0",
        "standard/C/run.json":
            "6eecc96aeaf075f1c6bfa3789a979934a1ae055c7049c4007216447d7459389f",
        "text_only/A/run.json":
            "46c9ea18bf0e414baadda9122698c08918776f67e46c41ca280b5f63279447f8",
        "text_only/B/run.json":
            "c57f5da7505a01d0f7dbd83b8ef44911993dc59670934ff2ae0792052641c3b6",
        "text_only/C/run.json":
            "411df605ca544c41e03355c9003a94728df581cb122d6219d1af4752f331072c",
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

    @pytest.mark.parametrize("victim", [
        "models/standard/A/run.json", "reports/matrix_summary.json",
    ], ids=["run", "matrix-summary"])
    def test_report_flags_deleted_artifact(self, done, victim):
        config, out = done
        rel, victim = victim, out / victim
        backup = victim.read_bytes()
        victim.unlink()
        try:
            code = main(["report", "--config", config, "--out", str(out)])
            assert code == 1
            report = json.loads((out / "reports" / "report.json").read_text())
            [message] = [m for m in report["missing_artifacts"] if m.startswith(f"{rel}: ")]
            assert message == f"{rel}: artifact {rel!r} missing on disk"  # the path kept whole
        finally:
            victim.write_bytes(backup)

    def test_long_recorded_path_gives_a_short_error(self, lab_copy):
        # a recorded name is at most 200 characters (a longer one makes the
        # manifest corrupt), so every error that names one stays short
        config, out = lab_copy
        manifest = json.loads((out / "manifest.json").read_text())
        longest = "datasets/" + "x" * 191
        manifest["files"][longest] = manifest["files"]["datasets/A_test.npz"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        (out / "datasets" / "A_test.npz").unlink()
        proc = run_cli("matrix", config, out)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: artifact 'datasets/A_test.npz' missing on disk")
        assert len(proc.stderr.encode()) < 1024, proc.stderr[:2000]
        assert "Traceback" not in proc.stderr
        assert run_cli("report", config, out).returncode == 1
        report = json.loads((out / "reports" / "report.json").read_text())
        [message] = [m for m in report["missing_artifacts"] if m.startswith(f"{longest}: ")]
        assert len(message.encode()) < 1024

    @pytest.mark.parametrize("damage, message", [
        (lambda text: text[:len(text) // 2], "(JSONDecodeError)"),
        (run_doc_damage(lambda doc: doc.pop("primary")), "(KeyError)"),
        (lambda text: '{"config": %s}' % ("[" * 100_000 + "]" * 100_000), "(RecursionError)"),
        (run_doc_damage(lambda doc: doc["primary"]["w1"].pop()), "(ValueError)"),
        (run_doc_damage(lambda doc: doc["primary"].update(w1=[], b1=[], w2=[])),
         "(ValueError)"),
        # as many parameters in all, w1 short and b1 long by hidden entries
        (run_doc_damage(lambda doc: doc["primary"].update(
            w1=doc["primary"]["w1"][HIDDEN:],
            b1=doc["primary"]["w1"][:HIDDEN] + doc["primary"]["b1"])),
         "(ValueError)"),
        (run_doc_damage(lambda doc: doc["config"].update(hidden=0)), "(ConfigError)"),
    ], ids=["truncated", "no-primary", "nested-too-deep", "short-w1", "empty-blocks",
            "shifted-blocks", "config-hidden-0"])
    def test_malformed_run_json_exits_2_without_traceback(self, lab_copy, damage, message):
        # a run.json whose recorded sha256 matches is loaded, not retrained,
        # and every net in it must fit the dims its config gives
        config, out = lab_copy
        path = out / "models" / "standard" / "A" / "run.json"
        path.write_text(damage(path.read_text()))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["files"]["models/standard/A/run.json"] = file_sha(path)
        (out / "manifest.json").write_text(json.dumps(manifest))
        proc = run_cli("matrix", config, out)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "models/standard/A/run.json" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.encode()) < 1024, proc.stderr[:2000]

    @pytest.mark.parametrize("damage, message", [
        (lambda text: text[:len(text) // 2], "(JSONDecodeError)"),
        (lambda text: "{}", "(KeyError)"),
        (lambda text: "[]", "(TypeError)"),
        (lambda text: "[" * 100_000 + "]" * 100_000, "(RecursionError)"),
    ], ids=["truncated", "empty-object", "list", "nested-too-deep"])
    def test_malformed_report_input_exits_2_without_traceback(self, lab_copy, damage, message):
        # a report input whose recorded sha256 matches is loaded, and the
        # checks read it whole
        config, out = lab_copy
        path = out / "reports" / "matrix_summary.json"
        path.write_text(damage(path.read_text()))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["files"]["reports/matrix_summary.json"] = file_sha(path)
        (out / "manifest.json").write_text(json.dumps(manifest))
        proc = run_cli("report", config, out)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "reports/matrix_summary.json" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.encode()) < 1024, proc.stderr[:2000]

    @pytest.mark.parametrize("keys, message", [
        # numpy's error quotes every key, so the message names only its type
        (", ".join(f"'k{i}': 0" for i in range(800)), "(ValueError)"),
        ("0: 0", "(TypeError)"),  # numpy sorts the keys, and 0 < 'descr' fails
    ], ids=["800-extra-keys", "int-key"])
    def test_malformed_dataset_header_exits_2_with_a_short_message(self, lab_copy, keys,
                                                                   message):
        # a test split whose recorded sha256 matches is read, with a y.npy
        # header that numpy rejects
        config, out = lab_copy
        path = out / "datasets" / "A_test.npz"
        header = f"{{'descr': '<i8', 'fortran_order': False, 'shape': (120,), {keys}}}".encode()
        header += b" " * (64 - (11 + len(header)) % 64) + b"\n"
        with zipfile.ZipFile(path) as zf:
            members = {name: zf.read(name) for name in zf.namelist()}
        members["y.npy"] = b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header
        with zipfile.ZipFile(path, "w") as zf:
            for name, data in members.items():
                zf.writestr(name, data)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["files"]["datasets/A_test.npz"] = file_sha(path)
        (out / "manifest.json").write_text(json.dumps(manifest))
        proc = run_cli("matrix", config, out)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "datasets/A_test.npz" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.encode()) < 1024, proc.stderr[:2000]

    def test_run_json_with_old_identity_keys_loads_the_same_run(self, lab_copy):
        # run.json files written before dims and seed came from the config
        # also carry dataset_fingerprint and each net's dims and seed; they
        # are ignored, and the nets load to the same thetas
        config, out = lab_copy
        path = out / "models" / "shortcut_aware" / "A" / "run.json"
        want = training.TrainRun.load(path)
        doc = json.loads(path.read_text())
        doc["dataset_fingerprint"] = "c2" * 32
        for net in ("primary", "aux"):
            doc[net].update(dims={"d_v": 16, "d_q": 8, "d_a": 16, "hidden": HIDDEN}, seed=7)
        path.write_text(json.dumps(doc))
        got = training.TrainRun.load(path)
        assert got.config == want.config and got.loss_trace == want.loss_trace
        for net in ("primary", "aux"):
            assert getattr(got, net).theta.tobytes() == getattr(want, net).theta.tobytes()

    def test_every_file_is_a_hashed_manifest_entry(self, done):
        config, out = done
        main(["report", "--config", config, "--out", str(out)])
        recorded = json.loads((out / "manifest.json").read_text())["files"]
        files = sorted(os.path.relpath(os.path.join(d, f), out)
                       for d, _, names in os.walk(out) for f in names)
        files.remove("manifest.json")
        assert sorted(recorded) == files
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
        assert [m for m in report["missing_artifacts"]
                if m.startswith("models/shortcut_aware/A/run.json: ")]
        capsys.readouterr()
        assert run("matrix", config, out) == 0
        assert capsys.readouterr().out.count("train: finished") == 1
        assert path.read_bytes() == good

    def test_train_timing_left_to_calls_that_train(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        for verb in ("gen", "train"):
            assert run(verb, config, out) == 0
        timings = json.loads((out / "manifest.json").read_text())["timings"]
        # each trained job's wall seconds, under the name of its run.json
        jobs = {k: v for k, v in timings.items() if k.startswith("models/")}
        assert sorted(jobs) == sorted(key for key, _, _ in cli._nets(ExperimentConfig(**TINY)))
        assert all(type(v) is float and v >= 0.0 for v in jobs.values())
        assert run("bon", config, out) == 0  # every net is already trained
        after = json.loads((out / "manifest.json").read_text())["timings"]
        assert after["train"] == timings["train"]
        assert {k: after[k] for k in jobs} == jobs
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
        names = json.loads((out / "manifest.json").read_text())["files"]
        assert sorted(k for k in names if k.startswith("models/")) == sorted(
            f"models/{m}/{e}/run.json" for m in ("standard", "text_only", "shortcut_aware",
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
            "reports/bon_summary.json", "reports/matrix_summary.json",
            "reports/sfd_shortcut_aware.json", "reports/sfd_standard.json"]
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
        wanted = [(cli._run_name("standard", e), ws.config.train_config("standard", e), e)
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
        wanted = [(cli._run_name("standard", e), ws.config.train_config("standard", e), e)
                  for e in ("A", "B")]
        with pytest.raises(LabError, match="worker died"):
            cli._ensure_runs(ws, wanted)
        recorded = json.loads((out / "manifest.json").read_text())["files"]
        assert "models/standard/A/run.json" in recorded
        assert "models/standard/B/run.json" not in recorded
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


def older_manifest(manifest) -> dict:
    """``manifest`` in the format that gave each artifact a key beside its
    path: ``artifacts`` maps each key to {path, sha256}, and build records
    name their inputs by key and map each output key to its path."""
    def key(name):
        kind, *rest = name.rsplit(".", 1)[0].split("/")
        if kind == "datasets":
            return "dataset:" + rest[0].replace("_", ":")
        if kind == "models":
            return f"model:{rest[0]}:{rest[1]}"
        return f"report:{rest[0]}" if rest else kind

    return {"config_hash": manifest["config_hash"], "timings": manifest["timings"],
            "artifacts": {key(n): {"path": n, "sha256": sha}
                          for n, sha in manifest["files"].items()},
            "builds": {b: {"inputs": {key(n): sha for n, sha in r["inputs"].items()},
                           "outputs": {key(n): n for n in r["outputs"]}}
                       for b, r in manifest["builds"].items()}}


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
            stacked.append(dataset.v.tobytes()) or stack_pairs(dataset, text_rows)))
        (out / "reports" / "matrix_standard.csv").unlink()
        assert main(["matrix", "--config", config, "--out", str(out), "--jobs", "1"]) == 0
        assert sorted(stacked) == sorted(cli.envs.read_dataset(out / "datasets" / f"{e}_test.npz")
                                         .v.tobytes() for e in ("A", "B", "C"))
        stacked.clear()
        assert run("sfd", config, out) == 0
        assert stacked == []

    def test_deleted_output_is_rebuilt(self, lab_copy, capsys):
        config, out = lab_copy
        manifest = json.loads((out / "manifest.json").read_text())
        outputs = manifest["builds"]["evaluate"]["outputs"]
        assert "reports/bon_B.svg" in outputs
        recorded = {rel: manifest["files"][rel] for rel in outputs}
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
        manifest["files"]["models/standard/A/run.json"] = sha = file_sha(path)
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run("sfd", config, out) == 0
        printed = capsys.readouterr().out
        assert "skip" not in printed and "train: finished" not in printed
        assert "matrix[standard]" in printed and "sfd[standard]" in printed
        assert "bon: ood best-of-16" in printed
        assert {k: v[0] for k, v in tree(out / "reports").items()} == reports
        builds = json.loads((out / "manifest.json").read_text())["builds"]
        assert builds["evaluate"]["inputs"]["models/standard/A/run.json"] == sha
        for verb in ("matrix", "bon"):
            assert run(verb, config, out) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{verb}: skip (outputs up to date)" for verb in ("matrix", "bon")]

    @pytest.mark.parametrize("damage", [
        lambda m, verb: m.update(builds="x"),
        lambda m, verb: m["builds"].update({verb: []}),
        lambda m, verb: m["builds"][verb].pop("inputs"),
        lambda m, verb: m["builds"][verb].update(outputs=[]),
        lambda m, verb: m["builds"][verb]["outputs"].append(["family.json"]),
        lambda m, verb: m["builds"][verb]["outputs"].append("reports/gone.csv"),
        # the outputs of the format that recorded a key beside each path
        lambda m, verb: m["builds"][verb].update(
            outputs={name: name for name in m["builds"][verb]["outputs"]}),
    ], ids=["builds-not-object", "record-not-object", "no-inputs", "no-outputs",
            "path-not-string", "unknown-output", "outputs-not-list"])
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

    @pytest.mark.parametrize("older", [
        older_manifest,
        lambda m: {k: v for k, v in older_manifest(m).items() if k != "artifacts"},
    ], ids=["keys-and-paths", "no-artifacts"])
    def test_lab_with_an_older_manifest_is_rebuilt_once(self, lab_copy, capsys, older):
        # a manifest without files is set aside like another config's: the
        # next pass rewrites every file to the same bytes, and then skips
        config, out = lab_copy
        manifest = json.loads((out / "manifest.json").read_text())
        (out / "manifest.json").write_text(json.dumps(older(manifest)))
        before = {k: v[0] for k, v in tree(out).items() if k != "manifest.json"}
        capsys.readouterr()
        for verb in ("gen", "matrix", "sfd", "bon"):
            assert run(verb, config, out) == 0
        printed = capsys.readouterr().out
        assert printed.count("gen: wrote") == 6 and printed.count("train: finished") == 15
        assert "matrix[standard]" in printed
        assert {k: v[0] for k, v in tree(out).items() if k != "manifest.json"} == before
        # every file but report's own two is recorded again
        assert set(json.loads((out / "manifest.json").read_text())["files"]) == \
            set(before) - {"reports/report.json", "reports/summary.txt"}
        for verb in ("gen", "matrix", "sfd", "bon"):
            assert run(verb, config, out) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{verb}: skip (outputs up to date)" for verb in ("gen", "matrix", "sfd", "bon")]

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


class TestNonRegularArtifacts:
    """A recorded name whose path is a FIFO, a device or a symlink to one
    counts as missing. Every artifact is written by ``_replace_file``, which
    unlinks whatever sits at its temp name first, and ``.lock`` is opened
    without blocking, so no verb opens such a path, blocks, reads forever or
    writes through a link out of the lab; run_cli's timeout ends a verb that
    does."""

    def test_symlink_to_dev_zero_is_missing_until_bon_rewrites_it(self, lab_copy):
        config, out = lab_copy
        svg = out / "reports" / "bon_A.svg"
        recorded = file_sha(svg)
        svg.unlink()
        svg.symlink_to("/dev/zero")
        proc = run_cli("report", config, out)
        assert proc.returncode == 1, proc.stderr
        assert ("[FAIL] missing artifact: reports/bon_A.svg: artifact 'reports/bon_A.svg' "
                "missing on disk") in proc.stdout.splitlines()
        assert run_cli("bon", config, out).returncode == 0
        assert not svg.is_symlink() and file_sha(svg) == recorded
        proc = run_cli("report", config, out)
        assert "missing artifact" not in proc.stdout, proc.stdout

    def test_fifo_test_split_stops_matrix_until_gen_restores_it(self, lab_copy):
        config, out = lab_copy
        split = out / "datasets" / "A_test.npz"
        recorded = file_sha(split)
        split.unlink()
        os.mkfifo(split)
        proc = run_cli("matrix", config, out)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: artifact 'datasets/A_test.npz' missing on disk")
        proc = run_cli("gen", config, out)
        assert proc.returncode == 0, proc.stderr
        assert "gen: wrote datasets/A_test.npz (120 samples)" in proc.stdout
        assert split.is_file() and file_sha(split) == recorded
        for verb in ("gen", "matrix", "sfd", "bon"):
            proc = run_cli(verb, config, out)
            assert (proc.returncode, proc.stdout) == (0, f"{verb}: skip (outputs up to date)\n")

    def test_fifo_run_json_is_retrained_to_its_recorded_bytes(self, lab_copy):
        config, out = lab_copy
        name = "models/standard/A/run.json"
        recorded = file_sha(out / name)
        (out / name).unlink()
        os.mkfifo(out / name)
        proc = run_cli("matrix", config, out)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"train: finished {name}\nmatrix: skip (outputs up to date)\n"
        assert (out / name).is_file() and file_sha(out / name) == recorded

    def test_fifo_at_a_temp_name_is_removed_before_gen_writes(self, lab_copy):
        config, out = lab_copy
        family = out / "family.json"
        recorded = file_sha(family)
        family.unlink()
        os.mkfifo(out / "family.json.tmp")
        proc = run_cli("gen", config, out)
        assert proc.returncode == 0, proc.stderr
        assert family.is_file() and file_sha(family) == recorded
        assert not list(out.rglob("*.tmp"))

    def test_fifo_at_a_run_temp_name_is_removed_before_the_run_is_written(self, lab_copy):
        config, out = lab_copy
        name = "models/standard/A/run.json"
        recorded = file_sha(out / name)
        (out / name).unlink()
        os.mkfifo(out / f"{name}.tmp")
        proc = run_cli("matrix", config, out)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"train: finished {name}\nmatrix: skip (outputs up to date)\n"
        assert (out / name).is_file() and file_sha(out / name) == recorded
        assert not list(out.rglob("*.tmp"))

    def test_symlink_at_a_temp_name_is_not_followed(self, lab_copy, tmp_path):
        # family.json is rewritten, and the manifest after it
        config, out = lab_copy
        family = out / "family.json"
        recorded = file_sha(family)
        family.unlink()
        targets = {name: tmp_path / f"outside-{name}" for name in ("family.json", "manifest.json")}
        for name, target in targets.items():
            (out / f"{name}.tmp").symlink_to(target)
        proc = run_cli("gen", config, out)
        assert proc.returncode == 0, proc.stderr
        assert not any(os.path.lexists(target) for target in targets.values())
        for name in targets:
            assert (out / name).is_file() and not (out / name).is_symlink()
        assert file_sha(family) == recorded
        assert not list(out.rglob("*.tmp"))

    def test_symlinked_directory_is_neither_read_nor_written(self, lab_copy, tmp_path):
        # datasets/ moved beside the lab, a symlink to it in its place, and a
        # split deleted there: gen writes nothing through the link, and report
        # counts every split behind it as missing
        config, out = lab_copy
        outside = tmp_path / "outside"
        (out / "datasets").rename(outside)
        (out / "datasets").symlink_to(outside)
        (outside / "A_test.npz").unlink()
        before = tree(outside)
        proc = run_cli("gen", config, out)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {out / 'datasets'} goes through a symlinked directory\n"
        assert tree(outside) == before
        proc = run_cli("report", config, out)
        assert proc.returncode == 1, proc.stderr
        assert sorted(line for line in proc.stdout.splitlines()
                      if line.startswith("[FAIL] missing artifact: datasets/")) == [
            f"[FAIL] missing artifact: datasets/{e}_{split}.npz: artifact "
            f"'datasets/{e}_{split}.npz' missing on disk"
            for e in "ABC" for split in ("test", "train")]
        assert tree(outside) == before

    def test_output_dir_may_be_a_symlink(self, lab_copy, tmp_path):
        config, out = lab_copy
        link = tmp_path / "link"
        link.symlink_to(out)
        for verb in ("gen", "matrix", "sfd", "bon"):
            proc = run_cli(verb, config, link)
            assert (proc.returncode, proc.stdout) == (0, f"{verb}: skip (outputs up to date)\n")

    def test_fifo_at_the_lock_exits_2(self, lab_copy):
        config, out = lab_copy
        os.mkfifo(out / ".lock")
        proc = run_cli("report", config, out)
        assert proc.returncode == 2
        assert proc.stderr.startswith("i/o error: ") and f"'{out / '.lock'}'" in proc.stderr
        assert "Traceback" not in proc.stderr


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
