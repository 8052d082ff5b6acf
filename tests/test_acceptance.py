"""Acceptance suite: one test per exit criterion, at full default scale.

Each test prints a single PASS line with the measured values so the whole
gate is auditable from the pytest output (-s or the captured log).
"""

import json
import math
import os
import time
from math import comb
from unittest import mock

import numpy as np
import pytest

from oracles import bon_exhaustive, bon_mc_check, fd_check
from rmlab.bestofn import bon_fast
from rmlab.cli import ExperimentConfig, derive_seed, main
from rmlab.envs import (EnvironmentFamily, EnvironmentSpec,
                        PreferenceSample, sample_env)
from rmlab.net import NetDims, RewardNet
from rmlab.training import (TrainConfig, TrainRun, sfc, train,
                            weighted_grad_step, _stack_pairs)


def report_pass(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def run_pipeline(out_dir):
    t0 = time.monotonic()
    for verb in ("gen", "matrix", "sfd", "bon"):
        code = main([verb, "--out", str(out_dir)])
        assert code == 0, f"{verb} failed"
    report_code = main(["report", "--out", str(out_dir)])
    return report_code, time.monotonic() - t0


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept") / "run1"
    code, seconds = run_pipeline(out)
    docs = {}
    for name in ("matrix_summary", "sfd_standard", "sfd_shortcut_aware",
                 "bon_summary", "report"):
        with open(out / "reports" / f"{name}.json", encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    return {"out": out, "exit_code": code, "seconds": seconds, "docs": docs}


def make_random_sample(rng, dims):
    return PreferenceSample(
        v=rng.standard_normal(dims.d_v), q=rng.standard_normal(dims.d_q),
        a1=rng.standard_normal(dims.d_a), a2=rng.standard_normal(dims.d_a),
        y=int(rng.choice([1, -1])), shortcut_applied=False)


class TestCriterion1GradientCorrectness:
    def test_100_random_triples(self):
        t0 = time.monotonic()
        dims = NetDims(16, 8, 16, 32)
        rng = np.random.default_rng(1001)
        worst = 0.0
        for trial in range(100):
            net = RewardNet.init(dims, seed=2000 + trial)
            dims.views(net.theta)["b1"][...] = 0.5 * rng.standard_normal(dims.hidden)
            sample = make_random_sample(rng, dims)
            err = fd_check(net, sample, mask_vision=bool(trial % 2),
                           label=sample.y)
            worst = max(worst, err)
        elapsed = time.monotonic() - t0
        assert worst <= 1e-5
        assert elapsed < 10.0
        report_pass(1, f"max rel err {worst:.2e} over 100 triples in {elapsed:.1f}s")


class TestCriterion2BonExactness:
    def test_fast_equals_exhaustive_and_weight_identity(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(1002)
        worst = 0.0
        for _ in range(200):
            m = int(rng.integers(1, 13))
            rewards = rng.standard_normal(m)
            if m >= 2 and rng.random() < 0.5:
                i, j = rng.integers(0, m, size=2)
                rewards[i] = rewards[j]  # exercise tie handling
            judges = rng.standard_normal(m) * 3.0 + 5.0
            for n in range(1, m + 1):
                diff = abs(bon_fast(rewards, judges, n)
                           - bon_exhaustive(rewards, judges, n))
                worst = max(worst, diff)
        assert worst <= 1e-12
        for m in range(1, 65):
            for n in range(1, m + 1):
                assert sum(comb(i - 1, n - 1) for i in range(1, m + 1)) == comb(m, n)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0
        report_pass(2, f"max |fast-exhaustive| {worst:.1e}; weights exact to M=64; "
                       f"{elapsed:.1f}s")


class TestCriterion3BonUnbiasedness:
    def test_monte_carlo_within_three_stderr(self):
        rng = np.random.default_rng(1003)
        for trial in range(20):
            m = int(rng.integers(4, 65))
            n = int(rng.integers(1, m + 1))
            rewards = rng.standard_normal(m)
            judges = rng.standard_normal(m) * 2.0 + 5.0
            exact = bon_fast(rewards, judges, n)
            est, se = bon_mc_check(rewards, judges, n, draws=100_000,
                                   seed=3000 + trial)
            if se == 0.0:
                assert est == pytest.approx(exact, abs=1e-12)
            else:
                assert abs(est - exact) <= 3.0 * se
        report_pass(3, "20 pools, 1e5 draws each, all within 3 standard errors")


class TestCriterion4ShortcutPhenomenon:
    def test_text_only_matrix_pattern(self, pipeline):
        doc = pipeline["docs"]["matrix_summary"]["text_only"]
        envs = doc["matrix"]["envs"]
        acc = doc["matrix"]["acc"]
        b_to_c = acc[envs.index("B")][envs.index("C")]
        assert doc["mean_iid"] >= 0.85
        assert doc["mean_ood"] <= 0.60
        assert b_to_c <= 0.55
        report_pass(4, f"text-only diag {doc['mean_iid']:.3f} >= 0.85, "
                       f"off-diag {doc['mean_ood']:.3f} <= 0.60, "
                       f"B->C {b_to_c:.3f} <= 0.55")


class TestCriterion5SfdReproduction:
    def test_standard_sfd_positive_everywhere(self, pipeline):
        docs = pipeline["docs"]["sfd_standard"]
        cells = {(d["train_env"], d["test_env"]): d["sfd"] for d in docs}
        assert len(cells) == 6
        assert all(v is not None and v > 0 for v in cells.values())
        assert cells[("B", "C")] >= 0.15
        lo, hi = min(cells.values()), max(cells.values())
        report_pass(5, f"standard sfd in [{lo:.3f}, {hi:.3f}] > 0 on all 6 cells; "
                       f"B->C {cells[('B', 'C')]:.3f} >= 0.15")


class TestCriterion6Remedy:
    def test_generalization_gain_with_iid_guard(self, pipeline):
        summary = pipeline["docs"]["matrix_summary"]
        std, sa = summary["standard"], summary["shortcut_aware"]
        gain = sa["mean_ood"] - std["mean_ood"]
        iid_drop = std["mean_iid"] - sa["mean_iid"]
        assert gain >= 0.05
        assert iid_drop <= 0.03
        std_cells = {(d["train_env"], d["test_env"]): d["sfd"]
                     for d in pipeline["docs"]["sfd_standard"]}
        sa_cells = {(d["train_env"], d["test_env"]): d["sfd"]
                    for d in pipeline["docs"]["sfd_shortcut_aware"]}
        assert std_cells.keys() == sa_cells.keys()
        assert all(sa_cells[k] < std_cells[k] for k in std_cells)
        report_pass(6, f"o.o.d. gain {gain:+.3f} >= 0.05, i.i.d. drop "
                       f"{iid_drop:+.3f} <= 0.03, sfd reduced on all 6 cells")


class TestCriterion7SfcIdentities:
    def test_unit_value(self):
        assert sfc(math.log(2.0), math.log(2.0)) == 0.5

    def test_strict_monotonicity_grid(self):
        grid = np.linspace(0.05, 3.0, 20)
        for fixed in grid:
            down = [sfc(x, fixed) for x in grid]
            up = [sfc(fixed, x) for x in grid]
            assert all(a > b for a, b in zip(down, down[1:]))
            assert all(a < b for a, b in zip(up, up[1:]))

    def test_normalized_batch_mean_is_one(self, small_sets):
        ds = small_sets[("P", "train")]
        dims = NetDims(16, 8, 16, 16)
        theta = np.stack([RewardNet.init(dims, 5).theta, RewardNet.init(dims, 6).theta])
        x = _stack_pairs(ds, (False, True))
        for start in (0, 64, 128):
            _, batch, _ = weighted_grad_step(dims, theta, x[:, start:start + 64])
            assert abs(np.mean(batch.weight) - 1.0) <= 1e-12

    def test_uniform_override_reproduces_standard(self, small_sets):
        ds = small_sets[("P", "train")]
        std = train(TrainConfig(mode="standard", epochs=3, seed=47), ds)
        # the weights are sfc / mean(sfc), so an sfc of ones makes every weight 1
        with mock.patch("rmlab.training.sfc", lambda loss_mm, loss_t: np.ones_like(loss_mm)):
            forced = train(TrainConfig(mode="shortcut_aware", epochs=3, seed=47), ds)
        assert np.array_equal(std.primary.theta, forced.primary.theta)
        report_pass(7, "sfc(ln2, ln2) = 0.5 exact; strict monotonicity on 20x20 "
                       "grid; normalized batch mean 1 to 1e-12; uniform override "
                       "bit-identical to standard")


class TestCriterion8ReweightingTargetsShortcutFailures:
    def test_unmarked_pairs_outweigh_marked_after_first_epoch(self, pipeline):
        out = pipeline["out"]
        for env in ("A", "B", "C"):
            run = TrainRun.load(os.path.join(out, "models", "shortcut_aware", env, "run.json"))
            stats = run.epoch_sfc_stats
            assert stats, f"no sfc stats recorded for env {env}"
            for s in stats[1:]:
                assert s["mean_sfc_clean"] > s["mean_sfc_planted"], (
                    f"env {env} epoch {s['epoch']}: clean {s['mean_sfc_clean']} "
                    f"!> planted {s['mean_sfc_planted']}")
        report_pass(8, "mean sfc of unmarked pairs exceeds marked pairs in every "
                       "epoch after the first, in all 3 environments")


class TestCriterion9SfcRhoOrdering:
    def test_mean_sfc_decreasing_in_beta(self):
        from oracles import sfc_rho_diagnostic

        master = ExperimentConfig().master_seed
        fs = derive_seed(master, "rho-family")
        specs = [
            EnvironmentSpec("SEP", seed=fs + 1, n_train=8000, n_test=100,
                            beta=0.99, alpha=2.0, direction="fresh",
                            eta=0.05, length_bias=0.315),
            EnvironmentSpec("MID", seed=fs + 2, n_train=8000, n_test=100,
                            beta=0.85, alpha=1.0,
                            direction="orthogonal_to", ref="SEP",
                            eta=0.05, length_bias=0.598),
            EnvironmentSpec("OFF", seed=fs + 3, n_train=8000, n_test=100,
                            beta=0.0, alpha=0.0, direction="fresh",
                            eta=0.05, length_bias=0.5),
        ]
        family = EnvironmentFamily(fs, specs)
        runs, trains = {}, {}
        for s in specs:
            trains[s.env_id] = sample_env(family, s.env_id, "train")
            runs[s.env_id] = train(
                TrainConfig(mode="shortcut_aware",
                            seed=derive_seed(master, f"rho:{s.env_id}")),
                trains[s.env_id])
        diag = sfc_rho_diagnostic({s.env_id: s for s in specs}, runs, trains)
        assert not diag["skipped"]
        assert diag["ordered"]
        vals = {r["beta"]: r["mean_sfc"] for r in diag["rows"]}
        report_pass(9, "mean sfc " + " > ".join(
            f"{vals[b]:.3f}(beta={b})" for b in sorted(vals)))


class TestCriterion10BestOf64Ordering:
    def test_shortcut_aware_at_least_standard_on_ood_pools(self, pipeline):
        doc = pipeline["docs"]["bon_summary"]
        assert doc["n_max"] == 64
        std = doc["ood_best_at_n_max"]["standard"]
        sa = doc["ood_best_at_n_max"]["shortcut_aware"]
        assert sa >= std
        report_pass(10, f"o.o.d. best-of-64: shortcut-aware {sa:.3f} >= "
                        f"standard {std:.3f} over 200 pools x 6 cells")


class TestCriterion11EndToEnd:
    def test_report_passes_within_budget_and_reruns_identically(
            self, pipeline, tmp_path_factory):
        assert pipeline["exit_code"] == 0
        assert pipeline["seconds"] <= 300.0
        out2 = tmp_path_factory.mktemp("accept") / "run2"
        code2, _ = run_pipeline(out2)
        assert code2 == 0
        names = sorted(os.listdir(pipeline["out"] / "reports"))
        assert names == sorted(os.listdir(out2 / "reports"))
        for name in names:
            a = (pipeline["out"] / "reports" / name).read_bytes()
            b = (out2 / "reports" / name).read_bytes()
            assert a == b, f"report {name} differs between identically seeded runs"
        report_pass(11, f"report exit 0; pipeline {pipeline['seconds']:.0f}s <= 300s; "
                        f"{len(names)} report files byte-identical across reruns")
