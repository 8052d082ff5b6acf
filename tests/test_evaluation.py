import numpy as np
import pytest

from rmlab.cli import ExperimentConfig, Workspace
from rmlab.envs import Dataset
from rmlab.errors import DegenerateSplitError, MissingArtifactError
from rmlab.evaluation import (accuracy, gen_matrix, score_correlation, sfd_report,
                              sfc_rho_diagnostic)
from rmlab.net import NetDims, RewardNet
from rmlab.training import TrainConfig, train


@pytest.fixture(scope="module")
def trained_p(small_sets):
    return train(TrainConfig(mode="standard", epochs=4, seed=51),
                 small_sets[("P", "train")])


@pytest.fixture(scope="module")
def text_p(small_sets):
    return train(TrainConfig(mode="text_only", epochs=4, seed=51),
                 small_sets[("P", "train")])


class TestAccuracy:
    def test_zero_net_scores_zero_ties_lose(self, small_sets, default_dims):
        net = RewardNet.zeros(default_dims)
        assert accuracy(net, small_sets[("P", "test")]) == 0.0

    def test_bayes_oracle_near_ceiling(self, small_family, small_sets, true_margins):
        family, specs = small_family
        acc = np.mean(true_margins(family, small_sets[("P", "test")]) > 0)
        assert acc == pytest.approx(0.95, abs=0.02)

    def test_invariant_under_increasing_transform(self, trained_p, small_sets):
        ds = small_sets[("P", "test")]
        base = accuracy(trained_p.primary, ds)
        transformed = trained_p.primary.copy()
        transformed.w2 = 2.0 * transformed.w2  # scores double exactly
        assert accuracy(transformed, ds) == base

    def test_empty_dataset_rejected(self, default_dims):
        with pytest.raises(DegenerateSplitError):
            accuracy(RewardNet.zeros(default_dims), Dataset(env_id="x", split="test"))


@pytest.fixture(scope="module")
def matrix(small_sets, trained_p):
    q_run = train(TrainConfig(mode="standard", epochs=4, seed=52),
                  small_sets[("Q", "train")])
    nets = {"P": trained_p.primary, "Q": q_run.primary}
    tests = {"P": small_sets[("P", "test")], "Q": small_sets[("Q", "test")]}
    return gen_matrix("standard", nets, tests, ["P", "Q"])


class TestGenMatrix:
    def test_fills_all_cells(self, matrix):
        assert len(matrix.acc) == 2 and all(len(row) == 2 for row in matrix.acc)
        assert all(0.0 <= x <= 1.0 for row in matrix.acc for x in row)

    def test_diagonal_at_least_off_diagonal(self, matrix):
        assert matrix.mean_diagonal >= matrix.mean_off_diagonal

    def test_missing_model_rejected(self, small_sets, trained_p):
        with pytest.raises(MissingArtifactError):
            gen_matrix("standard", {"P": trained_p.primary},
                       {"P": small_sets[("P", "test")]}, ["P", "Q"])

    def test_csv_emission(self, matrix, tmp_path):
        path = tmp_path / "m.csv"
        Workspace(ExperimentConfig(), str(tmp_path)).write(
            "report:matrix:standard", "m.csv", matrix.csv_rows())
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "train_env,P,Q"
        assert len(lines) == 3


class TestShortcutSplitAndSfd:
    def test_partition_is_exhaustive(self, trained_p, text_p, small_sets):
        ds = small_sets[("P", "test")]
        rep = sfd_report(trained_p.primary, text_p.primary, ds)
        assert rep.n_success + rep.n_fail == len(ds.samples)
        # the success side is exactly the pairs the proxy classifies correctly
        assert rep.n_success == round(
            accuracy(text_p.primary, ds, mask_vision=True) * len(ds))

    def test_zero_net_puts_all_ties_in_fail(self, trained_p, small_sets):
        net = RewardNet.zeros(NetDims(16, 8, 16, 8))
        rep = sfd_report(trained_p.primary, net, small_sets[("P", "test")])
        assert rep.n_success == 0
        assert rep.n_fail == len(small_sets[("P", "test")].samples)

    def test_sfd_identity(self, trained_p, text_p, small_sets):
        ds = small_sets[("P", "test")]
        rep = sfd_report(trained_p.primary, text_p.primary, ds,
                         train_env="P", mode="standard")
        full = accuracy(trained_p.primary, ds)
        combined = (rep.n_success * rep.acc_on_success
                    + rep.n_fail * rep.acc_on_fail) / len(ds.samples)
        assert combined == pytest.approx(full, abs=1e-12)
        assert -1.0 <= rep.sfd <= 1.0

    def test_report_survives_degenerate_split(self, small_sets, default_dims):
        zero = RewardNet.zeros(default_dims)
        rep = sfd_report(zero, zero, small_sets[("P", "test")],
                         train_env="P", mode="standard")
        assert rep.sfd is None and rep.n_success == 0
        assert rep.n_fail == len(small_sets[("P", "test")].samples)


class TestScoreCorrelation:
    def test_vision_blind_twin_correlates_perfectly(self, small_sets, default_dims):
        rng = np.random.default_rng(3)
        net = RewardNet.init(default_dims, seed=61)
        net.w1[:, :default_dims.d_v] = 0.0
        net.w1[:, default_dims.d_v + default_dims.d_q:] = 0.2 * rng.standard_normal(
            (default_dims.hidden, default_dims.d_a))
        net.b1 = rng.standard_normal(default_dims.hidden)
        diag = score_correlation(net, net, small_sets[("P", "test")])
        assert diag.response_r == pytest.approx(1.0, abs=1e-9)
        assert diag.margin_r == pytest.approx(1.0, abs=1e-9)

    def test_independent_nets_nearly_uncorrelated(self, small_sets, default_dims):
        a = RewardNet.init(default_dims, seed=62)
        b = RewardNet.init(default_dims, seed=63)
        for net in (a, b):
            net.b1 = np.random.default_rng(net.seed).standard_normal(default_dims.hidden)
            net.w1[:, default_dims.d_v + default_dims.d_q:] = (
                np.random.default_rng(net.seed + 1).standard_normal(
                    (default_dims.hidden, default_dims.d_a)) * 0.2)
        diag = score_correlation(a, b, small_sets[("P", "test")])
        assert abs(diag.response_r) <= 0.2

    def test_zero_variance_reported_missing(self, small_sets, default_dims):
        zero = RewardNet.zeros(default_dims)
        diag = score_correlation(zero, zero, small_sets[("P", "test")])
        assert diag.response_r is None and diag.margin_r is None

    def test_empty_set_rejected(self, default_dims):
        zero = RewardNet.zeros(default_dims)
        with pytest.raises(DegenerateSplitError):
            score_correlation(zero, zero, Dataset(env_id="x", split="test"))

    def test_shortcut_aware_less_text_correlated_than_standard(self, small_sets):
        tr, te = small_sets[("P", "train")], small_sets[("P", "test")]
        std = train(TrainConfig(mode="standard", epochs=8, seed=51), tr)
        proxy = train(TrainConfig(mode="text_only", epochs=8, seed=51), tr)
        sa = train(TrainConfig(mode="shortcut_aware", epochs=8, seed=51), tr)
        r_std = score_correlation(std.primary, proxy.primary, te)
        r_sa = score_correlation(sa.primary, sa.aux, te)
        assert r_std.response_r > r_sa.response_r
        assert r_std.margin_r > r_sa.margin_r


class TestSfcRhoDiagnostic:
    def test_single_beta_skipped(self, small_family, small_sets):
        family, specs = small_family
        run = train(TrainConfig(mode="shortcut_aware", epochs=2, seed=71),
                    small_sets[("P", "train")])
        diag = sfc_rho_diagnostic({"P": specs[0]}, {"P": run},
                                  {"P": small_sets[("P", "train")]})
        assert diag.skipped and diag.ordered is None

    def test_distinct_betas_ordered(self, small_family, small_sets):
        family, specs = small_family
        by_id = {s.env_id: s for s in specs}
        runs, trains = {}, {}
        for env in ("P", "Q"):
            runs[env] = train(TrainConfig(mode="shortcut_aware", epochs=3, seed=72),
                              small_sets[(env, "train")])
            trains[env] = small_sets[(env, "train")]
        diag = sfc_rho_diagnostic(by_id, runs, trains)
        assert not diag.skipped
        rows = {r.env_id: r for r in diag.rows}
        assert rows["Q"].rho_proxy == 1.0 and rows["P"].rho_proxy == pytest.approx(0.15)
        # beta 0 env leaves the text branch helpless: highest mean sfc
        assert rows["Q"].mean_sfc > rows["P"].mean_sfc
        assert diag.ordered
