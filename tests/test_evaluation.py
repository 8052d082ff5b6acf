import itertools

import numpy as np
import pytest

from oracles import copy_net, net_accuracy, sfc_rho_diagnostic, zero_net
from rmlab import net as netmod
from rmlab.evaluation import gen_matrix, outcomes, sfd_report
from rmlab.net import NetDims, RewardNet, branch_forward, pair_margins
from rmlab.training import TrainConfig, _stack_pairs, train


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
        net = zero_net(default_dims)
        assert net_accuracy(net, small_sets[("P", "test")]) == 0.0

    def test_bayes_oracle_near_ceiling(self, small_family, small_sets, true_margins):
        family, specs = small_family
        acc = np.mean(true_margins(family, small_sets[("P", "test")]) > 0)
        assert acc == pytest.approx(0.95, abs=0.02)

    def test_invariant_under_increasing_transform(self, trained_p, small_sets):
        ds = small_sets[("P", "test")]
        base = net_accuracy(trained_p.primary, ds)
        transformed = copy_net(trained_p.primary)
        transformed.dims.views(transformed.theta)["w2"][...] *= 2.0  # scores double exactly
        assert net_accuracy(transformed, ds) == base


# evaluation's scoring before it used pair_margins, copied verbatim (its
# _correct renamed): the reference the outcomes must match element for element
def _pair_scores(net: RewardNet, dataset, mask_vision: bool):
    """(chosen, rejected) score arrays of a net over a whole dataset."""
    x = _stack_pairs(dataset, (mask_vision,))[0]
    return netmod.batch_scores(net, x[:, 0]), netmod.batch_scores(net, x[:, 1])


def reference_correct(net: RewardNet, dataset, mask_vision: bool) -> np.ndarray:
    """Per pair, whether the chosen answer strictly outscores the other."""
    chosen, rejected = _pair_scores(net, dataset, mask_vision)
    return chosen > rejected


class TestScoringPath:
    """``outcomes`` compares training's pair margins with zero; the verbatim
    copy above scored each half with ``batch_scores`` and compared them."""

    @pytest.mark.parametrize("hidden", [16, 64])
    @pytest.mark.parametrize("mask_vision", [False, True])
    def test_matches_the_per_half_scores(self, small_sets, hidden, mask_vision):
        dims = NetDims(16, 8, 16, hidden)
        theta = np.random.default_rng(hidden).uniform(-0.5, 0.5, dims.n_params)
        zero = zero_net(dims)  # every pair ties, and a tie is not correct
        for net in (RewardNet(dims, theta), zero):
            for ds in small_sets.values():
                x = _stack_pairs(ds, (mask_vision,))
                chosen, rejected = _pair_scores(net, ds, mask_vision)
                theta = net.theta[None]
                h = branch_forward(dims, theta, x)
                assert np.array_equal(pair_margins(dims, theta, h)[0], chosen - rejected)
                got = outcomes((net,), (mask_vision,), ds)[0]
                assert got.dtype == bool
                assert np.array_equal(got, reference_correct(net, ds, mask_vision))
                assert got.any() == (net is not zero)

    @pytest.mark.parametrize("mask_vision", [False, True])
    def test_matches_on_trained_nets(self, trained_p, text_p, small_sets, mask_vision):
        for net in (trained_p.primary, text_p.primary):
            for ds in small_sets.values():
                assert np.array_equal(outcomes((net,), (mask_vision,), ds)[0],
                                      reference_correct(net, ds, mask_vision))


@pytest.fixture(scope="module")
def matrix(small_sets, trained_p):
    q_run = train(TrainConfig(mode="standard", epochs=4, seed=52),
                  small_sets[("Q", "train")])
    nets = (trained_p.primary, q_run.primary)
    correct = {}
    for test_env in ("P", "Q"):
        rows = outcomes(nets, (False, False), small_sets[(test_env, "test")])
        correct.update({(train_env, test_env): row for train_env, row in zip("PQ", rows)})
    return gen_matrix("standard", correct, ["P", "Q"])


class TestGenMatrix:
    def test_fills_all_cells(self, matrix):
        assert len(matrix["acc"]) == 2 and all(len(row) == 2 for row in matrix["acc"])
        assert all(0.0 <= x <= 1.0 for row in matrix["acc"] for x in row)

    def test_diagonal_at_least_off_diagonal(self, matrix):
        assert matrix["mean_diagonal"] >= matrix["mean_off_diagonal"]


class TestShortcutSplitAndSfd:
    def test_partition_is_exhaustive(self, trained_p, text_p, small_sets):
        ds = small_sets[("P", "test")]
        rep = sfd_report(*outcomes((trained_p.primary, text_p.primary), (False, True), ds))
        assert rep["n_success"] + rep["n_fail"] == len(ds.samples)
        # the success side is exactly the pairs the proxy classifies correctly
        assert rep["n_success"] == round(
            net_accuracy(text_p.primary, ds, mask_vision=True) * len(ds))

    def test_zero_net_puts_all_ties_in_fail(self, trained_p, small_sets):
        net = zero_net(trained_p.primary.dims)
        rep = sfd_report(*outcomes((trained_p.primary, net), (False, True),
                                   small_sets[("P", "test")]))
        assert rep["n_success"] == 0
        assert rep["n_fail"] == len(small_sets[("P", "test")].samples)

    def test_sfd_identity(self, trained_p, text_p, small_sets):
        ds = small_sets[("P", "test")]
        rep = sfd_report(*outcomes((trained_p.primary, text_p.primary), (False, True), ds),
                         train_env="P", test_env="P", mode="standard")
        assert (rep["train_env"], rep["test_env"], rep["mode"]) == ("P", "P", "standard")
        full = net_accuracy(trained_p.primary, ds)
        combined = (rep["n_success"] * rep["acc_on_success"]
                    + rep["n_fail"] * rep["acc_on_fail"]) / len(ds.samples)
        assert combined == pytest.approx(full, abs=1e-12)
        assert -1.0 <= rep["sfd"] <= 1.0

    @pytest.mark.parametrize("flags", list(itertools.product([False, True], repeat=2)),
                             ids=["vision-vision", "vision-text", "text-vision", "text-text"])
    def test_each_net_row_is_its_single_net_scoring(self, trained_p, text_p, small_sets,
                                                    flags):
        # whatever else is in the call, a net's row holds the bits it gets alone
        nets = (trained_p.primary, text_p.primary)
        for ds in small_sets.values():
            rows = outcomes(nets, flags, ds)
            assert len(rows) == 2 and all(row.shape == (len(ds),) for row in rows)
            for net, text, row in zip(nets, flags, rows):
                assert np.array_equal(row, outcomes((net,), (text,), ds)[0])
                assert np.array_equal(row, reference_correct(net, ds, text))

    def test_report_survives_degenerate_split(self, small_sets, default_dims):
        zero = zero_net(default_dims)
        rep = sfd_report(*outcomes((zero, zero), (False, True), small_sets[("P", "test")]),
                         train_env="P", test_env="P", mode="standard")
        assert rep["sfd"] is None and rep["n_success"] == 0
        assert rep["n_fail"] == len(small_sets[("P", "test")].samples)


class TestSfcRhoDiagnostic:
    def test_single_beta_skipped(self, small_family, small_sets):
        family, specs = small_family
        run = train(TrainConfig(mode="shortcut_aware", epochs=2, seed=71),
                    small_sets[("P", "train")])
        diag = sfc_rho_diagnostic({"P": specs[0]}, {"P": run},
                                  {"P": small_sets[("P", "train")]})
        assert diag["skipped"] and diag["ordered"] is None

    def test_distinct_betas_ordered(self, small_family, small_sets):
        family, specs = small_family
        by_id = {s.env_id: s for s in specs}
        runs, trains = {}, {}
        for env in ("P", "Q"):
            runs[env] = train(TrainConfig(mode="shortcut_aware", epochs=3, seed=72),
                              small_sets[(env, "train")])
            trains[env] = small_sets[(env, "train")]
        diag = sfc_rho_diagnostic(by_id, runs, trains)
        assert not diag["skipped"]
        rows = {r["env_id"]: r for r in diag["rows"]}
        assert rows["Q"]["rho_proxy"] == 1.0 and rows["P"]["rho_proxy"] == pytest.approx(0.15)
        # beta 0 env leaves the text branch helpless: highest mean sfc
        assert rows["Q"]["mean_sfc"] > rows["P"]["mean_sfc"]
        assert diag["ordered"]
