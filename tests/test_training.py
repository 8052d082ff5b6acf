import hashlib
import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from oracles import batch_losses, copy_net, net_accuracy
from rmlab.config import MODES
from rmlab.envs import ENVS, default_family, sample_env
from rmlab.errors import ConfigError
from rmlab.net import RewardNet, schedule_lr
from rmlab.training import (TrainConfig, TrainRun, sfc, train, weighted_grad_step,
                            _stack_pairs)
from rmlab import net as netmod


class TestSfc:
    def test_equal_losses_give_half(self):
        assert sfc(math.log(2.0), math.log(2.0)) == 0.5

    def test_arithmetic(self):
        assert sfc(1.0, 3.0) == pytest.approx(0.75)

    def test_limit_toward_one(self):
        assert sfc(1e-12, 1.0) > 0.999999

    def test_monotone_in_each_argument(self):
        grid = np.linspace(0.05, 3.0, 20)
        for loss_t in grid:
            vals = [sfc(lm, loss_t) for lm in grid]
            assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing in loss_mm
        for loss_mm in grid:
            vals = [sfc(loss_mm, lt) for lt in grid]
            assert all(a < b for a, b in zip(vals, vals[1:]))  # increasing in loss_t

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="sfc needs strictly positive losses"):
            sfc(0.0, 1.0)
        with pytest.raises(ValueError, match="sfc needs strictly positive losses"):
            sfc(1.0, -0.5)
        with pytest.raises(ValueError, match="sfc needs strictly positive losses"):
            sfc(np.array([1.0, 0.0]), np.ones(2))


# equal-length (loss_mm, loss_t) arrays; a bounded ratio keeps sfc off 0 and 1
LOSS_PAIRS = st.integers(1, 16).flatmap(lambda n: st.tuples(
    *[arrays(np.float64, n, elements=st.floats(1e-3, 1e3))] * 2))


class TestSfcProperties:
    @settings(max_examples=100, deadline=None)
    @given(LOSS_PAIRS)
    def test_array_matches_scalar_formula_in_open_unit_interval(self, losses):
        loss_mm, loss_t = losses
        vals = sfc(loss_mm, loss_t)
        assert vals.shape == loss_mm.shape
        assert np.all((vals > 0.0) & (vals < 1.0))
        assert [float(x) for x in vals] == [sfc(float(a), float(b))
                                            for a, b in zip(loss_mm, loss_t)]

    @settings(max_examples=100, deadline=None)
    @given(LOSS_PAIRS, st.floats(1e-6, 1.0))
    def test_strictly_monotone_in_each_argument(self, losses, step):
        loss_mm, loss_t = losses
        base = sfc(loss_mm, loss_t)
        assert np.all(sfc(loss_mm * (1.0 + step), loss_t) < base)
        assert np.all(sfc(loss_mm, loss_t * (1.0 + step)) > base)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.integers(1, 16), elements=st.floats(1e-300, 1e300)))
    def test_equal_losses_give_exactly_half(self, loss):
        assert np.all(sfc(loss, loss.copy()) == 0.5)


class TestStackPairs:
    @pytest.mark.parametrize("text_rows", [(False,), (True,), (False, True), (True, False)],
                             ids=lambda rows: "-".join(map(str, rows)))
    def test_columns_equal_per_sample_loop(self, small_sets, text_rows):
        # the per-sample loop the column version replaced, as the reference
        # of each row
        ds = small_sets[("P", "train")]
        samples = ds.samples
        d_v = samples[0].v.shape[0]
        x = _stack_pairs(ds, text_rows)
        for row, mask_vision in zip(x, text_rows):
            ref_c = np.empty((len(samples), d_v + samples[0].q.shape[0]
                              + samples[0].a1.shape[0]))
            ref_r = np.empty_like(ref_c)
            for i, s in enumerate(samples):
                v = np.zeros(d_v) if mask_vision else s.v
                chosen, rejected = (s.a1, s.a2) if s.y == 1 else (s.a2, s.a1)
                ref_c[i] = np.concatenate([v, s.q, chosen])
                ref_r[i] = np.concatenate([v, s.q, rejected])
            assert row.shape == (len(samples), 2, ref_c.shape[1])
            assert np.array_equal(row[:, 0], ref_c) and np.array_equal(row[:, 1], ref_r)
        assert x.shape[0] == len(text_rows)
        assert {s.y for s in samples} == {1, -1}

    def test_text_row_differs_only_in_a_positive_zero_vision_block(self, small_sets):
        # the shortcut_aware layout: the primary's rows, then the text branch's
        ds = small_sets[("P", "train")]
        d_v = ds.v.shape[1]
        x = _stack_pairs(ds, (False, True))
        assert np.array_equal(x[0, :, 0, :d_v], ds.v) and np.array_equal(x[0, :, 1, :d_v], ds.v)
        assert not x[1, ..., :d_v].any() and not np.signbit(x[1, ..., :d_v]).any()
        assert x[0, ..., d_v:].tobytes() == x[1, ..., d_v:].tobytes()


class TestConfig:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(mode="finetune")


class TestWeightedGradStep:
    @pytest.fixture()
    def dual_batch(self, small_sets):
        """A shortcut-aware job's (2, 8, 2, input_dim) batch: the primary's
        rows, then the text branch's."""
        return _stack_pairs(small_sets[("P", "train")], (False, True))[:, :8]

    @pytest.fixture()
    def tiny_batch(self, dual_batch):
        return dual_batch[0]

    @pytest.fixture()
    def nets(self, small_sets):
        from rmlab.net import NetDims

        dims = NetDims(16, 8, 16, hidden=16)
        return RewardNet.init(dims, 3), RewardNet.init(dims, 4)

    @staticmethod
    def step(primary, aux, pairs):
        """``weighted_grad_step`` on the stack of the two nets' thetas and
        their (2, b, 2, input_dim) batch."""
        return weighted_grad_step(primary.dims, np.stack([primary.theta, aux.theta]), pairs)

    @staticmethod
    def single_grad(net, pairs, weights):
        """One net's gradient, as a stack of one, at the given weights."""
        theta, pairs = net.theta[None], pairs[None]
        return netmod.batch_pair_grads(net.dims, theta, pairs,
                                       netmod.branch_forward(net.dims, theta, pairs),
                                       weights[None])[1][0]

    def test_gradient_is_sfc_weighted_mean_of_single_gradients(self, nets, dual_batch,
                                                                tiny_batch):
        # linearity at the step's own sfc weights: the primary gradient is
        # sum_i weight[i] * (row i's gradient at weight 1) / batch size
        primary, aux = nets
        _, batch, flat = self.step(primary, aux, dual_batch)
        ref_flat = np.zeros(primary.dims.n_params)
        for i, w in enumerate(batch.weight):
            ref_flat += w * self.single_grad(primary, tiny_batch[i:i + 1], np.ones(1))
        ref_flat /= len(tiny_batch)
        grads, ref = primary.dims.views(flat[0]), primary.dims.views(ref_flat)
        for name in ("w1", "b1", "w2"):
            assert np.max(np.abs(grads[name] - ref[name])) <= (
                1e-12 * max(1.0, np.max(np.abs(ref[name]))))

    def test_records_are_the_exact_quantities(self, nets, dual_batch, tiny_batch):
        primary, aux = nets
        _, batch, _ = self.step(primary, aux, dual_batch)
        text = tiny_batch.copy()
        text[..., :primary.dims.d_v] = 0.0
        loss_mm = batch_losses(primary, tiny_batch)
        loss_t = batch_losses(aux, text)
        assert len(batch.sfc) == len(tiny_batch)
        assert batch.mean_sfc == np.mean(batch.sfc)
        for i in range(len(batch.sfc)):
            rec_mm, rec_t, rec_sfc = batch.loss_mm[i], batch.loss_t[i], batch.sfc[i]
            assert rec_mm == pytest.approx(loss_mm[i], abs=1e-15)
            assert rec_t == pytest.approx(loss_t[i], abs=1e-15)
            assert rec_sfc == pytest.approx(rec_t / (rec_mm + rec_t))
            assert 0.0 < rec_sfc < 1.0

    def test_normalized_weights_average_to_one(self, nets, dual_batch):
        primary, aux = nets
        _, batch, _ = self.step(primary, aux, dual_batch)
        assert abs(np.mean(batch.weight) - 1.0) <= 1e-12

    def test_weights_are_detached_constants(self, nets, dual_batch, tiny_batch):
        # The primary gradient is the plain weighted pair gradient with the
        # recorded weights as constants: no term flows through the aux net.
        primary, aux = nets
        _, batch, flat = self.step(primary, aux, dual_batch)
        ref = self.single_grad(primary, tiny_batch, batch.weight)
        assert flat[0].tobytes() == ref.tobytes()
        # the weights do depend on the aux net, so holding them constant is a
        # real property of the step, not a vacuous one
        perturbed = copy_net(aux)
        perturbed.dims.views(perturbed.theta)["w1"][...] += 0.5
        _, moved, _ = self.step(primary, perturbed, dual_batch)
        assert not np.array_equal(moved.weight, batch.weight)

    def test_single_net_step_is_the_ones_weighted_pair_gradient(self, nets, tiny_batch):
        # a one-row theta (standard, text_only): no sfc, the losses of
        # batch_pair_grads' margins, and its gradient at weight 1 per sample
        net, _ = nets
        theta, pairs = net.theta[None], tiny_batch[None]
        losses, batch, flat = weighted_grad_step(net.dims, theta, pairs)
        margins, ref = netmod.batch_pair_grads(net.dims, theta, pairs,
                                               netmod.branch_forward(net.dims, theta, pairs),
                                               np.ones((1, len(tiny_batch))))
        assert batch is None
        assert losses.tobytes() == netmod.bt_loss(margins[0]).tobytes()
        assert flat.tobytes() == ref.tobytes()

    def test_three_row_stack_steps_each_row_as_its_own_job(self, nets, dual_batch):
        # every row of the weights array is written: a row that no rule
        # reweights steps at ones, so each row of a k = 3 stack of unrelated
        # nets gets the bits of its own k = 1 step and AdamW update
        dims = nets[0].dims
        thetas = [RewardNet.init(dims, seed).theta for seed in (5, 6, 7)]
        pairs = np.stack([dual_batch[0], dual_batch[1], dual_batch[0, ::-1]])
        lrs, schedule = (1e-3, 5e-3, 2e-2), (0.1, 10, 0.01)
        theta = np.stack(thetas)
        losses, batch, grads = weighted_grad_step(dims, theta, pairs)
        netmod.adamw_step(netmod.OptimizerState(theta, lrs, *schedule), theta, grads)
        assert batch is None
        for j, single in enumerate(thetas):
            single = single[None].copy()
            losses_j, _, grads_j = weighted_grad_step(dims, single, pairs[j:j + 1])
            netmod.adamw_step(netmod.OptimizerState(single, lrs[j:j + 1], *schedule),
                              single, grads_j)
            assert grads[j].tobytes() == grads_j[0].tobytes(), j
            assert theta[j].tobytes() == single[0].tobytes(), j
            if j == 0:
                assert losses.tobytes() == losses_j.tobytes()


@pytest.fixture(scope="module")
def runs(small_sets):
    ds = small_sets[("P", "train")]
    out = {}
    for mode in ("standard", "text_only", "shortcut_aware"):
        cfg = TrainConfig(mode=mode, epochs=4, seed=11)
        out[mode] = train(cfg, ds)
    return out


class TestTrain:
    def test_trace_lengths_match_steps(self, runs, small_sets):
        n = len(small_sets[("P", "train")].samples)
        cfg = runs["standard"].config
        steps = math.ceil(n / cfg.batch_size) * cfg.epochs
        for run in runs.values():
            assert len(run.loss_trace) == steps
            assert all(np.isfinite(run.loss_trace))

    def test_sfc_trace_bounded(self, runs):
        trace = runs["shortcut_aware"].sfc_trace
        assert trace is not None
        assert all(0.0 < v < 1.0 for v in trace)
        assert runs["standard"].sfc_trace is None

    def test_monotone_learning(self, runs):
        for run in runs.values():
            head = np.mean(run.loss_trace[:10])
            tail = np.mean(run.loss_trace[-10:])
            assert tail < head

    def test_dual_branch_identical_init(self):
        from rmlab.net import NetDims

        dims = NetDims(16, 8, 16, 64)
        a = RewardNet.init(dims, 21)
        b = RewardNet.init(dims, 21)
        assert np.array_equal(a.theta, b.theta)

    # 1500 pairs: batch 100 divides them, 64 leaves a short last batch
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), batch_size=st.integers(16, 256))
    @example(seed=31, batch_size=64)
    @example(seed=31, batch_size=100)
    def test_uniform_override_reproduces_standard_bitwise(self, small_sets, seed, batch_size):
        ds = small_sets[("P", "train")]
        std = train(TrainConfig(mode="standard", epochs=2, seed=seed,
                                batch_size=batch_size), ds)
        # the weights are sfc / mean(sfc), so an sfc of ones makes every weight 1
        with mock.patch("rmlab.training.sfc", lambda loss_mm, loss_t: np.ones_like(loss_mm)):
            forced = train(TrainConfig(mode="shortcut_aware", epochs=2, seed=seed,
                                       batch_size=batch_size), ds)
        assert np.array_equal(std.primary.theta, forced.primary.theta)

    def test_near_deterministic_shortcut_env_fits_train_set(self):
        from rmlab.envs import EnvironmentFamily, EnvironmentSpec

        specs = [
            EnvironmentSpec("SEP", seed=71, n_train=2000, n_test=100, beta=0.99,
                            alpha=2.0, direction="fresh", eta=0.05,
                            length_bias=0.315),
            EnvironmentSpec("PAD", seed=72, n_train=100, n_test=100, beta=0.5,
                            alpha=1.0, direction="fresh"),
        ]
        family = EnvironmentFamily(88, specs)
        tr = sample_env(family, "SEP", "train")
        te = sample_env(family, "SEP", "test")
        run = train(TrainConfig(mode="standard", epochs=5, seed=41), tr)
        assert net_accuracy(run.primary, tr) >= 0.99
        # text-only training gives up almost nothing in-distribution here
        text = train(TrainConfig(mode="text_only", epochs=5, seed=41), tr)
        assert abs(net_accuracy(text.primary, te, mask_vision=True)
                   - net_accuracy(run.primary, te)) <= 0.02

    def test_save_load_round_trip(self, runs, tmp_path):
        run = runs["shortcut_aware"]
        path = tmp_path / "run.json"
        run.save(path)
        assert os.listdir(tmp_path) == ["run.json"]  # save writes exactly the given path
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        # dims and seed come from the config, so neither net records them
        assert sorted(doc) == ["aux", "config", "epoch_sfc_stats", "loss_trace", "primary",
                               "sfc_trace"]
        assert sorted(doc["primary"]) == sorted(doc["aux"]) == ["b1", "w1", "w2"]
        back = TrainRun.load(path)
        assert back.config == run.config
        assert np.array_equal(back.primary.theta, run.primary.theta)
        assert np.array_equal(back.aux.theta, run.aux.theta)
        assert back.loss_trace == run.loss_trace  # bit-exact through JSON repr
        assert back.sfc_trace == run.sfc_trace
        assert back.epoch_sfc_stats == run.epoch_sfc_stats

    def test_run_recording_removed_setting_loads(self, runs, tmp_path):
        # a run.json written while TrainConfig still had sfc_normalized
        run = runs["shortcut_aware"]
        path = tmp_path / "run.json"
        run.save(path)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["config"]["sfc_normalized"] = True
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        back = TrainRun.load(path)
        assert back.config == run.config
        assert np.array_equal(back.primary.theta, run.primary.theta)

    # sha256 of w1|b1|w2 bytes and of the loss (+ sfc) trace bytes after 2
    # epochs on the P train split, recorded with the per-name AdamW and the
    # two-forward-pass training core this one replaced.
    REFERENCE_DIGESTS = {
        "standard": ("87b7e33941105ebb6c09efc6e93fd41a9be213a27c265e870e78086396872c6c",
                     "af96baea3fb29e3660eb89e0558aa3adaa9886e561a69ba77725176a6b978c43"),
        "text_only": ("2be2e868d5a66dc8f44ccfc48e85d63d5d5668e8eea5af64b01af64145c3de0c",
                      "efbe75b6bc638a28d40dd98ac70cf055271fcda3e1ec914c97174d3275c6aaf2"),
        "shortcut_aware": ("327f35c951635e4aaf62b89dea6b33a7be4db920c3f4b29f055e67d9167ef83b",
                           "9787172af1672fd104a2729daa8869561f0f39ba01162d23566956713b253407"),
    }

    @pytest.mark.parametrize("mode", MODES)
    def test_bit_identical_to_recorded_digests(self, small_sets, mode):
        run = train(TrainConfig(mode=mode, epochs=2, seed=11), small_sets[("P", "train")])
        weights = hashlib.sha256(run.primary.theta.tobytes())  # [w1 | b1 | w2]
        traces = np.asarray(run.loss_trace).tobytes()
        if run.sfc_trace is not None:
            traces += np.asarray(run.sfc_trace).tobytes()
        assert (weights.hexdigest(), hashlib.sha256(traces).hexdigest()) == \
            self.REFERENCE_DIGESTS[mode]

    @pytest.mark.parametrize("mode, branch", [("text_only", "primary"),
                                              ("shortcut_aware", "aux")])
    def test_text_branch_vision_weights_only_decay(self, mode, branch):
        # a text branch's vision columns get an exact zero gradient, so AdamW
        # only decays them, at the rate of the branch's own row
        family = default_family(3, n_train=300, n_test=10)
        ds = sample_env(family, ENVS[0], "train")
        cfg = TrainConfig(mode=mode, epochs=3, hidden=16)
        run = train(cfg, ds)
        dims = run.primary.dims
        base = cfg.base_lr if branch == "primary" else cfg.base_lr * cfg.aux_lr_scale
        total = math.ceil(len(ds) / cfg.batch_size) * cfg.epochs
        init = dims.views(RewardNet.init(dims, cfg.seed).theta)["w1"][:, :dims.d_v]
        expected = init.copy()
        for t in range(1, total + 1):
            expected -= (expected * cfg.weight_decay) * schedule_lr(
                base, cfg.warmup_ratio, total, t)
        assert not np.array_equal(expected, init)
        trained = dims.views(getattr(run, branch).theta)["w1"]
        assert trained[:, :dims.d_v].tobytes() == expected.tobytes()

    def test_epoch_sfc_stats_split_by_marker(self, runs, small_sets):
        stats = runs["shortcut_aware"].epoch_sfc_stats
        assert stats and all(s["n_planted"] + s["n_clean"] == 1500 for s in stats)
        n_planted = int(small_sets[("P", "train")].planted.sum())
        assert 0 < n_planted < 1500
        assert all((s["n_planted"], s["n_clean"]) == (n_planted, 1500 - n_planted)
                   for s in stats)
        # after the first epoch the text branch has the marker, so marked
        # pairs sit well below unmarked ones
        for s in stats[1:]:
            assert s["mean_sfc_clean"] > s["mean_sfc_planted"]

