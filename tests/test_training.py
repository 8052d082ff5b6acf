import hashlib
import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rmlab.envs import sample_env
from rmlab.errors import ConfigError, DomainError
from rmlab.evaluation import accuracy
from rmlab.net import RewardNet
from rmlab.training import (MODES, TrainConfig, TrainRun, batch_losses, sfc, train,
                            weighted_grad_step, _stack_pairs)
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
        with pytest.raises(DomainError):
            sfc(0.0, 1.0)
        with pytest.raises(DomainError):
            sfc(1.0, -0.5)
        with pytest.raises(DomainError):
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
    @pytest.mark.parametrize("mask_vision", [False, True])
    def test_columns_equal_per_sample_loop(self, small_sets, mask_vision):
        # the per-sample loop the column version replaced, as the reference
        ds = small_sets[("P", "train")]
        samples = ds.samples
        d_v = samples[0].v.shape[0]
        ref_c = np.empty((len(samples), d_v + samples[0].q.shape[0]
                          + samples[0].a1.shape[0]))
        ref_r = np.empty_like(ref_c)
        for i, s in enumerate(samples):
            v = np.zeros(d_v) if mask_vision else s.v
            chosen, rejected = (s.a1, s.a2) if s.y == 1 else (s.a2, s.a1)
            ref_c[i] = np.concatenate([v, s.q, chosen])
            ref_r[i] = np.concatenate([v, s.q, rejected])
        x_c, x_r = _stack_pairs(ds, mask_vision=mask_vision)
        assert np.array_equal(x_c, ref_c) and np.array_equal(x_r, ref_r)
        assert {s.y for s in samples} == {1, -1}


class TestConfig:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(mode="finetune")

    def test_round_trip(self):
        cfg = TrainConfig(mode="shortcut_aware", seed=9, epochs=2)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg


class TestWeightedGradStep:
    @pytest.fixture()
    def tiny_batch(self, small_sets):
        ds = small_sets[("P", "train")]
        x_c, x_r = _stack_pairs(ds, mask_vision=False)
        xt_c, xt_r = _stack_pairs(ds, mask_vision=True)
        return x_c[:8], x_r[:8], xt_c[:8], xt_r[:8]

    @pytest.fixture()
    def nets(self, small_sets):
        from rmlab.net import NetDims

        s0 = small_sets[("P", "train")].samples[0]
        dims = NetDims(16, 8, 16, hidden=16)
        return RewardNet.init(dims, 3), RewardNet.init(dims, 4)

    def test_batch_of_one_scales_single_gradient(self, small_sets, nets):
        primary, aux = nets
        ds = small_sets[("P", "train")]
        x_c, x_r = _stack_pairs(ds, mask_vision=False)
        xt_c, xt_r = _stack_pairs(ds, mask_vision=True)
        w = 0.37
        _, flat, _ = weighted_grad_step(
            primary, aux, x_c[:1], x_r[:1], xt_c[:1], xt_r[:1],
            weight_override=np.array([w]))
        _, single_flat = netmod.batch_pair_grads(
            primary, x_c[:1], x_r[:1], netmod.branch_forward(primary, x_c[:1], x_r[:1]),
            np.ones(1))
        grads, single = primary.dims.views(flat), primary.dims.views(single_flat)
        for name in ("w1", "b1", "w2"):
            ref = np.atleast_1d(w * single[name])
            got = np.atleast_1d(grads[name])
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_records_are_the_exact_quantities(self, nets, tiny_batch):
        primary, aux = nets
        x_c, x_r, xt_c, xt_r = tiny_batch
        batch, _, _ = weighted_grad_step(primary, aux, x_c, x_r, xt_c, xt_r)
        loss_mm = batch_losses(primary, x_c, x_r)
        loss_t = batch_losses(aux, xt_c, xt_r)
        assert len(batch.sfc) == len(x_c)
        for i in range(len(batch.sfc)):
            rec_mm, rec_t, rec_sfc = batch.loss_mm[i], batch.loss_t[i], batch.sfc[i]
            assert rec_mm == pytest.approx(loss_mm[i], abs=1e-15)
            assert rec_t == pytest.approx(loss_t[i], abs=1e-15)
            assert rec_sfc == pytest.approx(rec_t / (rec_mm + rec_t))
            assert 0.0 < rec_sfc < 1.0

    def test_normalized_weights_average_to_one(self, nets, tiny_batch):
        primary, aux = nets
        batch, _, _ = weighted_grad_step(primary, aux, *tiny_batch)
        assert abs(np.mean(batch.weight) - 1.0) <= 1e-12

    def test_weights_are_detached_constants(self, nets, tiny_batch):
        # Recomputing with the recorded weights but a perturbed aux net must
        # give bit-identical primary gradients: the weights are numbers, not
        # functions of the aux parameters.
        primary, aux = nets
        batch, flat, _ = weighted_grad_step(primary, aux, *tiny_batch)
        weights = batch.weight.copy()
        perturbed = aux.copy()
        perturbed.w1 = perturbed.w1 + 0.5
        _, flat2, _ = weighted_grad_step(primary, perturbed, *tiny_batch,
                                         weight_override=weights)
        grads, grads2 = primary.dims.views(flat), primary.dims.views(flat2)
        for name in ("w1", "b1", "w2"):
            assert np.array_equal(np.atleast_1d(grads[name]),
                                  np.atleast_1d(grads2[name]))


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
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
        assert np.array_equal(a.b1, b.b1)

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
        assert np.array_equal(std.primary.w1, forced.primary.w1)
        assert np.array_equal(std.primary.b1, forced.primary.b1)
        assert np.array_equal(std.primary.w2, forced.primary.w2)

    def test_near_deterministic_shortcut_env_fits_train_set(self):
        from rmlab.envs import DirectionRule, EnvironmentFamily, EnvironmentSpec

        specs = [
            EnvironmentSpec("SEP", seed=71, n_train=2000, n_test=100, beta=0.99,
                            alpha=2.0, direction=DirectionRule("fresh"), eta=0.05,
                            length_bias=0.315),
            EnvironmentSpec("PAD", seed=72, n_train=100, n_test=100, beta=0.5,
                            alpha=1.0, direction=DirectionRule("fresh")),
        ]
        family = EnvironmentFamily(88, specs)
        tr = sample_env(family, "SEP", "train")
        te = sample_env(family, "SEP", "test")
        run = train(TrainConfig(mode="standard", epochs=5, seed=41), tr)
        assert accuracy(run.primary, tr) >= 0.99
        # text-only training gives up almost nothing in-distribution here
        text = train(TrainConfig(mode="text_only", epochs=5, seed=41), tr)
        assert abs(accuracy(text.primary, te, mask_vision=True)
                   - accuracy(run.primary, te)) <= 0.02

    def test_empty_dataset_rejected(self):
        from rmlab.envs import Dataset

        with pytest.raises(ConfigError):
            train(TrainConfig(mode="standard"), Dataset(env_id="x", split="train"))

    def test_save_load_round_trip(self, runs, tmp_path):
        run = runs["shortcut_aware"]
        path = run.save(tmp_path / "run")
        assert path == os.path.join(tmp_path / "run", "run.json")
        assert os.listdir(tmp_path / "run") == ["run.json"]  # one file per run
        back = TrainRun.load(tmp_path / "run")
        assert back.config == run.config
        assert back.dataset_fingerprint == run.dataset_fingerprint
        assert np.array_equal(back.primary.theta, run.primary.theta)
        assert np.array_equal(back.aux.theta, run.aux.theta)
        assert back.loss_trace == run.loss_trace  # bit-exact through JSON repr
        assert back.sfc_trace == run.sfc_trace
        assert back.epoch_sfc_stats == run.epoch_sfc_stats

    def test_run_recording_removed_setting_loads(self, runs, tmp_path):
        # a run.json written while TrainConfig still had sfc_normalized
        run = runs["shortcut_aware"]
        path = run.save(tmp_path / "run")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["config"]["sfc_normalized"] = True
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        back = TrainRun.load(tmp_path / "run")
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
        p = run.primary
        weights = hashlib.sha256(p.w1.tobytes() + p.b1.tobytes() + p.w2.tobytes())
        traces = np.asarray(run.loss_trace).tobytes()
        if run.sfc_trace is not None:
            traces += np.asarray(run.sfc_trace).tobytes()
        assert (weights.hexdigest(), hashlib.sha256(traces).hexdigest()) == \
            self.REFERENCE_DIGESTS[mode]

    def test_epoch_sfc_stats_split_by_marker(self, runs):
        stats = runs["shortcut_aware"].epoch_sfc_stats
        assert stats and all(s.n_planted + s.n_clean == 1500 for s in stats)
        # after the first epoch the text branch has the marker, so marked
        # pairs sit well below unmarked ones
        for s in stats[1:]:
            assert s.mean_sfc_clean > s.mean_sfc_planted
