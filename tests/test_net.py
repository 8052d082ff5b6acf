import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import batch_losses, copy_net, fd_check, zero_net
from rmlab import net as netmod
from rmlab.envs import PreferenceSample
from rmlab.errors import DimensionError, ScheduleExhausted
from rmlab.net import (NetDims, OptimizerState, RewardNet, adamw_step, batch_pair_grads,
                       batch_scores, branch_forward, pair_margins, schedule_lr, sigmoid)


def make_sample(rng, dims):
    return PreferenceSample(
        v=rng.standard_normal(dims.d_v), q=rng.standard_normal(dims.d_q),
        a1=rng.standard_normal(dims.d_a), a2=rng.standard_normal(dims.d_a),
        y=1, shortcut_applied=False)


def pair_rows(sample, mask_vision, label):
    """The (1, 2, input_dim) chosen/rejected feature rows of one sample."""
    v = np.zeros_like(sample.v) if mask_vision else sample.v
    chosen, rejected = (sample.a1, sample.a2) if label == 1 else (sample.a2, sample.a1)
    return np.stack([np.concatenate([v, sample.q, a]) for a in (chosen, rejected)])[None]


def pair_grad(net, sample, mask_vision, label):
    """(loss, flat gradient) of one pair through the batched training path."""
    theta, pairs = net.theta[None], pair_rows(sample, mask_vision, label)[None]
    margins, grad = batch_pair_grads(net.dims, theta, pairs,
                                     branch_forward(net.dims, theta, pairs), np.ones((1, 1)))
    return float(netmod.bt_loss(margins)[0, 0]), grad[0]


def loop_forward(doc, hidden, v, q, a):
    """Independent plain-Python forward pass over the serialized net."""
    x = list(v) + list(q) + list(a)
    d = len(x)
    score = 0.0
    for j in range(hidden):
        z = doc["b1"][j]
        for k in range(d):
            z += doc["w1"][j * d + k] * x[k]
        score += doc["w2"][j] * math.tanh(z)
    return score


def score(net, v, q, a):
    return float(batch_scores(net, np.concatenate([v, q, a])[None, :])[0])


class TestForward:
    def test_zero_net_scores_zero(self, default_dims):
        net = zero_net(default_dims)
        rng = np.random.default_rng(0)
        out = score(net, rng.standard_normal(16), rng.standard_normal(8),
                    rng.standard_normal(16))
        assert out == 0.0

    def test_matches_independent_loop_implementation(self, default_dims):
        net = RewardNet.init(default_dims, seed=1)
        default_dims.views(net.theta)["b1"][...] = np.random.default_rng(11).standard_normal(
            default_dims.hidden)
        rng = np.random.default_rng(2)
        v, q, a = rng.standard_normal(16), rng.standard_normal(8), rng.standard_normal(16)
        expected = loop_forward(net.to_dict(), default_dims.hidden, v, q, a)
        assert abs(score(net, v, q, a) - expected) < 1e-12


def masked_score(net, v, q, a):
    """Text-only score on the pipeline's path: the vision-masked rows of a
    one-pair dataset through the forward pass that evaluation scores with,
    its chosen half scored as ``pair_margins`` does."""
    from rmlab.envs import Dataset
    from rmlab.training import _stack_pairs

    one = Dataset(v=v[None, :], q=q[None, :], a1=a[None, :], a2=a[None, :],
                  y=np.ones(1, dtype=np.int8), planted=np.zeros(1, dtype=bool))
    h = branch_forward(net.dims, net.theta[None], _stack_pairs(one, (True,)))
    return float((h[0, 0] @ net.dims.views(net.theta)["w2"])[0])


class TestMaskedForward:
    def test_equals_forward_with_zero_vision(self, default_dims):
        net = RewardNet.init(default_dims, seed=6)
        rng = np.random.default_rng(7)
        v, q, a = rng.standard_normal(16), rng.standard_normal(8), rng.standard_normal(16)
        assert masked_score(net, v, q, a) == score(net, np.zeros(16), q, a)

    def test_constant_in_vision_input(self, default_dims):
        net = RewardNet.init(default_dims, seed=8)
        rng = np.random.default_rng(9)
        q, a = rng.standard_normal(8), rng.standard_normal(16)
        ref = masked_score(net, rng.standard_normal(16), q, a)
        for _ in range(5):
            assert masked_score(net, rng.standard_normal(16), q, a) == ref

    def test_vision_insensitive_net(self, default_dims):
        net = RewardNet.init(default_dims, seed=10)
        default_dims.views(net.theta)["w1"][:, :default_dims.d_v] = 0.0
        rng = np.random.default_rng(11)
        for _ in range(5):
            v, q, a = rng.standard_normal(16), rng.standard_normal(8), rng.standard_normal(16)
            assert masked_score(net, v, q, a) == pytest.approx(
                score(net, v, q, a), abs=1e-12)


def fd_grads_reference(net, sample, mask_vision, label, step=1e-6):
    """Test-local central differences, independent of fd_check."""
    out = {}
    work = copy_net(net)
    pairs = pair_rows(sample, mask_vision, label)
    for name, param in work.dims.views(work.theta).items():
        grad = np.zeros_like(param)
        flat = param.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = batch_losses(work, pairs)[0]
            flat[i] = orig - step
            down = batch_losses(work, pairs)[0]
            flat[i] = orig
            grad.ravel()[i] = (up - down) / (2 * step)
        out[name] = grad
    return out


class TestPairGrad:
    def test_equal_scores_give_log_two(self, default_dims, random_sample):
        net = zero_net(default_dims)
        loss, _ = pair_grad(net, random_sample, mask_vision=False, label=1)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_large_margin_closed_form(self, default_dims, random_sample):
        # Engineer a +10 margin through the output layer: one hidden unit
        # saturated oppositely on chosen vs rejected inputs would be fiddly,
        # so check the loss formula directly against the margin instead.
        margin = 10.0
        expected = -math.log(1.0 / (1.0 + math.exp(-margin)))
        assert float(netmod.bt_loss(margin)) == pytest.approx(expected, rel=1e-9)
        assert float(netmod.bt_loss(margin)) == pytest.approx(4.5398899e-05, rel=1e-6)

    @pytest.mark.parametrize("mask_vision", [False, True])
    @pytest.mark.parametrize("label", [1, -1])
    def test_matches_finite_differences(self, default_dims, mask_vision, label):
        rng = np.random.default_rng(42)
        for trial in range(3):
            net = RewardNet.init(default_dims, seed=100 + trial)
            default_dims.views(net.theta)["b1"][...] = 0.3 * rng.standard_normal(
                default_dims.hidden)
            sample = make_sample(rng, default_dims)
            _, flat = pair_grad(net, sample, mask_vision, label)
            grads = default_dims.views(flat)
            fd = fd_grads_reference(net, sample, mask_vision, label)
            scale = max(np.max(np.abs(grads["w1"])), 1e-8)
            for name in ("w1", "b1", "w2"):
                err = np.max(np.abs(grads[name] - fd[name])) / scale
                assert err < 1e-5

    def test_bad_label_rejected(self, default_dims, random_sample):
        net = RewardNet.init(default_dims, seed=1)
        with pytest.raises(DimensionError):
            fd_check(net, random_sample, False, label=0)


class TestFdCheck:
    def test_zero_net_error_tiny(self, default_dims, random_sample):
        net = zero_net(default_dims)
        assert fd_check(net, random_sample, mask_vision=False) <= 1e-7

    def test_random_draws_pass(self, default_dims):
        rng = np.random.default_rng(77)
        for trial in range(10):
            net = RewardNet.init(default_dims, seed=500 + trial)
            sample = make_sample(rng, default_dims)
            assert fd_check(net, sample, bool(trial % 2)) <= 1e-5

    def test_detects_planted_fault(self, default_dims, random_sample, monkeypatch):
        net = RewardNet.init(default_dims, seed=9)
        real_grads = netmod.batch_pair_grads

        def corrupted(dims, theta, pairs, h, weights):
            margins, grad = real_grads(dims, theta, pairs, h, weights)
            w1 = dims.views(grad)["w1"]
            idx = np.unravel_index(np.argmax(np.abs(w1)), w1.shape)
            w1[idx] *= 2.0
            return margins, grad

        monkeypatch.setattr(netmod, "batch_pair_grads", corrupted)
        assert fd_check(net, random_sample, mask_vision=False) > 1e-2


class TestSchedule:
    def test_warmup_midpoint(self):
        assert schedule_lr(1.0, 0.1, 1000, 50) == pytest.approx(0.5)

    def test_warmup_end(self):
        assert schedule_lr(1.0, 0.1, 1000, 100) == pytest.approx(1.0)

    def test_decays_to_zero(self):
        assert schedule_lr(1.0, 0.1, 1000, 1000) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-6, 1.0), st.floats(0.01, 0.99), st.integers(2, 10**6))
    def test_continuous_at_end_of_warmup(self, base_lr, warmup_ratio, total):
        warmup = warmup_ratio * total
        at = schedule_lr(base_lr, warmup_ratio, total, warmup)
        assert at == pytest.approx(base_lr, rel=1e-12)
        for step in (warmup * (1 - 1e-9), warmup * (1 + 1e-9)):
            assert schedule_lr(base_lr, warmup_ratio, total, step) == pytest.approx(
                at, rel=1e-6)

    def test_no_warmup_starts_high(self):
        assert schedule_lr(1.0, 0.0, 100, 1) == pytest.approx(
            0.5 * (1 + math.cos(math.pi / 100)))

    @pytest.mark.parametrize("base_lr, warmup_ratio, total", [
        ((0.1,), 0.0, 7), ((3e-3, 2.4e-2), 0.1, 250), ((5e-4, 4e-3), 0.5, 3)])
    def test_optimizer_table_holds_every_scheduled_rate(self, base_lr, warmup_ratio, total):
        theta = np.zeros((len(base_lr), 4))
        state = OptimizerState(theta, base_lr, warmup_ratio, total, 0.05)
        assert state.lr.shape == (total, len(base_lr), 1)
        for s in range(1, total + 1):
            for j, base in enumerate(base_lr):
                assert state.lr[s - 1, j, 0] == schedule_lr(base, warmup_ratio, total, s)
        grad = np.ones_like(theta)
        for _ in range(len(state.lr)):
            adamw_step(state, theta, grad)
        with pytest.raises(ScheduleExhausted):
            adamw_step(state, theta, grad)


class TestAdamW:
    def test_zero_gradient_zero_decay_is_noop(self, default_dims):
        net = RewardNet.init(default_dims, seed=12)
        before = net.to_dict()
        theta = net.theta[None]  # a one-row view: the update writes through to net
        state = OptimizerState(theta, base_lr=(0.1,), warmup_ratio=0.0,
                               total_steps=10, weight_decay=0.0)
        adamw_step(state, theta, np.zeros_like(theta))
        assert net.to_dict() == before

    def test_matches_hand_recursion_two_steps(self):
        # Two scalar parameters, constant gradient 1.0, wd 0. With a
        # constant gradient the bias-corrected update direction is exactly
        # 1 / (1 + eps) every step, so theta_2 = theta_0 - (lr_1 + lr_2)/(1+eps).
        dims = NetDims(d_v=0, d_q=0, d_a=0, hidden=1)
        net = RewardNet(dims=dims, theta=[1.0, 1.0])  # theta is [b1 | w2]
        theta = net.theta[None]
        state = OptimizerState(theta, base_lr=(0.1,), warmup_ratio=0.0,
                               total_steps=4, weight_decay=0.0)
        grad = np.array([[1.0, 1.0]])
        adamw_step(state, theta, grad)
        adamw_step(state, theta, grad)
        lr1 = 0.1 * 0.5 * (1 + math.cos(math.pi * 1 / 4))
        lr2 = 0.1 * 0.5 * (1 + math.cos(math.pi * 2 / 4))
        expected = 1.0 - (lr1 + lr2) / (1.0 + 1e-8)
        named = dims.views(net.theta)
        assert named["b1"][0] == pytest.approx(expected, abs=1e-14)
        assert named["w2"][0] == pytest.approx(expected, abs=1e-14)

    def test_step_overflow_raises(self, default_dims):
        net = RewardNet.init(default_dims, seed=13)
        theta = net.theta[None]
        state = OptimizerState(theta, (0.1,), 0.0, 1, 0.0)
        grad = np.zeros_like(theta)
        adamw_step(state, theta, grad)
        with pytest.raises(ScheduleExhausted):
            adamw_step(state, theta, grad)


def dict_adamw_step(state, params, grads, lr_fn, wd):
    """The per-parameter-name AdamW the flat update replaced, kept as the
    reference: one update per named block."""
    state["step"] += 1
    step = state["step"]
    lr = lr_fn(step)
    bc1 = 1.0 - netmod.ADAM_BETA1 ** step
    bc2 = 1.0 - netmod.ADAM_BETA2 ** step
    for name in params:
        g = np.atleast_1d(np.asarray(grads[name], dtype=np.float64))
        state["m"][name] = netmod.ADAM_BETA1 * state["m"][name] + (1.0 - netmod.ADAM_BETA1) * g
        state["v"][name] = (netmod.ADAM_BETA2 * state["v"][name]
                            + (1.0 - netmod.ADAM_BETA2) * g * g)
        m_hat = state["m"][name] / bc1
        v_hat = state["v"][name] / bc2
        update = m_hat / (np.sqrt(v_hat) + netmod.ADAM_EPS)
        p = params[name]
        p -= lr * (update.reshape(p.shape) + wd * p)


class TestFlatAdamW:
    def test_bit_identical_to_per_name_reference(self):
        dims = NetDims(d_v=3, d_q=2, d_a=3, hidden=5)
        net = RewardNet.init(dims, seed=17)
        named = dims.views(net.theta)
        named["b1"][...] = np.random.default_rng(1).standard_normal(dims.hidden)
        ref = {name: block.copy() for name, block in named.items()}
        total, wd, base_lr = 250, 0.05, 3e-3
        theta = net.theta[None]
        state = OptimizerState(theta, (base_lr,), 0.1, total, wd)
        ref_state = {"step": 0,
                     "m": {n: np.zeros(ref[n].shape) for n in ref},
                     "v": {n: np.zeros(ref[n].shape) for n in ref}}
        rng = np.random.default_rng(2)
        for step in range(200):  # warmup ends after step 25
            grad = rng.standard_normal(dims.n_params) * rng.choice([1e-6, 1.0, 1e3])
            grad[-1] = 0.0 if step % 3 else grad[-1]  # zero and nonzero entries
            dict_adamw_step(ref_state, ref, dims.views(grad),
                            lambda k: schedule_lr(base_lr, 0.1, total, k), wd)
            adamw_step(state, theta, grad[None])
            for name in ("w1", "b1", "w2"):
                assert np.array_equal(named[name], ref[name]), (step, name)
        assert state.step == 200 and schedule_lr(base_lr, 0.1, total, state.step) < base_lr

    def test_named_blocks_write_through_to_theta(self, default_dims):
        net = zero_net(default_dims)
        blocks = default_dims.views(net.theta)
        blocks["w1"][...] = np.ones_like(blocks["w1"])
        blocks["b1"][3] = 2.0
        blocks["w2"][...] = np.full(default_dims.hidden, 4.0)
        named = default_dims.views(net.theta)
        assert net.theta.shape == (default_dims.n_params,)
        assert np.all(named["w1"] == 1.0) and named["b1"][3] == 2.0
        assert np.all(named["w2"] == 4.0)
        assert np.array_equal(RewardNet.from_dict(net.to_dict(), default_dims).theta, net.theta)


class TestDeterminismAndSerialization:
    def test_same_seed_identical_parameters(self, default_dims):
        a = RewardNet.init(default_dims, seed=99)
        b = RewardNet.init(default_dims, seed=99)
        assert np.array_equal(a.theta, b.theta)

    def test_answer_block_starts_neutral(self, default_dims):
        net = RewardNet.init(default_dims, seed=7)
        a_block = default_dims.views(net.theta)["w1"][:, default_dims.d_v + default_dims.d_q:]
        assert np.all(a_block == 0.0)

    def test_json_round_trip_bit_exact(self, default_dims):
        net = RewardNet.init(default_dims, seed=101)
        default_dims.views(net.theta)["b1"][...] = np.random.default_rng(5).standard_normal(
            default_dims.hidden)
        blob = json.dumps(net.to_dict())
        back = RewardNet.from_dict(json.loads(blob), default_dims)
        assert np.array_equal(back.theta, net.theta)

    def test_file_with_zero_output_offset_loads_to_same_theta(self, default_dims):
        # primary.json files written before the offset was dropped carry
        # "b2": 0.0 (and n_params one larger), and run.json files written
        # before dims came from the config carry "dims" and "seed"; both
        # load to the same theta.
        net = RewardNet.init(default_dims, seed=102)
        old = dict(net.to_dict(), b2=0.0, seed=102, dims=asdict(default_dims))
        back = RewardNet.from_dict(json.loads(json.dumps(old)), default_dims)
        assert np.array_equal(back.theta, net.theta)
        assert back.theta.shape == (default_dims.hidden * (default_dims.input_dim + 2),)

    @pytest.mark.parametrize("damage", [
        lambda doc, h: doc["w1"].pop(),
        lambda doc, h: doc.update(w1=[], b1=[], w2=[]),
        # the same n_params in all, with w1 short and b1 long by hidden entries
        lambda doc, h: doc.update(w1=doc["w1"][h:], b1=doc["w1"][:h] + doc["b1"]),
        lambda doc, h: doc.update(w2=doc["w2"][:1]),  # would broadcast over hidden
        lambda doc, h: doc.update(b1=0.0),
    ], ids=["short-w1", "empty", "shifted", "length-one", "scalar"])
    def test_block_of_the_wrong_length_raises_value_error(self, default_dims, damage):
        doc = RewardNet.init(default_dims, seed=103).to_dict()
        damage(doc, default_dims.hidden)
        with pytest.raises(ValueError):
            RewardNet.from_dict(doc, default_dims)


def masked_sigmoid(x):
    """The boolean-mask logistic that ``sigmoid`` replaced, kept as the
    reference: each side of zero through its own exp."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 700.0, -700.0,
             745.0, -745.0, 800.0, -800.0, math.inf, -math.inf]

    def test_bit_identical_to_masked_formula(self):
        x = np.concatenate([self.EDGES,
                            np.random.default_rng(3).standard_normal(10_000) * 40.0])
        assert sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()

    def test_nan_stays_nan_and_scalars_work(self):
        assert np.isnan(sigmoid(np.array([np.nan]))).all()
        assert sigmoid(0.0) == 0.5 and sigmoid(-800.0) == 0.0 and sigmoid(800.0) == 1.0


class TestTextBranchGradient:
    """A job's nets run as one stack, a text branch among them with its vision
    block zero; each row must get the bits it gets as a stack of one, and the
    text branch's full-width product an exact +0.0 vision gradient."""

    @pytest.mark.parametrize("hidden", [16, 64])
    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_two_row_stack_matches_two_single_rows_bit_for_bit(self, hidden, batch):
        dims = NetDims(d_v=16, d_q=8, d_a=16, hidden=hidden)
        rng = np.random.default_rng(batch)
        theta = rng.standard_normal((2, dims.n_params))  # answer block nonzero too
        pairs = np.stack([rng.standard_normal((batch, 2, dims.input_dim))] * 2)
        pairs[1, ..., :dims.d_v] = 0.0  # row 1 is the vision-zeroed copy
        weights = np.stack([rng.random(batch), np.ones(batch)])
        h = branch_forward(dims, theta, pairs)
        stacked_margins = pair_margins(dims, theta, h)
        margins, grad = batch_pair_grads(dims, theta, pairs, h, weights)
        for j in range(2):
            row = slice(j, j + 1)
            h_j = branch_forward(dims, theta[row], pairs[row])
            assert h[row].tobytes() == h_j.tobytes()
            assert stacked_margins[row].tobytes() == pair_margins(dims, theta[row],
                                                                  h_j).tobytes()
            margins_j, grad_j = batch_pair_grads(dims, theta[row], pairs[row], h_j,
                                                 weights[row])
            assert margins[row].tobytes() == margins_j.tobytes()
            assert grad[row].tobytes() == grad_j.tobytes()
        vision = dims.views(grad[1])["w1"][:, :dims.d_v]
        assert not vision.any() and not np.signbit(vision).any()  # exact +0.0


class TestStackedAdamW:
    def test_rows_bit_identical_to_single_net_updates(self):
        dims = NetDims(d_v=3, d_q=2, d_a=3, hidden=5)
        total, warmup, wd, base_lrs = 40, 0.1, 0.05, (3e-3, 2.4e-2)
        singles = [RewardNet.init(dims, seed=19) for _ in base_lrs]
        dims.views(singles[1].theta)["b1"][...] = np.random.default_rng(2).standard_normal(
            dims.hidden)
        # each row's reference: the per-name update of its own net at its own rate
        refs = [{n: block.copy() for n, block in dims.views(net.theta).items()}
                for net in singles]
        states = [{"step": 0, "m": {n: np.zeros(ref[n].shape) for n in ref},
                   "v": {n: np.zeros(ref[n].shape) for n in ref}} for ref in refs]

        def flat(blocks):
            return np.concatenate([block.ravel() for block in blocks.values()])

        theta = np.stack([net.theta for net in singles])
        rows = [RewardNet(dims, row) for row in theta]  # views onto theta
        stacked = OptimizerState(theta, base_lrs, warmup, total, wd)
        rng = np.random.default_rng(3)
        for step in range(total):  # warmup ends after step 4
            grads = rng.standard_normal(theta.shape) * rng.choice([1e-6, 1.0, 1e3])
            grads[:, -1] = 0.0 if step % 3 else grads[:, -1]
            for ref, state, grad, base in zip(refs, states, grads, base_lrs):
                dict_adamw_step(state, ref, dims.views(grad),
                                lambda k, base=base: schedule_lr(base, warmup, total, k), wd)
            adamw_step(stacked, theta, grads)
            for row, ref in zip(rows, refs):
                assert row.theta.tobytes() == flat(ref).tobytes(), step
            assert stacked.m.tobytes() == np.stack([flat(s["m"]) for s in states]).tobytes()
            assert stacked.v.tobytes() == np.stack([flat(s["v"]) for s in states]).tobytes()
        with pytest.raises(ScheduleExhausted):
            adamw_step(stacked, theta, grads)

    def test_net_on_a_row_writes_through_and_copies_detach(self, default_dims):
        theta = np.zeros((2, default_dims.n_params))
        net = RewardNet(default_dims, theta[1])
        default_dims.views(net.theta)["b1"][...] = 1.0
        assert theta[1].any() and not theta[0].any()
        twin = copy_net(net)
        default_dims.views(twin.theta)["b1"][...] = 2.0
        assert np.all(default_dims.views(net.theta)["b1"] == 1.0)
