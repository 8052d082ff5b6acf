"""Reward network numerics: a fixed two-layer scoring net with hand-derived
gradients, and AdamW with warmup + cosine decay.

Everything is float64. A net scores one (image, query, answer) feature triple:

    reward = w2 . tanh(W1 [v|q|a] + b1)

A text-only branch scores the same net on rows whose vision block is zero.
It takes the same full-width gradient: zero vision features give the vision
columns of W1 an exact +0.0 gradient, so those weights only decay.

The training functions take k nets stacked on a leading axis, the
(k, n_params) theta that one AdamW update steps, and a batch per net, so a
job's nets share one forward, one margin and one gradient call. Each net
still gets its own matrix products, so its bits do not depend on k.

The pairwise loss is -log(sigmoid(reward_chosen - reward_rejected)). An
output offset would cancel in that margin, so the net has none. There are two
batched margins, whose last bits differ: ``pair_margins`` (h_c.w2 - h_r.w2)
feeds evaluation and the sfc losses; ``batch_pair_grads`` ((h_c - h_r).w2)
feeds every gradient and the single-branch loss trace. The tests check the
gradient against central finite differences. A kernel raises ValueError
outside its domain; ``training.TrainRun`` alone saves and loads nets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def sigmoid(x):
    """Numerically stable logistic function, elementwise: 1 / (1 + exp(-x))
    for x >= 0 and exp(x) / (1 + exp(x)) below, both from e = exp(-|x|)."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def bt_loss(margin):
    """-log(sigmoid(margin)), stable for any finite margin."""
    return np.logaddexp(0.0, -np.asarray(margin, dtype=np.float64))


@dataclass(frozen=True)
class NetDims:
    """Feature-block sizes of the scoring net."""

    d_v: int
    d_q: int
    d_a: int
    hidden: int

    @property
    def input_dim(self) -> int:
        return self.d_v + self.d_q + self.d_a

    @property
    def n_params(self) -> int:
        return self.hidden * (self.input_dim + 2)

    def views(self, theta: np.ndarray) -> dict:
        """Named views onto vectors laid out like theta = [w1 | b1 | w2] along
        the last axis: ``w1`` is (..., hidden, input_dim), ``b1`` and ``w2``
        (..., hidden), with theta's leading axes in front.

        Parameters, gradients and optimizer moments all share this layout.
        """
        h, d = self.hidden, self.input_dim
        hd = h * d
        return {"w1": theta[..., :hd].reshape(theta.shape[:-1] + (h, d)),
                "b1": theta[..., hd:hd + h], "w2": theta[..., hd + h:]}


class RewardNet:
    """One scoring net: its ``dims`` and its parameters, one contiguous
    float64 vector ``theta = [w1 | b1 | w2]``.

    ``dims.views(theta)`` names the blocks, as it does for every stacked
    theta, gradient and optimizer moment; the net adds no other naming. A
    float64 ``theta`` is used in place, not copied, so a net can live in a
    row of a (k, n_params) array that AdamW updates for k nets at once. Two
    nets created by ``init`` from the same (dims, seed) are parameter-identical.
    """

    def __init__(self, dims: NetDims, theta):
        self.dims = dims
        self.theta = np.asarray(theta, dtype=np.float64)
        if self.theta.shape != (dims.n_params,):
            raise ValueError(f"theta: expected shape ({dims.n_params},), got {self.theta.shape}")

    @classmethod
    def init(cls, dims: NetDims, seed: int) -> "RewardNet":
        """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases.

        The answer block of the first layer starts at zero: answer directions
        the training data never exercises then score exactly neutrally,
        instead of through leftover random weights. Cross-environment scores
        would otherwise be dominated by each net's arbitrary response to the
        other environments' planted directions.
        """
        rng = np.random.default_rng(seed)
        d = dims.input_dim
        lim1 = 1.0 / math.sqrt(d)
        lim2 = 1.0 / math.sqrt(dims.hidden)
        net = cls(dims, np.zeros(dims.n_params))
        p = dims.views(net.theta)
        p["w1"][...] = rng.uniform(-lim1, lim1, size=(dims.hidden, d))
        p["w1"][:, dims.d_v + dims.d_q:] = 0.0
        p["w2"][...] = rng.uniform(-lim2, lim2, size=dims.hidden)
        return net


def batch_scores(net: RewardNet, x: np.ndarray) -> np.ndarray:
    """Scores for a (n, input_dim) matrix of concatenated features."""
    p = net.dims.views(net.theta)
    h = np.tanh(x @ p["w1"].T + p["b1"])
    return h @ p["w2"]


def branch_forward(dims: NetDims, theta: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Hidden activations of k stacked nets, ``theta`` (k, n_params), each on
    its own batch of (chosen, rejected) feature rows: ``pairs`` is
    (k, b, 2, input_dim) and the result (k, 2, b, hidden), chosen rows before
    rejected ones.

    Each net multiplies each half separately (one product over both halves
    would block the reduction differently and change bits); every elementwise
    step then runs once over all of them.
    """
    p = dims.views(theta)
    h = np.matmul(pairs.swapaxes(1, 2), p["w1"].swapaxes(1, 2)[:, None])
    h += p["b1"][:, None, None]
    return np.tanh(h, out=h)


def pair_margins(dims: NetDims, theta: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per-sample reward margins, chosen minus rejected, shape (k, b), from
    ``branch_forward`` activations ``h``; each half is scored like
    batch_scores."""
    s = np.matmul(h, dims.views(theta)["w2"][:, None, :, None])
    return s[:, 0, :, 0] - s[:, 1, :, 0]


def batch_pair_grads(dims: NetDims, theta: np.ndarray, pairs: np.ndarray, h: np.ndarray,
                     weights: np.ndarray):
    """Per-sample margins plus each net's weighted mean gradient over its batch,
    for the k stacked nets of ``branch_forward``.

    The (k, b) margins are ``(h_c - h_r) . w2``: every gradient and the
    single-branch loss trace use them. Evaluation and the sfc losses use
    ``pair_margins``, whose last bits differ. ``h`` is the ``branch_forward``
    output of the (k, b, 2, input_dim) ``pairs``. Row j of the (k, n_params)
    gradient equals sum_i weights[j, i] * grad_ji / b, laid out like theta
    and reduced with fixed-order matrix products so reruns are bit-identical.
    The per-sample loss is ``bt_loss`` of the margins. Training calls this
    once per step, from ``training.weighted_grad_step``, with ones weights
    except on a shortcut-aware job's primary row.

    A text branch's rows have a zero vision block, so its full-width product
    gives the ``w1`` vision columns an exact +0.0; each ``w1`` column is its
    own reduction over the batch, so the other columns keep their bits.
    """
    n = pairs.shape[1]
    w2 = dims.views(theta)["w2"]
    diff = h[:, 0] - h[:, 1]
    margins = np.matmul(diff, w2[..., None])[..., 0]
    g = -(sigmoid(-margins)) * weights / n  # (k, b) d(weighted mean loss)/dmargin

    coef = h * h
    np.subtract(1.0, coef, out=coef)
    coef *= g[:, None, :, None]
    coef *= w2[:, None, None]
    grad = np.empty(theta.shape)
    views = dims.views(grad)
    np.matmul(coef[:, 0].swapaxes(1, 2), pairs[:, :, 0], out=views["w1"])
    views["w1"] -= coef[:, 1].swapaxes(1, 2) @ pairs[:, :, 1]
    sums = coef.sum(axis=2)  # each half summed over its rows, as one call
    np.subtract(sums[:, 0], sums[:, 1], out=views["b1"])
    diff *= g[..., None]
    diff.sum(axis=1, out=views["w2"])
    return margins, grad


def schedule_lr(base_lr: float, warmup_ratio: float, total_steps: int, step: int) -> float:
    """Learning rate at 1-based step: linear warmup then cosine decay to 0."""
    warmup = warmup_ratio * total_steps
    if warmup > 0 and step <= warmup:
        return base_lr * step / warmup
    if total_steps == warmup:
        return base_lr
    progress = (step - warmup) / (total_steps - warmup)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class OptimizerState:
    """AdamW moments and the learning-rate table of k nets updated together,
    the rows of one (k, n_params) ``theta``: ``lr[s - 1, j, 0]`` is row j's
    rate at step s, ``schedule_lr(base_lr[j], warmup_ratio, total_steps, s)``."""

    def __init__(self, theta: np.ndarray, base_lr: tuple, warmup_ratio: float,
                 total_steps: int, weight_decay: float):
        # count= allocates the table first: a step count past memory fails at once
        self.lr = np.fromiter((schedule_lr(base, warmup_ratio, total_steps, s)
                               for s in range(1, total_steps + 1) for base in base_lr),
                              float, count=total_steps * len(base_lr)
                              ).reshape(total_steps, len(base_lr), 1)
        self.weight_decay = weight_decay
        self.step = 0
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        # preallocated work buffers for adamw_step
        self._u = np.empty_like(theta)
        self._tmp = np.empty_like(theta)


def adamw_step(state: OptimizerState, theta: np.ndarray, grad: np.ndarray) -> None:
    """One in-place AdamW update with decoupled weight decay at the scheduled
    lr of the (k, n_params) stacked thetas ``theta``, given their stacked
    gradients ``grad``.

    Every element sees the same operations in the same order as the textbook
    per-parameter form at its row's lr, so results are bit-identical to it:
    m = beta1*m + (1-beta1)*g, v = beta2*v + ((1-beta2)*g)*g,
    u = m_hat / (sqrt(v_hat) + eps), p = p - lr*(u + wd*p).
    """
    if state.step >= len(state.lr):
        raise ValueError(f"optimizer already ran its {len(state.lr)} scheduled steps")
    lr = state.lr[state.step]  # (k, 1): each row's rate
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    m, v, u, tmp = state.m, state.v, state._u, state._tmp

    m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=tmp)
    m += tmp
    v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=tmp)
    tmp *= grad
    v += tmp
    np.divide(v, bc2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    np.divide(m, bc1, out=u)
    u /= tmp
    np.multiply(theta, state.weight_decay, out=tmp)
    tmp += u
    tmp *= lr
    theta -= tmp
