"""Reward network numerics: a fixed two-layer scoring net with hand-derived
gradients, a finite-difference checker, and AdamW with warmup + cosine decay.

Everything is float64. A net scores one (image, query, answer) feature triple:

    reward = w2 . tanh(W1 [v|q|a] + b1) + b2

The pairwise loss is -log(sigmoid(reward_chosen - reward_rejected)); its
gradients with respect to every parameter are computed analytically so they
can be validated against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ScheduleExhausted

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

PARAM_NAMES = ("w1", "b1", "w2", "b2")


def as_vec(x, n=None, name="vector"):
    """Coerce to a contiguous float64 1-d array; reject NaN/Inf and bad shapes."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"{name}: expected 1-d array, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise DimensionError(f"{name}: expected length {n}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise DimensionError(f"{name}: contains non-finite entries")
    return arr


def as_mat(x, shape=None, name="matrix"):
    """Coerce to a contiguous float64 2-d array; reject NaN/Inf and bad shapes."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"{name}: expected 2-d array, got shape {arr.shape}")
    if shape is not None and arr.shape != tuple(shape):
        raise DimensionError(f"{name}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DimensionError(f"{name}: contains non-finite entries")
    return arr


def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bt_loss(margin):
    """-log(sigmoid(margin)), stable for any finite margin."""
    return np.logaddexp(0.0, -np.asarray(margin, dtype=np.float64))


@dataclass(frozen=True)
class NetDims:
    """Feature-block sizes of the scoring net."""

    d_v: int
    d_q: int
    d_a: int
    hidden: int = 32

    @property
    def input_dim(self) -> int:
        return self.d_v + self.d_q + self.d_a

    @property
    def n_params(self) -> int:
        return self.hidden * (self.input_dim + 2) + 1

    def views(self, theta: np.ndarray) -> dict:
        """Named views onto a flat vector laid out like theta = [w1 | b1 | w2 | b2].

        Parameters, gradients and optimizer moments all share this layout;
        b2 is a length-1 view.
        """
        h, d = self.hidden, self.input_dim
        return {"w1": theta[:h * d].reshape(h, d), "b1": theta[h * d:h * d + h],
                "w2": theta[h * d + h:h * d + 2 * h], "b2": theta[h * d + 2 * h:]}


class _Block:
    """A named parameter block: a view onto ``net.theta`` that writes through."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, net, owner=None):
        return self if net is None else net._views[self.name]

    def __set__(self, net, value):
        net._views[self.name][...] = value


class RewardNet:
    """Parameters of the two-layer scoring net, held in one contiguous float64
    vector ``theta = [w1 | b1 | w2 | b2]``.

    ``w1`` (hidden, input_dim), ``b1`` and ``w2`` (hidden,) are views onto
    theta and ``b2`` is a float property; assigning any of them writes into
    theta. Two nets created from the same (dims, seed) are parameter-identical.
    """

    w1 = _Block()
    b1 = _Block()
    w2 = _Block()

    def __init__(self, dims: NetDims, seed: int, theta=None):
        self.dims = dims
        self.seed = seed
        self.theta = (np.zeros(dims.n_params) if theta is None
                      else np.array(theta, dtype=np.float64))
        if self.theta.shape != (dims.n_params,):
            raise DimensionError(
                f"theta: expected shape ({dims.n_params},), got {self.theta.shape}")
        self._views = dims.views(self.theta)

    @property
    def b2(self) -> float:
        return float(self.theta[-1])

    @b2.setter
    def b2(self, value) -> None:
        self.theta[-1] = value

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
        net = cls(dims, seed)
        net.w1 = rng.uniform(-lim1, lim1, size=(dims.hidden, d))
        net.w1[:, dims.d_v + dims.d_q:] = 0.0
        net.w2 = rng.uniform(-lim2, lim2, size=dims.hidden)
        return net

    @classmethod
    def zeros(cls, dims: NetDims) -> "RewardNet":
        return cls(dims, -1)

    def copy(self) -> "RewardNet":
        return RewardNet(self.dims, self.seed, self.theta)

    def params(self) -> dict:
        """Named views onto theta (b2 as a length-1 view)."""
        return self._views

    def to_dict(self) -> dict:
        """Flat JSON document; float round-trip is bit-exact via repr."""
        return {
            "dims": {"d_v": self.dims.d_v, "d_q": self.dims.d_q,
                     "d_a": self.dims.d_a, "hidden": self.dims.hidden},
            "seed": self.seed,
            "w1": self.w1.ravel().tolist(),
            "b1": self.b1.tolist(),
            "w2": self.w2.tolist(),
            "b2": self.b2,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RewardNet":
        dims = NetDims(**doc["dims"])
        return cls(dims, int(doc["seed"]),
                   np.concatenate([np.ravel(doc[name]) for name in PARAM_NAMES]))


def _check_input(net: RewardNet, v, q, a):
    d = net.dims
    return (as_vec(v, d.d_v, "v"), as_vec(q, d.d_q, "q"), as_vec(a, d.d_a, "a"))


def forward(net: RewardNet, v, q, a) -> float:
    """Score one (image, query, answer) triple."""
    v, q, a = _check_input(net, v, q, a)
    x = np.concatenate([v, q, a])
    h = np.tanh(net.w1 @ x + net.b1)
    return float(net.w2 @ h + net.b2)


def masked_forward(net: RewardNet, v, q, a) -> float:
    """Score with the vision block replaced by zeros (text-only view)."""
    v, q, a = _check_input(net, v, q, a)
    return forward(net, np.zeros_like(v), q, a)


def batch_scores(net: RewardNet, x: np.ndarray) -> np.ndarray:
    """Scores for a (n, input_dim) matrix of concatenated features."""
    h = np.tanh(x @ net.w1.T + net.b1)
    return h @ net.w2 + net.b2


def pair_inputs(sample, label: int, mask_vision: bool):
    """Concatenated chosen/rejected feature rows for one preference sample."""
    if label not in (1, -1):
        raise DimensionError(f"label must be +1 or -1, got {label}")
    v = np.zeros_like(sample.v) if mask_vision else sample.v
    chosen, rejected = (sample.a1, sample.a2) if label == 1 else (sample.a2, sample.a1)
    x_c = np.concatenate([v, sample.q, chosen])
    x_r = np.concatenate([v, sample.q, rejected])
    return x_c, x_r


def pair_loss(net: RewardNet, sample, mask_vision: bool, label: int) -> float:
    """Pairwise preference loss -log(sigmoid(margin)) for one sample."""
    x_c, x_r = pair_inputs(sample, label, mask_vision)
    margin = batch_scores(net, x_c[None, :])[0] - batch_scores(net, x_r[None, :])[0]
    return float(bt_loss(margin))


def pair_grad(net: RewardNet, sample, mask_vision: bool, label: int):
    """Loss and exact analytic gradient for one preference pair.

    Returns (loss, grad) where grad is laid out like ``net.theta``. Note the
    b2 entry is exactly zero: a shared score offset cancels in the pairwise
    margin.
    """
    x_c, x_r = pair_inputs(sample, label, mask_vision)
    z_c = net.w1 @ x_c + net.b1
    z_r = net.w1 @ x_r + net.b1
    h_c, h_r = np.tanh(z_c), np.tanh(z_r)
    margin = float(net.w2 @ h_c - net.w2 @ h_r)
    loss = float(bt_loss(margin))
    g = -float(sigmoid(-margin))  # dloss/dmargin

    dh_c = net.w2 * (1.0 - h_c * h_c)
    dh_r = net.w2 * (1.0 - h_r * h_r)
    grad = np.concatenate([
        (g * (np.outer(dh_c, x_c) - np.outer(dh_r, x_r))).ravel(),
        g * (dh_c - dh_r),
        g * (h_c - h_r),
        [0.0],
    ])
    return loss, grad


def fd_check(net: RewardNet, sample, mask_vision: bool, label: int = 1,
             step: float = 1e-6) -> float:
    """Max relative error of analytic vs central finite-difference gradients.

    Errors are scaled by the largest gradient magnitude present so that
    near-zero entries do not blow up the ratio.
    """
    _, grad = pair_grad(net, sample, mask_vision, label)
    work = net.copy()
    fd = np.empty_like(grad)
    for i in range(fd.size):
        orig = work.theta[i]
        work.theta[i] = orig + step
        up = pair_loss(work, sample, mask_vision, label)
        work.theta[i] = orig - step
        down = pair_loss(work, sample, mask_vision, label)
        work.theta[i] = orig
        fd[i] = (up - down) / (2.0 * step)
    scale = max(np.max(np.abs(grad)), np.max(np.abs(fd)), 1e-8)
    return float(np.max(np.abs(grad - fd))) / scale


def schedule_lr(base_lr: float, warmup_ratio: float, total_steps: int, step: int) -> float:
    """Learning rate at 1-based step: linear warmup then cosine decay to 0."""
    warmup = warmup_ratio * total_steps
    if warmup > 0 and step <= warmup:
        return base_lr * step / warmup
    if total_steps == warmup:
        return base_lr
    progress = (step - warmup) / (total_steps - warmup)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class OptimizerState:
    """AdamW moments (laid out like the net's theta) plus the lr schedule."""

    base_lr: float
    warmup_ratio: float
    total_steps: int
    weight_decay: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    # preallocated work buffers for adamw_step
    _u: np.ndarray = field(init=False, repr=False)
    _tmp: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._u = np.empty_like(self.m)
        self._tmp = np.empty_like(self.m)

    @classmethod
    def for_net(cls, net: RewardNet, base_lr: float, warmup_ratio: float,
                total_steps: int, weight_decay: float) -> "OptimizerState":
        return cls(base_lr, warmup_ratio, total_steps, weight_decay,
                   m=np.zeros_like(net.theta), v=np.zeros_like(net.theta))

    def current_lr(self) -> float:
        return schedule_lr(self.base_lr, self.warmup_ratio, self.total_steps, self.step)


def adamw_step(state: OptimizerState, net: RewardNet, grad: np.ndarray) -> None:
    """One in-place AdamW update of ``net.theta`` with decoupled weight decay
    at the scheduled lr. ``grad`` is laid out like theta.

    Every element sees the same operations in the same order as the textbook
    per-parameter form, so results are bit-identical to it:
    m = beta1*m + (1-beta1)*g, v = beta2*v + ((1-beta2)*g)*g,
    u = m_hat / (sqrt(v_hat) + eps), p = p - lr*(u + wd*p).
    A zero gradient entry (b2's, always) therefore needs no special case.
    """
    if state.step >= state.total_steps:
        raise ScheduleExhausted(
            f"optimizer already ran its {state.total_steps} scheduled steps")
    state.step += 1
    lr = schedule_lr(state.base_lr, state.warmup_ratio, state.total_steps, state.step)
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    m, v, u, tmp, p = state.m, state.v, state._u, state._tmp, net.theta

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
    np.multiply(p, state.weight_decay, out=tmp)
    tmp += u
    tmp *= lr
    p -= tmp
