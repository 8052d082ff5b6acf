"""Reward-model training in three modes.

standard        minimize -log(sigmoid(margin)) on full multimodal features
text_only       same loss with the vision block zeroed
shortcut_aware  dual branch: an auxiliary text-only net trains alongside the
                primary net, and each sample's primary loss is weighted by
                its shortcut-failure coefficient over the batch-mean sfc

    sfc = loss_text / (loss_multimodal + loss_text)

computed from the current step's detached per-sample losses. The weights are
plain numbers: no gradient flows through them. A high sfc means the text-only
branch fails on that sample, so the primary branch is pushed toward the
samples where multimodal grounding is required.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, DomainError
from .net import (NetDims, OptimizerState, RewardNet, _pair_losses, adamw_step,
                  batch_losses, batch_pair_grads, branch_forward)

MODES = ("standard", "text_only", "shortcut_aware")
LOSS_FLOOR = 1e-300  # keeps the sfc ratio defined if a margin saturates


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run."""

    mode: str
    base_lr: float = 5e-4
    epochs: int = 44
    batch_size: int = 64
    weight_decay: float = 0.05
    warmup_ratio: float = 0.1
    seed: int = 0
    hidden: int = 64
    aux_lr_scale: float = 8.0  # text branch lr multiplier; see note in train()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        for f in fields(self)[1:]:  # after mode, each field takes its default's type
            value, kind = getattr(self, f.name), type(f.default)
            if (isinstance(value, bool) != (kind is bool)
                    or not isinstance(value, (int, float) if kind is float else kind)):
                raise ConfigError(f"{f.name} must be {kind.__name__}, got {value!r}")
        if min(self.batch_size, self.epochs, self.hidden) < 1:
            raise ConfigError("batch_size, epochs and hidden must be >= 1")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ConfigError("warmup_ratio must be in [0, 1)")
        # chained comparisons are False for NaN, so these also reject it
        if not (0.0 < self.base_lr < math.inf and 0.0 < self.aux_lr_scale < math.inf):
            raise ConfigError("base_lr and aux_lr_scale must be finite and > 0")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError("weight_decay must be finite and >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """Keys that are not fields are ignored, so a ``run.json`` that records
        a setting this version no longer has still loads."""
        return cls(**{f.name: doc[f.name] for f in fields(cls) if f.name in doc})


@dataclass
class EpochSfcStats:
    """Mean sfc split by the generator's planted-shortcut flag, one epoch."""

    epoch: int
    mean_sfc_planted: float | None
    mean_sfc_clean: float | None
    n_planted: int
    n_clean: int


@dataclass
class TrainRun:
    """Configuration plus the persisted outcome of one training job."""

    config: TrainConfig
    dataset_fingerprint: str
    loss_trace: list
    sfc_trace: list | None
    primary: RewardNet
    aux: RewardNet | None = None
    epoch_sfc_stats: list = field(default_factory=list)

    def save(self, run_dir) -> str:
        """Write the whole run to ``run_dir/run.json`` (floats round-trip
        bit-exactly through JSON repr) and return that path."""
        os.makedirs(run_dir, exist_ok=True)
        path = os.path.join(run_dir, "run.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"config": self.config.to_dict(),
                       "dataset_fingerprint": self.dataset_fingerprint,
                       "loss_trace": self.loss_trace, "sfc_trace": self.sfc_trace,
                       "primary": self.primary.to_dict(),
                       "aux": None if self.aux is None else self.aux.to_dict(),
                       "epoch_sfc_stats": [vars(s) for s in self.epoch_sfc_stats]},
                      fh, sort_keys=True)
        return path

    @classmethod
    def load(cls, run_dir) -> "TrainRun":
        with open(os.path.join(run_dir, "run.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls(config=TrainConfig.from_dict(doc["config"]),
                   dataset_fingerprint=doc["dataset_fingerprint"],
                   loss_trace=doc["loss_trace"], sfc_trace=doc["sfc_trace"],
                   primary=RewardNet.from_dict(doc["primary"]),
                   aux=None if doc["aux"] is None else RewardNet.from_dict(doc["aux"]),
                   epoch_sfc_stats=[EpochSfcStats(**row) for row in doc["epoch_sfc_stats"]])


def sfc(loss_mm, loss_t):
    """Shortcut-failure coefficient: the text branch's share of the total loss,
    elementwise over scalars or arrays of per-sample losses.

    Both losses are treated as detached constants; the result is in (0, 1),
    decreasing in loss_mm and increasing in loss_t.
    """
    if np.any(loss_mm <= 0.0) or np.any(loss_t <= 0.0):
        raise DomainError(f"sfc needs strictly positive losses, got ({loss_mm}, {loss_t})")
    return loss_t / (loss_mm + loss_t)


def _stack_pairs(dataset, mask_vision: bool):
    """Chosen/rejected concatenated feature matrices for a whole dataset."""
    d_v, d_q = dataset.v.shape[1], dataset.q.shape[1]
    x_c = np.empty((len(dataset), d_v + d_q + dataset.a1.shape[1]))
    x_c[:, :d_v] = 0.0 if mask_vision else dataset.v
    x_c[:, d_v:d_v + d_q] = dataset.q
    x_r = x_c.copy()
    first_chosen = (dataset.y == 1)[:, None]
    x_c[:, d_v + d_q:] = np.where(first_chosen, dataset.a1, dataset.a2)
    x_r[:, d_v + d_q:] = np.where(first_chosen, dataset.a2, dataset.a1)
    return x_c, x_r


@dataclass
class SfcBatch:
    """Exact per-sample quantities used by one shortcut-aware batch step,
    one array entry per sample."""

    loss_mm: np.ndarray
    loss_t: np.ndarray
    sfc: np.ndarray
    weight: np.ndarray


def weighted_grad_step(primary: RewardNet, aux: RewardNet,
                       x_c: np.ndarray, x_r: np.ndarray,
                       xt_c: np.ndarray, xt_r: np.ndarray,
                       weight_override: np.ndarray | None = None):
    """Gradients for one shortcut-aware batch.

    Primary gradients are the weighted mean of per-sample pair gradients, each
    weight the sample's sfc over the batch-mean sfc (so weights average 1);
    auxiliary gradients are the unweighted mean of text-only pair gradients.
    Each branch runs its forward pass once: the sfc losses and the gradients
    come from the same activations. ``weight_override`` bypasses the sfc
    weights entirely (diagnostics: all ones reduces the step to standard
    training; passing previously recorded weights demonstrates the weights
    are detached constants).

    Returns (SfcBatch, primary_grad, aux_grad).
    """
    h_mm = branch_forward(primary, x_c, x_r)
    h_t = branch_forward(aux, xt_c, xt_r)
    loss_mm = np.maximum(_pair_losses(primary, h_mm), LOSS_FLOOR)
    loss_t = np.maximum(_pair_losses(aux, h_t), LOSS_FLOOR)
    sfc_vals = sfc(loss_mm, loss_t)
    if weight_override is None:
        weights = sfc_vals / np.mean(sfc_vals)
    else:
        weights = np.asarray(weight_override, dtype=np.float64)

    _, primary_grad = batch_pair_grads(primary, x_c, x_r, h_mm, weights)
    _, aux_grad = batch_pair_grads(aux, xt_c, xt_r, h_t, np.ones_like(weights))
    return SfcBatch(loss_mm, loss_t, sfc_vals, weights), primary_grad, aux_grad


def train(config: TrainConfig, dataset) -> TrainRun:
    """Run one training job over the dataset and return its artifacts."""
    n = len(dataset)
    if n == 0:
        raise ConfigError("dataset is empty")
    dims = NetDims(d_v=dataset.v.shape[1], d_q=dataset.q.shape[1],
                   d_a=dataset.a1.shape[1], hidden=config.hidden)

    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = steps_per_epoch * config.epochs

    primary = RewardNet.init(dims, config.seed)
    opt = OptimizerState.for_net(primary, config.base_lr, config.warmup_ratio,
                                 total_steps, config.weight_decay)
    aux = aux_opt = None
    if config.mode == "shortcut_aware":
        aux = RewardNet.init(dims, config.seed)  # bit-identical to primary
        # The text branch shares the schedule shape but runs at a scaled lr.
        # If both branches learn the planted text pattern at the same rate,
        # their losses track each other and every sfc sits at ~0.5; the proxy
        # has to stay ahead on text-learnable samples for the coefficient to
        # discriminate at this scale.
        aux_opt = OptimizerState.for_net(aux, config.base_lr * config.aux_lr_scale,
                                         config.warmup_ratio, total_steps,
                                         config.weight_decay)

    mask_primary = config.mode == "text_only"
    x_c, x_r = _stack_pairs(dataset, mask_vision=mask_primary)
    xt_c = xt_r = None
    if config.mode == "shortcut_aware":
        xt_c, xt_r = _stack_pairs(dataset, mask_vision=True)
    flags = dataset.planted
    ones = np.ones(config.batch_size)

    shuffle_rng = np.random.default_rng([config.seed, 0x5F5])
    loss_trace, sfc_trace = [], [] if config.mode == "shortcut_aware" else None
    epoch_stats = []

    for epoch in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        sfc_sum = np.zeros(2)  # planted, clean
        sfc_count = np.zeros(2, dtype=np.int64)
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            b_c, b_r = x_c[idx], x_r[idx]
            if config.mode == "shortcut_aware":
                batch, g_primary, g_aux = weighted_grad_step(
                    primary, aux, b_c, b_r, xt_c[idx], xt_r[idx])
                batch_loss = batch.loss_mm
                adamw_step(opt, primary, g_primary)
                adamw_step(aux_opt, aux, g_aux)
                sfc_trace.append(float(np.mean(batch.sfc)))
                planted = flags[idx]
                sfc_sum += [batch.sfc[planted].sum(), batch.sfc[~planted].sum()]
                sfc_count += [int(planted.sum()), int((~planted).sum())]
            else:
                batch_loss, grad = batch_pair_grads(
                    primary, b_c, b_r, branch_forward(primary, b_c, b_r), ones[:len(idx)])
                adamw_step(opt, primary, grad)
            loss_trace.append(float(np.mean(batch_loss)))
        if config.mode == "shortcut_aware":
            epoch_stats.append(EpochSfcStats(
                epoch=epoch,
                mean_sfc_planted=float(sfc_sum[0] / sfc_count[0]) if sfc_count[0] else None,
                mean_sfc_clean=float(sfc_sum[1] / sfc_count[1]) if sfc_count[1] else None,
                n_planted=int(sfc_count[0]),
                n_clean=int(sfc_count[1]),
            ))

    return TrainRun(config=config, dataset_fingerprint=dataset.fingerprint,
                    loss_trace=loss_trace, sfc_trace=sfc_trace,
                    primary=primary, aux=aux, epoch_sfc_stats=epoch_stats)


def mean_sfc_over(primary: RewardNet, aux: RewardNet, dataset) -> float:
    """Mean end-state sfc of a dataset under a trained branch pair."""
    x_c, x_r = _stack_pairs(dataset, mask_vision=False)
    xt_c, xt_r = _stack_pairs(dataset, mask_vision=True)
    loss_mm = np.maximum(batch_losses(primary, x_c, x_r), LOSS_FLOOR)
    loss_t = np.maximum(batch_losses(aux, xt_c, xt_r), LOSS_FLOOR)
    return float(np.mean(sfc(loss_mm, loss_t)))
