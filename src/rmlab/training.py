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
samples where multimodal grounding is required. ``TrainRun`` alone writes
and reads a run's ``run.json``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .envs import D_A, D_Q, D_V
from .errors import ConfigError, LabError
from .net import (NetDims, OptimizerState, RewardNet, adamw_step, batch_pair_grads,
                  branch_forward, bt_loss, pair_margins)

LOSS_FLOOR = 1e-300  # keeps the sfc ratio defined if a margin saturates
# each mode's rows of theta, True for a text branch: shortcut_aware's aux is row 1
TEXT_ROWS = {"standard": (False,), "text_only": (True,), "shortcut_aware": (False, True)}


@dataclass
class TrainRun:
    """Configuration plus the persisted outcome of one training job."""

    config: TrainConfig
    loss_trace: list
    sfc_trace: list | None
    primary: RewardNet
    aux: RewardNet | None = None
    # per shortcut_aware epoch {"epoch", "mean_sfc_planted", "mean_sfc_clean",
    # "n_planted", "n_clean"}: mean sfc by planted flag, None on an empty side
    epoch_sfc_stats: list = field(default_factory=list)

    def save(self, path) -> None:
        """Write the run as JSON text at ``path``: its config's fields, and each
        net as one list per ``NetDims.views`` block (floats round-trip through
        JSON repr bit-exactly). ``cli._replace_file`` gives it a temp name."""
        def blocks(net):
            return None if net is None else {
                name: block.ravel().tolist() for name, block in net.dims.views(net.theta).items()}

        # one dumps string: json.dump would stream through the pure-Python
        # encoder, for the same bytes
        text = json.dumps({"config": self.config._asdict(),
                           "loss_trace": self.loss_trace, "sfc_trace": self.sfc_trace,
                           "primary": blocks(self.primary), "aux": blocks(self.aux),
                           "epoch_sfc_stats": self.epoch_sfc_stats}, sort_keys=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    @classmethod
    def load(cls, path) -> "TrainRun":
        """Inverse of save: the run in the ``run.json`` at ``path``, each net's
        dims from its config and each block filling its view of a fresh theta.
        A file that is not a whole run, or whose nets do not fit that config,
        raises LabError. Keys save does not write are ignored, so a run from an
        older version (an ``sfc_normalized`` setting, a ``dataset_fingerprint``,
        each net's ``dims``, ``seed`` and zero ``b2``) still loads."""
        def net(blocks):
            theta = np.empty(dims.n_params)
            for name, block in dims.views(theta).items():
                block[...] = np.reshape(blocks[name], block.shape)
            return RewardNet(dims, theta)

        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            settings = doc["config"]
            config = TrainConfig(**{name: settings[name] for name in TrainConfig._fields
                                    if name in settings})
            dims = net_dims(config)
            return cls(config=config, loss_trace=doc["loss_trace"], sfc_trace=doc["sfc_trace"],
                       primary=net(doc["primary"]),
                       aux=None if doc["aux"] is None else net(doc["aux"]),
                       epoch_sfc_stats=doc["epoch_sfc_stats"])
        except (ValueError, KeyError, TypeError, RecursionError, ConfigError) as exc:
            # the exception's type, not its message: a message can echo file content
            raise LabError(f"{path} is not a valid run file ({type(exc).__name__})") from None


def net_dims(config: TrainConfig) -> NetDims:
    """The dims of a lab net trained under ``config``: the feature widths of
    every dataset the lab writes (``envs.D_V``, ``D_Q``, ``D_A``) and the
    config's hidden width."""
    return NetDims(D_V, D_Q, D_A, config.hidden)


def sfc(loss_mm, loss_t):
    """Shortcut-failure coefficient: the text branch's share of the total loss,
    elementwise over scalars or arrays of per-sample losses.

    Both losses are treated as detached constants; the result is in (0, 1),
    decreasing in loss_mm and increasing in loss_t.
    """
    if np.less_equal(loss_mm, 0.0).any() or np.less_equal(loss_t, 0.0).any():
        raise ValueError(f"sfc needs strictly positive losses, got ({loss_mm}, {loss_t})")
    return loss_t / (loss_mm + loss_t)


def _stack_pairs(dataset, text_rows) -> np.ndarray:
    """The (k, n, 2, input_dim) inputs of k stacked nets over a whole dataset,
    a row per ``text_rows`` flag: ``[j, :, 0]`` the chosen answer's features,
    ``[j, :, 1]`` the rejected one's. A flagged row is a text branch's, with
    a +0.0 vision block; no other code masks vision."""
    d_v, d_q = dataset.v.shape[1], dataset.q.shape[1]
    x = np.empty((len(text_rows), len(dataset), 2, d_v + d_q + dataset.a1.shape[1]))
    x[..., :d_v] = dataset.v[:, None]
    x[list(text_rows), ..., :d_v] = 0.0  # a list of bools indexes as a row mask
    x[..., d_v:d_v + d_q] = dataset.q[:, None]
    first_chosen = (dataset.y == 1)[:, None]
    x[:, :, 0, d_v + d_q:] = np.where(first_chosen, dataset.a1, dataset.a2)
    x[:, :, 1, d_v + d_q:] = np.where(first_chosen, dataset.a2, dataset.a1)
    return x


@dataclass
class SfcBatch:
    """Exact per-sample quantities used by one shortcut-aware batch step,
    one array entry per sample, and the batch-mean sfc."""

    loss_mm: np.ndarray
    loss_t: np.ndarray
    sfc: np.ndarray
    weight: np.ndarray
    mean_sfc: float


def weighted_grad_step(dims: NetDims, theta: np.ndarray, pairs: np.ndarray):
    """One training step of any job: the gradients of its (k, n_params)
    ``theta`` on its (k, b, 2, input_dim) batch, row j net j's feature rows
    as ``_stack_pairs`` lays them out (a text branch's with a zero vision
    block).

    All rows share one forward pass and one ``batch_pair_grads`` call at
    (k, b) weights: ones, except a shortcut-aware job's (k = 2) primary row
    0, which is its per-sample sfc (from the floored ``pair_margins`` losses,
    the text branch in row 1) over the batch-mean sfc, so it averages 1.

    Returns (losses, SfcBatch, grads): the per-sample losses the loss trace
    averages (``bt_loss`` of ``batch_pair_grads``' margins for one net, the
    primary's sfc loss for two), the SfcBatch (None for one net), and the
    (k, n_params) gradients.
    """
    h = branch_forward(dims, theta, pairs)
    weights = np.ones(pairs.shape[:2])
    batch = None
    if len(theta) == 2:
        loss_mm, loss_t = np.maximum(bt_loss(pair_margins(dims, theta, h)), LOSS_FLOOR)
        sfc_vals = sfc(loss_mm, loss_t)
        mean_sfc = sfc_vals.sum() / sfc_vals.size  # np.mean's bits, less overhead
        np.divide(sfc_vals, mean_sfc, out=weights[0])
        batch = SfcBatch(loss_mm, loss_t, sfc_vals, weights[0], float(mean_sfc))
    margins, grads = batch_pair_grads(dims, theta, pairs, h, weights)
    return (bt_loss(margins[0]) if batch is None else batch.loss_mm), batch, grads


def train(config: TrainConfig, dataset) -> TrainRun:
    """Run one training job over the dataset and return its artifacts."""
    n = len(dataset)
    dims = net_dims(config)

    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = steps_per_epoch * config.epochs
    dual = config.mode == "shortcut_aware"

    # The nets start bit-identical as the rows of one theta that a single
    # AdamW update steps. The text branch runs at a scaled lr: if both branches
    # learn the planted text pattern at the same rate, their losses track each
    # other and every sfc sits at ~0.5; the proxy has to stay ahead on
    # text-learnable samples for the coefficient to discriminate at this scale.
    base_lrs = ((config.base_lr, config.base_lr * config.aux_lr_scale) if dual
                else (config.base_lr,))
    theta = np.stack([RewardNet.init(dims, config.seed).theta] * len(base_lrs))
    nets = [RewardNet(dims, row) for row in theta]
    primary, aux = nets[0], nets[1] if dual else None
    opt = OptimizerState(theta, base_lrs, config.warmup_ratio, total_steps,
                         config.weight_decay)

    x = _stack_pairs(dataset, TEXT_ROWS[config.mode])
    flags = dataset.planted
    n_planted = int(np.count_nonzero(flags))  # every epoch visits every pair once
    n_clean = n - n_planted

    shuffle_rng = np.random.default_rng([config.seed, 0x5F5])
    loss_trace, sfc_trace = [], [] if dual else None
    epoch_stats = []

    for epoch in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        sum_planted = sum_clean = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            losses, batch, grads = weighted_grad_step(dims, theta, x.take(idx, axis=1))
            if dual:
                sfc_trace.append(batch.mean_sfc)
                planted = flags.take(idx)
                sum_planted += batch.sfc[planted].sum()
                sum_clean += batch.sfc[~planted].sum()
            adamw_step(opt, theta, grads)
            loss_trace.append(float(losses.sum() / losses.size))
        if dual:
            epoch_stats.append({
                "epoch": epoch,
                "mean_sfc_planted": float(sum_planted / n_planted) if n_planted else None,
                "mean_sfc_clean": float(sum_clean / n_clean) if n_clean else None,
                "n_planted": n_planted,
                "n_clean": n_clean,
            })

    return TrainRun(config=config, loss_trace=loss_trace, sfc_trace=sfc_trace,
                    primary=primary, aux=aux, epoch_sfc_stats=epoch_stats)
