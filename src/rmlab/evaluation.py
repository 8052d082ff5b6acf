"""Evaluation machinery: pairwise accuracy, cross-distribution generalization
matrices and the shortcut-failure degradation metric.

Accuracy uses the strict comparison reward(chosen) > reward(rejected); ties
count as incorrect. This matters for degenerate scorers (an all-zero net ties
every pair and scores 0), and the same convention assigns text-only ties to
the fail side of a shortcut split.
"""

from __future__ import annotations

import numpy as np

from .net import RewardNet, branch_forward, pair_margins
from .training import TEXT_ROWS, _stack_pairs


def _correct(nets, dataset, text_rows) -> np.ndarray:
    """A (k, n) array: whether ``nets[j]`` scores pair i's chosen answer
    strictly above the other on row j of ``_stack_pairs(dataset, text_rows)``.
    The nets, of equal dims, run as one stack on training's forward pass; for
    doubles, c - r > 0 holds exactly when c > r."""
    dims, theta = nets[0].dims, np.stack([net.theta for net in nets])
    x = _stack_pairs(dataset, text_rows)
    return pair_margins(dims, theta, branch_forward(dims, theta, x)) > 0


def accuracy(net: RewardNet, dataset, mask_vision: bool = False) -> float:
    """Fraction of pairs where the chosen answer strictly outscores the other."""
    return float(np.mean(_correct((net,), dataset, (mask_vision,))))


def gen_matrix(mode: str, nets: dict, test_sets: dict, env_order) -> dict:
    """Every trained net's accuracy on every environment's test split, as
    ``{"mode", "envs", "acc", "mean_diagonal", "mean_off_diagonal"}``;
    ``acc[i][j]`` is the ``envs[i]``-trained net on the ``envs[j]`` split."""
    envs = list(env_order)
    mask = TEXT_ROWS[mode][0]  # the mode's primary row
    acc = [[accuracy(nets[train_env], test_sets[test_env], mask_vision=mask)
            for test_env in envs] for train_env in envs]
    k = range(len(envs))
    return {"mode": mode, "envs": envs, "acc": acc,
            "mean_diagonal": float(np.mean([acc[i][i] for i in k])),
            "mean_off_diagonal": float(np.mean([acc[i][j] for i in k for j in k if i != j]))}


def sfd_report(mm_net, text_net, test_set, *, train_env="", mode="") -> dict:
    """Split the test set by whether the paired text proxy classifies a pair
    correctly (ties fail), then take the net's accuracy gap between the sides.

    The net and the proxy score the set as one two-row stack, the
    ``shortcut_aware`` layout. Returns one cell of ``sfd_<mode>.json``; a
    split with an empty side gives None accuracies and sfd, so batch harnesses
    can keep going.
    """
    correct, success = _correct((mm_net, text_net), test_set, TEXT_ROWS["shortcut_aware"])
    n_success = int(success.sum())
    n_fail = len(test_set) - n_success
    acc_s = acc_f = gap = None
    if n_success and n_fail:
        acc_s = float(np.mean(correct[success]))
        acc_f = float(np.mean(correct[~success]))
        gap = acc_s - acc_f
    return {"train_env": train_env, "test_env": test_set.env_id, "mode": mode,
            "n_success": n_success, "n_fail": n_fail,
            "acc_on_success": acc_s, "acc_on_fail": acc_f, "sfd": gap}

