"""Evaluation machinery: pairwise accuracy, cross-distribution generalization
matrices and the shortcut-failure degradation metric.

Accuracy uses the strict comparison reward(chosen) > reward(rejected); ties
count as incorrect. This matters for degenerate scorers (an all-zero net ties
every pair and scores 0), and the same convention assigns text-only ties to
the fail side of a shortcut split.
"""

from __future__ import annotations

import numpy as np

from .net import branch_forward, pair_margins
from .training import _stack_pairs


def outcomes(nets, text_rows, dataset) -> list:
    """Per net, an (n,) bool array: whether ``nets[j]``, on the text branch's
    inputs if ``text_rows[j]``, ranks pair i's chosen answer strictly above the
    other (c - r > 0). The split is stacked once; each net is scored alone."""
    x = _stack_pairs(dataset, (False, True))
    correct = []
    for net, text in zip(nets, text_rows):
        h = branch_forward(net.dims, net.theta[None], x[int(text)][None])
        correct.append(pair_margins(net.dims, net.theta[None], h)[0] > 0)
    return correct


def accuracy(correct) -> float:
    """Fraction of pairs where the chosen answer strictly outscores the other."""
    return float(np.mean(correct))


def gen_matrix(mode: str, correct: dict, env_order) -> dict:
    """Every trained net's accuracy on every test split, from its outcomes
    ``correct[train_env, test_env]``, as ``{"mode", "envs", "acc", "mean_diagonal",
    "mean_off_diagonal"}``; ``acc[i][j]`` is the ``envs[i]`` net on ``envs[j]``."""
    envs = list(env_order)
    acc = [[accuracy(correct[train_env, test_env]) for test_env in envs]
           for train_env in envs]
    k = range(len(envs))
    return {"mode": mode, "envs": envs, "acc": acc,
            "mean_diagonal": float(np.mean([acc[i][i] for i in k])),
            "mean_off_diagonal": float(np.mean([acc[i][j] for i in k for j in k if i != j]))}


def sfd_report(correct, success, *, train_env="", test_env="", mode="") -> dict:
    """Split a test set by ``success``, the paired text proxy's outcomes (ties
    fail), then take the gap in the audited net's accuracy, from its outcomes
    ``correct``, between the sides. Returns one cell of ``sfd_<mode>.json``; a
    split with an empty side gives None accuracies and sfd, so batch harnesses
    can keep going."""
    n_success = int(success.sum())
    n_fail = len(success) - n_success
    acc_s = acc_f = gap = None
    if n_success and n_fail:
        acc_s = float(np.mean(correct[success]))
        acc_f = float(np.mean(correct[~success]))
        gap = acc_s - acc_f
    return {"train_env": train_env, "test_env": test_env, "mode": mode,
            "n_success": n_success, "n_fail": n_fail,
            "acc_on_success": acc_s, "acc_on_fail": acc_f, "sfd": gap}
