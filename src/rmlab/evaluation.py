"""Evaluation machinery: pairwise accuracy, cross-distribution generalization
matrices, the shortcut-failure degradation metric, and the sfc ordering
diagnostic.

Accuracy uses the strict comparison reward(chosen) > reward(rejected); ties
count as incorrect. This matters for degenerate scorers (an all-zero net ties
every pair and scores 0), and the same convention assigns text-only ties to
the fail side of a shortcut split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import net as netmod
from .net import RewardNet
from .training import _stack_pairs, mean_sfc_over


def _pair_scores(net: RewardNet, dataset, mask_vision: bool):
    """(chosen, rejected) score arrays of a net over a whole dataset."""
    x_c, x_r = _stack_pairs(dataset, mask_vision=mask_vision)
    return netmod.batch_scores(net, x_c), netmod.batch_scores(net, x_r)


def _correct(net: RewardNet, dataset, mask_vision: bool) -> np.ndarray:
    """Per pair, whether the chosen answer strictly outscores the other."""
    chosen, rejected = _pair_scores(net, dataset, mask_vision)
    return chosen > rejected


def accuracy(net: RewardNet, dataset, mask_vision: bool = False) -> float:
    """Fraction of pairs where the chosen answer strictly outscores the other."""
    return float(np.mean(_correct(net, dataset, mask_vision)))


@dataclass
class GenMatrix:
    """Cross-distribution accuracies: rows train envs, columns test envs."""

    mode: str
    envs: list
    acc: list  # acc[i][j] = accuracy of envs[i]-trained model on envs[j] test

    @property
    def mean_diagonal(self) -> float:
        return float(np.mean([self.acc[i][i] for i in range(len(self.envs))]))

    @property
    def mean_off_diagonal(self) -> float:
        vals = [self.acc[i][j]
                for i in range(len(self.envs)) for j in range(len(self.envs)) if i != j]
        return float(np.mean(vals))

    def to_dict(self) -> dict:
        return {"mode": self.mode, "envs": self.envs, "acc": self.acc,
                "mean_diagonal": self.mean_diagonal,
                "mean_off_diagonal": self.mean_off_diagonal}

    def csv_rows(self) -> list:
        """A header row of test envs, then one row of reprs per train env."""
        return [["train_env"] + list(self.envs)] + [
            [env] + [repr(x) for x in row] for env, row in zip(self.envs, self.acc)]


def gen_matrix(mode: str, nets: dict, test_sets: dict, env_order) -> GenMatrix:
    """Evaluate every trained net on every environment's test split."""
    envs = list(env_order)
    mask = mode == "text_only"
    acc = [[accuracy(nets[train_env], test_sets[test_env], mask_vision=mask)
            for test_env in envs] for train_env in envs]
    return GenMatrix(mode=mode, envs=envs, acc=acc)


@dataclass
class SFDReport:
    """Accuracy gap between the shortcut-success and shortcut-fail subsets."""

    train_env: str
    test_env: str
    mode: str
    n_success: int
    n_fail: int
    acc_on_success: float | None
    acc_on_fail: float | None
    sfd: float | None

    def to_dict(self) -> dict:
        return vars(self).copy()


def sfd_report(mm_net, text_net, test_set, *, train_env="", mode="") -> SFDReport:
    """Split the test set by whether the paired text proxy classifies a pair
    correctly (ties fail), then take the net's accuracy gap between the sides.

    Each net scores the set once. A split with an empty side yields a report
    with missing accuracy values, so batch harnesses can keep going.
    """
    success = _correct(text_net, test_set, mask_vision=True)
    correct = _correct(mm_net, test_set, mask_vision=False)
    n_success = int(success.sum())
    n_fail = len(test_set) - n_success
    acc_s = acc_f = gap = None
    if n_success and n_fail:
        acc_s = float(np.mean(correct[success]))
        acc_f = float(np.mean(correct[~success]))
        gap = acc_s - acc_f
    return SFDReport(train_env=train_env, test_env=test_set.env_id, mode=mode,
                     n_success=n_success, n_fail=n_fail,
                     acc_on_success=acc_s, acc_on_fail=acc_f, sfd=gap)


@dataclass
class SfcOrderingRow:
    env_id: str
    beta: float
    rho_proxy: float  # 1 - beta: how much of the label the shortcut leaves unexplained
    mean_sfc: float


@dataclass
class SfcOrderingDiag:
    """End-of-training mean sfc per environment, checked against 1 - beta."""

    rows: list
    skipped: bool
    ordered: bool | None  # lower beta gives strictly higher mean sfc

    def to_dict(self) -> dict:
        return {"rows": [vars(r) for r in self.rows],
                "skipped": self.skipped, "ordered": self.ordered}


def sfc_rho_diagnostic(specs_by_env: dict, runs_by_env: dict, train_sets: dict) -> SfcOrderingDiag:
    """Check that environments whose shortcut explains less get higher sfc.

    Every run is a ``shortcut_aware`` one, so it has an auxiliary branch.
    Needs at least two distinct beta values; otherwise the diagnostic is
    skipped with a notice in the result.
    """
    rows = []
    for env_id, run in sorted(runs_by_env.items()):
        spec = specs_by_env[env_id]
        rows.append(SfcOrderingRow(
            env_id=env_id, beta=spec.beta, rho_proxy=1.0 - spec.beta,
            mean_sfc=mean_sfc_over(run.primary, run.aux, train_sets[env_id])))
    if len({r.beta for r in rows}) < 2:
        return SfcOrderingDiag(rows=rows, skipped=True, ordered=None)
    by_beta = sorted(rows, key=lambda r: r.beta)
    ordered = all(by_beta[i].mean_sfc > by_beta[i + 1].mean_sfc
                  for i in range(len(by_beta) - 1))
    return SfcOrderingDiag(rows=rows, skipped=False, ordered=ordered)
