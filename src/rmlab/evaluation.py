"""Evaluation machinery: pairwise accuracy, cross-distribution generalization
matrices, shortcut splits and the shortcut-failure degradation metric, score
correlations, length-balanced subsets, and the sfc ordering diagnostic.

Accuracy uses the strict comparison reward(chosen) > reward(rejected); ties
count as incorrect. This matters for degenerate scorers (an all-zero net ties
every pair and scores 0), and the same convention assigns text-only ties to
the fail side of a shortcut split.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import net as netmod
from .envs import LENGTH_COORD
from .errors import DegenerateSplitError, MissingArtifactError
from .net import RewardNet
from .training import _stack_pairs, mean_sfc_over


def _pair_scores(scorer, dataset, mask_vision: bool):
    """(chosen, rejected) score arrays under a net or any (v, q, a) callable."""
    if isinstance(scorer, RewardNet):
        x_c, x_r = _stack_pairs(dataset, mask_vision=mask_vision)
        return netmod.batch_scores(scorer, x_c), netmod.batch_scores(scorer, x_r)
    chosen = np.empty(len(dataset))
    rejected = np.empty_like(chosen)
    for i, s in enumerate(dataset.samples):
        v = np.zeros_like(s.v) if mask_vision else s.v
        a_c, a_r = (s.a1, s.a2) if s.y == 1 else (s.a2, s.a1)
        chosen[i] = scorer(v, s.q, a_c)
        rejected[i] = scorer(v, s.q, a_r)
    return chosen, rejected


def accuracy(scorer, dataset, mask_vision: bool = False) -> float:
    """Fraction of pairs where the chosen answer strictly outscores the other."""
    if len(dataset) == 0:
        raise MissingArtifactError("accuracy needs a nonempty dataset")
    chosen, rejected = _pair_scores(scorer, dataset, mask_vision)
    return float(np.mean(chosen > rejected))


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

    def cell(self, train_env: str, test_env: str) -> float:
        return self.acc[self.envs.index(train_env)][self.envs.index(test_env)]

    def to_dict(self) -> dict:
        return {"mode": self.mode, "envs": self.envs, "acc": self.acc,
                "mean_diagonal": self.mean_diagonal,
                "mean_off_diagonal": self.mean_off_diagonal}

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["train_env"] + list(self.envs))
            for env, row in zip(self.envs, self.acc):
                writer.writerow([env] + [repr(x) for x in row])


def gen_matrix(mode: str, nets: dict, test_sets: dict, env_order=None) -> GenMatrix:
    """Evaluate every trained net on every environment's test split."""
    envs = list(env_order) if env_order else sorted(nets)
    for env in envs:
        if env not in nets:
            raise MissingArtifactError(f"no trained model for env {env!r}")
        if env not in test_sets:
            raise MissingArtifactError(f"no test set for env {env!r}")
    mask = mode == "text_only"
    acc = [[accuracy(nets[train_env], test_sets[test_env], mask_vision=mask)
            for test_env in envs] for train_env in envs]
    return GenMatrix(mode=mode, envs=envs, acc=acc)


def shortcut_split(text_net, test_set):
    """Partition a test set by whether the text-only proxy classifies it.

    Returns (success_indices, fail_indices); ties go to the fail side.
    """
    chosen, rejected = _pair_scores(text_net, test_set, mask_vision=True)
    correct = chosen > rejected
    idx = np.arange(len(test_set))
    return idx[correct].tolist(), idx[~correct].tolist()


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


def sfd(mm_net, test_set, success_idx, fail_idx, *, train_env="", mode="") -> SFDReport:
    """Shortcut-failure degradation of a net over a precomputed split."""
    if not success_idx or not fail_idx:
        raise DegenerateSplitError(
            f"split is degenerate (success={len(success_idx)}, fail={len(fail_idx)})")
    acc_s = accuracy(mm_net, test_set.take(success_idx))
    acc_f = accuracy(mm_net, test_set.take(fail_idx))
    return SFDReport(train_env=train_env, test_env=test_set.env_id, mode=mode,
                     n_success=len(success_idx), n_fail=len(fail_idx),
                     acc_on_success=acc_s, acc_on_fail=acc_f, sfd=acc_s - acc_f)


def sfd_report(mm_net, text_net, test_set, *, train_env="", mode="") -> SFDReport:
    """Split with the paired text proxy, then measure the degradation.

    A degenerate split yields a report with missing accuracy values rather
    than an exception, so batch harnesses can keep going.
    """
    success_idx, fail_idx = shortcut_split(text_net, test_set)
    try:
        return sfd(mm_net, test_set, success_idx, fail_idx,
                   train_env=train_env, mode=mode)
    except DegenerateSplitError:
        return SFDReport(train_env=train_env, test_env=test_set.env_id, mode=mode,
                         n_success=len(success_idx), n_fail=len(fail_idx),
                         acc_on_success=None, acc_on_fail=None, sfd=None)


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    x = x - x.mean()
    y = y - y.mean()
    denom = np.sqrt((x * x).sum() * (y * y).sum())
    if denom == 0.0:
        return None
    return float((x * y).sum() / denom)


@dataclass
class BiasDiag:
    """Correlation between a net's scores and its text-only proxy's scores."""

    response_r: float | None  # over individual answer scores (2 per pair)
    margin_r: float | None  # over per-pair score margins

    def to_dict(self) -> dict:
        return vars(self).copy()


def score_correlation(mm_net, text_net, test_set) -> BiasDiag:
    """Pearson correlations of per-response scores and per-pair margins."""
    if len(test_set) == 0:
        raise MissingArtifactError("score_correlation needs a nonempty test set")
    mm_c, mm_r = _pair_scores(mm_net, test_set, mask_vision=False)
    t_c, t_r = _pair_scores(text_net, test_set, mask_vision=True)
    response_r = _pearson(np.concatenate([mm_c, mm_r]), np.concatenate([t_c, t_r]))
    margin_r = _pearson(mm_c - mm_r, t_c - t_r)
    return BiasDiag(response_r=response_r, margin_r=margin_r)


def length_balanced_subset(test_set, seed: int = 0):
    """Downsample so chosen-longer and rejected-longer pair counts are equal.

    Equal-length pairs are kept. An already balanced set comes back unchanged.
    """
    from .errors import BalanceError

    first_chosen = test_set.y == 1
    len1, len2 = test_set.a1[:, LENGTH_COORD], test_set.a2[:, LENGTH_COORD]
    chosen = np.where(first_chosen, len1, len2)
    rejected = np.where(first_chosen, len2, len1)
    longer = np.flatnonzero(chosen > rejected).tolist()
    shorter = np.flatnonzero(chosen < rejected).tolist()
    ties = np.flatnonzero(chosen == rejected).tolist()
    if not longer or not shorter:
        raise BalanceError(
            f"cannot balance: chosen-longer={len(longer)}, rejected-longer={len(shorter)}")
    k = min(len(longer), len(shorter))
    rng = np.random.default_rng([seed, 0xBA1])
    keep = set(ties)
    for side in (longer, shorter):
        if len(side) > k:
            chosen_idx = rng.permutation(len(side))[:k]
            keep.update(side[i] for i in chosen_idx)
        else:
            keep.update(side)
    return test_set.take(sorted(keep))


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

    Needs at least two distinct beta values; otherwise the diagnostic is
    skipped with a notice in the result.
    """
    rows = []
    for env_id, run in sorted(runs_by_env.items()):
        if run.aux is None:
            raise MissingArtifactError(f"run for {env_id!r} has no auxiliary branch")
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
