"""Reference implementations and helpers that only the tests use.

- ``zero_net``, ``copy_net`` and ``batch_losses``: an all-zero net, a
  detached copy of a net, and per-pair losses on training's forward pass.
- ``net_accuracy``: one net's pairwise accuracy on a dataset, through
  evaluation's per-pair outcomes.
- ``fd_check``: the training gradient against central finite differences.
- ``bon_exhaustive``: best-of-N by enumerating every N-subset (small pools).
- ``bon_mc_check``: best-of-N by Monte Carlo over uniform N-subsets.
- ``mean_sfc_over`` and ``sfc_rho_diagnostic``: end-of-training sfc per
  environment, and whether it orders the environments by beta.

Every best-of-N path breaks an argmax tie toward the lowest candidate index,
the rule ``rmlab.bestofn.bon_estimates`` sorts by, so their agreement is
exact. The net functions are looked up on ``rmlab.net`` at call time, so a
test that patches one there reaches ``fd_check`` too.
"""

from itertools import combinations
from math import comb

import numpy as np

from rmlab import net as netmod
from rmlab.errors import ConfigError, DimensionError
from rmlab.evaluation import accuracy, outcomes
from rmlab.training import LOSS_FLOOR, _stack_pairs, sfc

EXHAUSTIVE_MAX_M = 20


def zero_net(dims):
    """A net whose every parameter is zero: it scores every answer 0."""
    return netmod.RewardNet(dims, np.zeros(dims.n_params))


def copy_net(net):
    """A net with the same dims and parameters that shares no memory."""
    return netmod.RewardNet(net.dims, net.theta.copy())


def net_accuracy(net, dataset, mask_vision: bool = False) -> float:
    """Fraction of pairs where the net's chosen answer strictly outscores the
    other, on the text branch's inputs (vision masked) if ``mask_vision``."""
    return accuracy(outcomes((net,), (mask_vision,), dataset)[0])


def batch_losses(network, pairs: np.ndarray) -> np.ndarray:
    """Per-sample pairwise losses for a (b, 2, input_dim) batch of feature rows,
    on training's forward pass as a stack of one net."""
    theta, pairs = network.theta[None], pairs[None]
    h = netmod.branch_forward(network.dims, theta, pairs)
    return netmod.bt_loss(netmod.pair_margins(network.dims, theta, h))[0]


def fd_check(net, sample, mask_vision: bool, label: int = 1,
             step: float = 1e-6) -> float:
    """Max relative error of the training gradient (``batch_pair_grads`` on a
    batch of one) against central finite differences of ``batch_losses``.
    With ``mask_vision`` the vision block is zero, as for a text branch in
    training.

    Errors are scaled by the largest gradient magnitude present so that
    near-zero entries do not blow up the ratio.
    """
    if label not in (1, -1):
        raise DimensionError(f"label must be +1 or -1, got {label}")
    v = np.zeros_like(sample.v) if mask_vision else sample.v
    chosen, rejected = (sample.a1, sample.a2) if label == 1 else (sample.a2, sample.a1)
    pairs = np.stack([np.concatenate([v, sample.q, a]) for a in (chosen, rejected)])[None]
    theta, stack = net.theta[None], pairs[None]
    _, grad = netmod.batch_pair_grads(net.dims, theta, stack,
                                      netmod.branch_forward(net.dims, theta, stack),
                                      np.ones((1, 1)))
    grad = grad[0]
    work = copy_net(net)
    fd = np.empty_like(grad)
    for i in range(fd.size):
        orig = work.theta[i]
        work.theta[i] = orig + step
        up = batch_losses(work, pairs)[0]
        work.theta[i] = orig - step
        down = batch_losses(work, pairs)[0]
        work.theta[i] = orig
        fd[i] = (up - down) / (2.0 * step)
    scale = max(np.max(np.abs(grad)), np.max(np.abs(fd)), 1e-8)
    return float(np.max(np.abs(grad - fd))) / scale


def _winner(rewards: np.ndarray, subset) -> int:
    """Argmax index within the subset; ties go to the lowest candidate index."""
    best = subset[0]
    for i in subset[1:]:
        if rewards[i] > rewards[best]:
            best = i
    return best


def bon_exhaustive(rewards: np.ndarray, judges: np.ndarray, n: int) -> float:
    """Enumerate every N-subset; guard rails keep this to small pools."""
    m = len(rewards)
    if not 1 <= n <= m:
        raise ConfigError(f"need 1 <= N <= M, got N={n}, M={m}")
    if m > EXHAUSTIVE_MAX_M:
        raise ConfigError(f"M={m} exceeds the enumeration guard; use bon_fast")
    total = 0.0
    for subset in combinations(range(m), n):
        total += judges[_winner(rewards, subset)]
    return total / comb(m, n)


def bon_mc_check(rewards: np.ndarray, judges: np.ndarray, n: int,
                 draws: int, seed: int = 0):
    """Monte Carlo estimate and standard error over uniform N-subsets."""
    if draws < 1:
        raise ConfigError("draws must be >= 1")
    m = len(rewards)
    if not 1 <= n <= m:
        raise ConfigError(f"need 1 <= N <= M, got N={n}, M={m}")
    rng = np.random.default_rng([seed, 0x3C])
    # A uniform random N-subset is the first N entries of a random permutation.
    keys = rng.random((draws, m))
    subsets = np.argpartition(keys, n - 1, axis=1)[:, :n]
    sub_rewards = rewards[subsets]
    best_pos = sub_rewards.argmax(axis=1)
    # argmax returns the first maximum in array order, which is not the
    # lowest candidate index; resolve ties explicitly.
    best_val = sub_rewards[np.arange(draws), best_pos]
    tied = sub_rewards == best_val[:, None]
    winner_idx = np.where(tied, subsets, m + 1).min(axis=1)
    scores = judges[winner_idx]
    est = float(scores.mean())
    stderr = float(scores.std(ddof=1) / np.sqrt(draws)) if draws > 1 else float("inf")
    return est, stderr


def mean_sfc_over(primary, aux, dataset) -> float:
    """Mean end-state sfc of a dataset under a trained branch pair."""
    mm_pairs, text_pairs = _stack_pairs(dataset, (False, True))
    loss_mm = np.maximum(batch_losses(primary, mm_pairs), LOSS_FLOOR)
    loss_t = np.maximum(batch_losses(aux, text_pairs), LOSS_FLOOR)
    return float(np.mean(sfc(loss_mm, loss_t)))


def sfc_rho_diagnostic(specs_by_env: dict, runs_by_env: dict, train_sets: dict) -> dict:
    """Check that environments whose shortcut explains less get higher sfc.

    Every run is a ``shortcut_aware`` one, so it has an auxiliary branch.
    Returns ``{"rows", "skipped", "ordered"}``: per environment a row
    ``{"env_id", "beta", "rho_proxy" (1 - beta), "mean_sfc" (end of
    training)}``; ``ordered`` is whether lower beta gives strictly higher mean
    sfc, and None (skipped) with fewer than two distinct beta values.
    """
    rows = [{"env_id": env_id, "beta": specs_by_env[env_id].beta,
             "rho_proxy": 1.0 - specs_by_env[env_id].beta,
             "mean_sfc": mean_sfc_over(run.primary, run.aux, train_sets[env_id])}
            for env_id, run in sorted(runs_by_env.items())]
    if len({r["beta"] for r in rows}) < 2:
        return {"rows": rows, "skipped": True, "ordered": None}
    by_beta = sorted(rows, key=lambda r: r["beta"])
    ordered = all(by_beta[i]["mean_sfc"] > by_beta[i + 1]["mean_sfc"]
                  for i in range(len(by_beta) - 1))
    return {"rows": rows, "skipped": False, "ordered": ordered}
