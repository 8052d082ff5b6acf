"""Best-of-N selection curves with an exact estimator.

For a fixed pool of M scored candidates, the expected judge score of
best-of-N selection over a uniformly random N-subset is

    (1 / C(M, N)) * sum over all N-subsets of judge(argmax reward in subset)

computed by enumeration (small M) and in closed form. Sorting candidates so
that rank i (ascending, 1-based) beats every lower rank, the rank-i candidate
wins a random subset with probability C(i-1, N-1) / C(M, N). Argmax ties break
toward the lowest candidate index, so the sort places equal rewards in
descending index order; both paths and the Monte Carlo check share that rule,
which makes their agreement exact. The closed form sorts a pool once for a
whole N grid and adds the weighted judge scores in rank order by a sequential
cumsum (np.sum is pairwise and rounds differently); the leading zero-weight
ranks add only +-0.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from . import net as netmod
from .envs import D_A, D_Q, D_V
from .errors import ConfigError

EXHAUSTIVE_MAX_M = 20
JUDGE_MID = 5.0
JUDGE_SLOPE = 1.25  # maps +-4 sd of the quality signal onto [0, 10]
JUDGE_SIGMA = 0.1


@dataclass
class CandidatePool:
    """One query context with M candidate answers, judge-scored."""

    pool_id: int
    v: np.ndarray
    q: np.ndarray
    answers: np.ndarray  # (M, d_a)
    judge_scores: np.ndarray  # (M,)
    rewards: dict = field(default_factory=dict)  # net name -> (M,) scores

    @property
    def size(self) -> int:
        return self.answers.shape[0]


def simulated_judge(family, v, q, answers: np.ndarray, noise=0.0) -> np.ndarray:
    """Each answer row's ground-truth quality, mapped affinely onto 0-10.

    ``noise`` is pre-drawn Gaussian noise on that scale. Quality is one dot per row
    with the hoisted ``v @ w`` and ``q @ m``; one product over the pool rounds differently.
    """
    vw, qm = v @ family.w, q @ family.m
    quality = np.array([vw @ a + qm @ a for a in answers])
    return JUDGE_MID + JUDGE_SLOPE * (quality / family.score_scale()) + noise


def make_pools(family, n_pools: int, m: int = 64, seed: int = 0,
               env_id: str | None = None, judge_sigma: float = JUDGE_SIGMA,
               scale_mix=(0.5, 1.0, 2.0)) -> list:
    """Generate judge-scored candidate pools.

    Candidates are drawn at a mixture of noise scales so quality varies enough
    for best-of-N headroom. Given ``env_id``, that environment's shortcut marker
    is planted on a beta fraction of candidates, independently of quality,
    which is what misleads a shortcut-keyed reward net on these pools.
    """
    spec = u_dir = None
    if env_id is not None:
        spec, u_dir = family.specs[env_id], family.directions[env_id]

    pools = []
    mix = np.asarray(scale_mix, dtype=np.float64)
    for pid in range(n_pools):
        rng = np.random.default_rng([seed, 0xB0, pid])
        v, q = rng.standard_normal(D_V), rng.standard_normal(D_Q)
        scales = mix[rng.integers(0, len(mix), size=m)]
        answers = family.strip_shortcut_components(
            rng.standard_normal((m, D_A)) * scales[:, None])
        if spec is not None:
            planted = rng.random(m) < spec.beta
            answers[planted] += spec.alpha * u_dir
        pools.append(CandidatePool(pid, v, q, answers, simulated_judge(
            family, v, q, answers, judge_sigma * rng.standard_normal(m))))
    return pools


def score_pool(pool: CandidatePool, nets: dict) -> None:
    """Attach each named net's reward scores, all taken on one feature matrix."""
    x = np.hstack([np.tile(pool.v, (pool.size, 1)),
                   np.tile(pool.q, (pool.size, 1)), pool.answers])
    for name, network in nets.items():
        pool.rewards[name] = netmod.batch_scores(network, x)


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


@lru_cache(maxsize=64)
def _rank_weights(m: int, n_grid: tuple) -> np.ndarray:
    """Row k: C(r-1, N-1) / C(M, N) for N = n_grid[k], correctly rounded."""
    return np.array([[comb(r - 1, n - 1) / comb(m, n) for r in range(1, m + 1)]
                     for n in n_grid])


def bon_estimates(rewards: np.ndarray, judges: np.ndarray, n_grid) -> np.ndarray:
    """Closed form of the subset average for every N in ``n_grid``, one sort."""
    m, n_grid = len(rewards), tuple(n_grid)
    for n in n_grid:
        if not 1 <= n <= m:
            raise ConfigError(f"need 1 <= N <= M, got N={n}, M={m}")
    order = np.lexsort((-np.arange(m), rewards))
    return np.cumsum(_rank_weights(m, n_grid) * judges[order], axis=1)[:, -1]


def bon_fast(rewards: np.ndarray, judges: np.ndarray, n: int) -> float:
    """Closed form of the same subset average, exact for any M."""
    return float(bon_estimates(rewards, judges, (n,))[0])


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


@dataclass
class BonCurve:
    """Expected judge score versus N for one reward net."""

    name: str
    points: list  # (n, mean score over pools)


def bon_curve(net_names: list, pools: list, n_grid: list) -> dict:
    """Mean best-of-N estimate over pools, for each named net's rewards."""
    curves = {}
    for name in net_names:
        vals = np.empty((len(n_grid), len(pools)))  # contiguous rows: np.mean in pool order
        for j, pool in enumerate(pools):
            vals[:, j] = bon_estimates(pool.rewards[name], pool.judge_scores, n_grid)
        curves[name] = BonCurve(name=name, points=[
            (n, float(np.mean(row))) for n, row in zip(n_grid, vals)])
    return curves
