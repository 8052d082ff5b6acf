"""Best-of-N selection curves with an exact estimator.

For a fixed pool of M scored candidates, the expected judge score of
best-of-N selection over a uniformly random N-subset is

    (1 / C(M, N)) * sum over all N-subsets of judge(argmax reward in subset)

computed two ways: by enumeration (small M) and in closed form. Sorting
candidates so that rank i (ascending, 1-based) beats every lower rank, the
rank-i candidate wins a random subset with probability C(i-1, N-1) / C(M, N).
Argmax ties break toward the lowest candidate index, so the sort places equal
rewards in descending index order; both paths and the Monte Carlo check share
that rule, which makes their agreement exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from . import net as netmod
from .errors import ConfigError, GenerationError
from .net import RewardNet

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


def simulated_judge(family, v, q, a, noise: float = 0.0) -> float:
    """Ground-truth quality mapped onto a 0-10 grading scale.

    The affine map keeps ranking identical to the quality signal; ``noise``
    is pre-drawn Gaussian noise on the grading scale (0 for a noiseless judge).
    """
    z = family.true_score(v, q, a) / family.score_scale()
    return JUDGE_MID + JUDGE_SLOPE * z + noise


def make_pools(family, n_pools: int, m: int = 64, seed: int = 0,
               env_id: str | None = None, judge_sigma: float = JUDGE_SIGMA,
               scale_mix=(0.5, 1.0, 2.0)) -> list:
    """Generate judge-scored candidate pools.

    Candidates are drawn at a mixture of noise scales so quality varies
    enough for best-of-N headroom. When ``env_id`` is given, that
    environment's shortcut marker is planted on a beta fraction of
    candidates, independently of quality, which is what misleads a
    shortcut-keyed reward net on these pools.
    """
    if n_pools < 1 or m < 1:
        raise GenerationError("need at least one pool and one candidate")
    spec = None
    u_dir = None
    if env_id is not None:
        spec = family.specs.get(env_id)
        if spec is None:
            raise GenerationError(f"env {env_id!r} is not part of this family")
        u_dir = family.directions[env_id]

    from .envs import D_A, D_Q, D_V

    pools = []
    mix = np.asarray(scale_mix, dtype=np.float64)
    for pid in range(n_pools):
        rng = np.random.default_rng([seed, 0xB0, pid])
        v = rng.standard_normal(D_V)
        q = rng.standard_normal(D_Q)
        scales = mix[rng.integers(0, len(mix), size=m)]
        answers = family.strip_shortcut_components(
            rng.standard_normal((m, D_A)) * scales[:, None])
        if spec is not None:
            planted = rng.random(m) < spec.beta
            answers[planted] += spec.alpha * u_dir
        noise = judge_sigma * rng.standard_normal(m)
        judges = np.array([simulated_judge(family, v, q, answers[i], noise[i])
                           for i in range(m)])
        pools.append(CandidatePool(pool_id=pid, v=v, q=q, answers=answers,
                                   judge_scores=judges))
    return pools


def score_pool(pool: CandidatePool, network: RewardNet, name: str) -> None:
    """Attach one net's reward scores to the pool."""
    x = np.hstack([np.tile(pool.v, (pool.size, 1)),
                   np.tile(pool.q, (pool.size, 1)), pool.answers])
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


def bon_fast(rewards: np.ndarray, judges: np.ndarray, n: int) -> float:
    """Closed form of the same subset average, exact for any M.

    Binomial weights are exact integers; equal rewards sort by descending
    index so ascending-rank dominance reproduces lowest-index-wins argmax.
    """
    m = len(rewards)
    if not 1 <= n <= m:
        raise ConfigError(f"need 1 <= N <= M, got N={n}, M={m}")
    order = sorted(range(m), key=lambda i: (rewards[i], -i))
    denom = comb(m, n)
    total = 0.0
    for rank, idx in enumerate(order, start=1):
        weight = comb(rank - 1, n - 1)
        if weight:
            total += (weight / denom) * judges[idx]
    return total


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
        points = []
        for n in n_grid:
            vals = [bon_fast(pool.rewards[name], pool.judge_scores, n)
                    for pool in pools]
            points.append((n, float(np.mean(vals))))
        curves[name] = BonCurve(name=name, points=points)
    return curves
