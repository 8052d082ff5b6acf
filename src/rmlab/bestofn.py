"""Best-of-N selection curves with an exact estimator.

For a fixed pool of M scored candidates, the expected judge score of
best-of-N selection over a uniformly random N-subset is

    (1 / C(M, N)) * sum over all N-subsets of judge(argmax reward in subset)

computed in closed form. Sorting candidates so that rank i (ascending,
1-based) beats every lower rank, the rank-i candidate wins a random subset
with probability C(i-1, N-1) / C(M, N). Argmax ties break toward the lowest
candidate index, so the sort places equal rewards in descending index order;
the tests' enumeration and Monte Carlo oracles share that rule, which makes
their agreement exact. The closed form sorts a pool once for a
whole N grid and adds the weighted judge scores in rank order by a sequential
cumsum (np.sum is pairwise and rounds differently); the leading zero-weight
ranks add only +-0.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import net as netmod
from .envs import D_A, D_Q, D_V

JUDGE_MID = 5.0
JUDGE_SLOPE = 1.25  # maps +-4 sd of the quality signal onto [0, 10]
JUDGE_SIGMA = 0.1
SCALE_MIX = (0.5, 1.0, 2.0)  # candidate noise scales, picked uniformly


@dataclass
class CandidatePools:
    """Query contexts with M judge-scored candidate answers each, as arrays
    with a leading pool axis."""

    v: np.ndarray  # (n_pools, d_v)
    q: np.ndarray  # (n_pools, d_q)
    answers: np.ndarray  # (n_pools, M, d_a)
    judge_scores: np.ndarray  # (n_pools, M)


def simulated_judge(family, v, q, answers: np.ndarray, noise=0.0) -> np.ndarray:
    """Each answer row's ground-truth quality, mapped affinely onto 0-10.

    ``v`` (..., d_v), ``q`` (..., d_q) and ``answers`` (..., M, d_a) may carry
    leading pool axes; ``noise`` is pre-drawn Gaussian noise on the 0-10 scale.
    Quality is ``(v @ w) @ a + (q @ m) @ a``: one gemv per pool for ``v @ w``
    and ``q @ m``, then one dot per answer row, all through stacked
    ``np.matmul``, which makes the same BLAS call per slice. One product over
    a pool, or ``einsum``, sums in another order and changes the scores.
    """
    def rowdots(vec):  # (..., M) dots of each answer row with the pool's vec
        return np.matmul(answers[..., None, :], vec[..., None, :, None])[..., 0, 0]

    quality = rowdots(np.matmul(v[..., None, :], family.w)[..., 0, :]) \
        + rowdots(np.matmul(q[..., None, :], family.m)[..., 0, :])
    return JUDGE_MID + JUDGE_SLOPE * (quality / family.score_scale) + noise


def make_pools(family, n_pools: int, m: int, seed: int, env_id: str) -> CandidatePools:
    """Generate judge-scored candidate pools of ``env_id``.

    Candidates are drawn at the ``SCALE_MIX`` noise scales so quality varies
    enough for best-of-N headroom. The environment's shortcut marker is
    planted on a beta fraction of candidates, independently of quality,
    which is what misleads a shortcut-keyed reward net on these pools.

    Pool ``pid`` draws from its own stream ``[seed, 0xB0, pid]`` in a fixed
    order: v and q, the scale picks, the raw answers, the plant draws, the
    judge noise. The loop only draws; the arithmetic runs once over all pools.
    """
    vq = np.empty((n_pools, D_V + D_Q))
    picks = np.empty((n_pools, m), dtype=np.int64)
    raw = np.empty((n_pools, m, D_A))
    plant_u = np.empty((n_pools, m))
    noise = np.empty((n_pools, m))
    mix = np.asarray(SCALE_MIX, dtype=np.float64)
    for pid in range(n_pools):
        rng = np.random.default_rng([seed, 0xB0, pid])
        rng.standard_normal(out=vq[pid])
        picks[pid] = rng.integers(0, len(mix), size=m)
        rng.standard_normal(out=raw[pid])
        rng.random(out=plant_u[pid])
        rng.standard_normal(out=noise[pid])

    v, q = vq[:, :D_V].copy(), vq[:, D_V:].copy()
    raw *= mix[picks][..., None]  # in place: one (n_pools, M, d_a) array in memory
    answers = family.strip_shortcut_components(raw)
    # unbuffered: answers[mask] += ... would copy every planted row first
    np.add.at(answers, plant_u < family.specs[env_id].beta,
              family.specs[env_id].alpha * family.directions[env_id])
    return CandidatePools(v, q, answers, simulated_judge(
        family, v, q, answers, JUDGE_SIGMA * noise))


def score_pool(pools: CandidatePools, nets: dict) -> dict:
    """name -> (n_pools, M) reward scores of each named net. Each pool is scored
    as its own (M, input_dim) block of ``[v|q|a]`` feature rows, one buffer reused."""
    n_pools, m = pools.answers.shape[:2]
    scores = {name: np.empty((n_pools, m)) for name in nets}
    x = np.empty((m, D_V + D_Q + D_A))
    for pid in range(n_pools):
        x[:, :D_V], x[:, D_V:D_V + D_Q], x[:, D_V + D_Q:] = \
            pools.v[pid], pools.q[pid], pools.answers[pid]
        for name, network in nets.items():
            scores[name][pid] = netmod.batch_scores(network, x)
    return scores


def bon_estimates(rewards: np.ndarray, judges: np.ndarray, n_grid) -> np.ndarray:
    """Closed form of the subset average for every N in ``n_grid``, one sort.

    ``rewards`` and ``judges`` are (..., M); the result is (..., len(n_grid)),
    each value the same float as a call on that one pool."""
    m = rewards.shape[-1]
    for n in n_grid:
        if not 1 <= n <= m:
            raise ValueError(f"need 1 <= N <= M, got N={n}, M={m}")
    order = np.lexsort((np.broadcast_to(-np.arange(m), rewards.shape), rewards), axis=-1)
    ranked = np.take_along_axis(judges, order, axis=-1)
    # (len(n_grid), M): rank r's weight C(r-1, N-1) / C(M, N), correctly rounded
    weights = np.array([[comb(r - 1, n - 1) / comb(m, n) for r in range(1, m + 1)]
                        for n in n_grid])
    return np.cumsum(weights * ranked[..., None, :], axis=-1)[..., -1]


def bon_fast(rewards: np.ndarray, judges: np.ndarray, n: int) -> float:
    """Closed form of the same subset average, exact for any M."""
    return float(bon_estimates(rewards, judges, (n,))[0])


def bon_curve(rewards: dict, judges: np.ndarray, n_grid: list) -> dict:
    """Mean best-of-N estimate over pools for each net's (n_pools, M) rewards
    against ``judges``: name -> [(n, mean score), ...] in ``n_grid`` order."""
    curves = {}
    for name, scores in rewards.items():
        # contiguous per-N rows, so each np.mean adds in pool order
        vals = np.ascontiguousarray(bon_estimates(scores, judges, n_grid).T)
        curves[name] = [(n, float(np.mean(row))) for n, row in zip(n_grid, vals)]
    return curves
