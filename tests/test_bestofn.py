from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import bon_exhaustive, bon_mc_check
from rmlab import bestofn
from rmlab.bestofn import (JUDGE_MID, JUDGE_SIGMA, JUDGE_SLOPE, SCALE_MIX, bon_curve,
                           bon_estimates, bon_fast, make_pools, score_pool, simulated_judge)
from rmlab.envs import D_A, D_Q, D_V, RESERVED_COORDS, default_family
from rmlab.errors import ConfigError
from rmlab.net import NetDims, RewardNet, batch_scores


class TestHandCase:
    # M=3, rewards (1,2,3), judges (10,0,5), N=2: subsets {1,2}->cand2(0),
    # {1,3}->cand3(5), {2,3}->cand3(5); mean = 10/3.
    rewards = np.array([1.0, 2.0, 3.0])
    judges = np.array([10.0, 0.0, 5.0])

    def test_exhaustive(self):
        assert bon_exhaustive(self.rewards, self.judges, 2) == pytest.approx(10.0 / 3.0)

    def test_fast(self):
        assert bon_fast(self.rewards, self.judges, 2) == pytest.approx(10.0 / 3.0)

    def test_n_one_is_plain_mean(self):
        assert bon_exhaustive(self.rewards, self.judges, 1) == pytest.approx(5.0)
        assert bon_fast(self.rewards, self.judges, 1) == pytest.approx(5.0)

    def test_n_equals_m_is_argmax_judge(self):
        assert bon_exhaustive(self.rewards, self.judges, 3) == 5.0
        assert bon_fast(self.rewards, self.judges, 3) == 5.0


class TestTieBreaking:
    def test_lowest_index_wins_ties(self):
        rewards = np.array([2.0, 2.0, 1.0])
        judges = np.array([7.0, 1.0, 3.0])
        # candidate 0 beats candidate 1 on every subset containing both
        for n in (1, 2, 3):
            assert bon_fast(rewards, judges, n) == pytest.approx(
                bon_exhaustive(rewards, judges, n), abs=1e-12)
        assert bon_fast(rewards, judges, 3) == 7.0

    def test_all_tied_rewards(self):
        rewards = np.zeros(5)
        judges = np.arange(5.0)
        for n in range(1, 6):
            exact = bon_exhaustive(rewards, judges, n)
            assert bon_fast(rewards, judges, n) == pytest.approx(exact, abs=1e-12)


class TestFastMatchesExhaustive:
    def test_random_pools_small_m(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            m = int(rng.integers(1, 10))
            rewards = rng.standard_normal(m)
            if rng.random() < 0.5 and m >= 2:
                rewards[rng.integers(0, m)] = rewards[rng.integers(0, m)]  # plant ties
            judges = rng.standard_normal(m) * 3 + 5
            for n in range(1, m + 1):
                exact = bon_exhaustive(rewards, judges, n)
                assert bon_fast(rewards, judges, n) == pytest.approx(exact, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
               st.lists(st.integers(0, 3).map(float), min_size=1, max_size=12),  # tied
               st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12, unique=True)),
           st.data())
    def test_property_tied_and_untied_pools(self, rewards, data):
        m = len(rewards)
        judges = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m)))
        n = data.draw(st.integers(1, m))
        rewards = np.array(rewards)
        assert bon_fast(rewards, judges, n) == pytest.approx(
            bon_exhaustive(rewards, judges, n), abs=1e-12)

    def test_rank_weights_sum_to_one(self):
        for m in range(1, 65):
            for n in (1, 2, m // 2 or 1, m):
                assert sum(comb(i - 1, n - 1) for i in range(1, m + 1)) == comb(m, n)

    def test_invariant_under_increasing_reward_transform(self):
        rng = np.random.default_rng(23)
        rewards = rng.standard_normal(12)
        judges = rng.standard_normal(12)
        for n in (1, 3, 7, 12):
            base = bon_fast(rewards, judges, n)
            assert bon_fast(np.exp(rewards * 2 + 1), judges, n) == pytest.approx(
                base, abs=1e-12)

    def test_constant_judge_returns_constant(self):
        rewards = np.random.default_rng(29).standard_normal(20)
        judges = np.full(20, 4.25)
        for n in (1, 5, 20):
            assert bon_fast(rewards, judges, n) == pytest.approx(4.25, abs=1e-12)

    def test_enumeration_guard(self):
        rewards = np.zeros(21)
        judges = np.zeros(21)
        with pytest.raises(ConfigError):
            bon_exhaustive(rewards, judges, 2)


def loop_bon_fast(rewards: np.ndarray, judges: np.ndarray, n: int) -> float:
    """Reference only: the per-call rank loop that the batched estimator replaced,
    kept verbatim so that equality below is with the exact floats it produced."""
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


class TestBatchedMatchesLoop:
    """The one-sort batched path is bit-identical to the rank loop, so the
    reports it feeds keep their bytes. Equality is ``==``, not approx."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
               st.lists(st.integers(-2, 2).map(float), min_size=1, max_size=40),  # tied
               st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40)),
           st.data())
    def test_property_every_n_equals_loop(self, rewards, data):
        m = len(rewards)
        judges = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m)))
        rewards = np.array(rewards)
        grid = list(range(1, m + 1))
        batched = bon_estimates(rewards, judges, grid)
        for n, value in zip(grid, batched):
            expected = loop_bon_fast(rewards, judges, n)
            assert value == expected
            assert bon_fast(rewards, judges, n) == expected

    def test_default_pool_size_random_grids(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            rewards = np.round(rng.standard_normal(64), 1)  # many ties
            judges = rng.standard_normal(64) * 3 - 1
            grid = sorted(set(rng.integers(1, 65, size=7).tolist()))
            assert bon_estimates(rewards, judges, grid).tolist() == \
                [loop_bon_fast(rewards, judges, n) for n in grid]

    def test_grid_outside_pool_rejected(self):
        with pytest.raises(ConfigError):
            bon_estimates(np.zeros(4), np.zeros(4), [1, 5])
        with pytest.raises(ConfigError):
            bon_fast(np.zeros(4), np.zeros(4), 0)
        with pytest.raises(ConfigError):
            bon_estimates(np.zeros((3, 4)), np.zeros((3, 4)), [5])

    @pytest.mark.parametrize("shape", [(1, 1), (1, 64), (7, 1), (50, 64), (2, 3, 16)])
    def test_leading_axes_equal_row_wise_calls(self, shape):
        rng = np.random.default_rng(sum(shape))
        rewards = np.round(rng.standard_normal(shape), 1)  # many ties
        judges = rng.standard_normal(shape) * 3 + 5
        m = shape[-1]
        grid = sorted({1, m, (m + 1) // 2, min(m, 4)})
        batched = bon_estimates(rewards, judges, grid)
        assert batched.shape == shape[:-1] + (len(grid),)
        for idx in np.ndindex(*shape[:-1]):
            row = bon_estimates(rewards[idx], judges[idx], grid)
            assert (batched[idx] == row).all()
            assert row.tolist() == [loop_bon_fast(rewards[idx], judges[idx], n) for n in grid]


class TestMonteCarlo:
    def test_within_three_stderr(self):
        rng = np.random.default_rng(31)
        rewards = rng.standard_normal(16)
        judges = rng.standard_normal(16) * 2 + 5
        exact = bon_fast(rewards, judges, 4)
        est, se = bon_mc_check(rewards, judges, 4, draws=20000, seed=3)
        assert abs(est - exact) <= 3 * se

    def test_full_subset_zero_variance(self):
        rng = np.random.default_rng(37)
        rewards = rng.standard_normal(8)
        judges = rng.standard_normal(8)
        exact = bon_fast(rewards, judges, 8)
        est, se = bon_mc_check(rewards, judges, 8, draws=500, seed=4)
        assert est == pytest.approx(exact, abs=1e-12)
        assert se == 0.0

    def test_seeded_reproducible(self):
        rewards = np.arange(10.0)
        judges = np.arange(10.0)[::-1].copy()
        a = bon_mc_check(rewards, judges, 3, draws=1000, seed=9)
        b = bon_mc_check(rewards, judges, 3, draws=1000, seed=9)
        assert a == b

    def test_respects_tie_rule(self):
        rewards = np.array([1.0, 1.0, 0.0])
        judges = np.array([9.0, 1.0, 0.0])
        est, _ = bon_mc_check(rewards, judges, 3, draws=50, seed=5)
        assert est == 9.0  # candidate 0 wins every full subset by index


class TestJudgeAndPools:
    def test_noiseless_judge_preserves_quality_ranking(self, small_family):
        family, _ = small_family
        rng = np.random.default_rng(41)
        v, q = rng.standard_normal(16), rng.standard_normal(8)
        answers = family.strip_shortcut_components(rng.standard_normal((30, 16)))
        scores = family.true_scores(v, q, answers)
        judged = simulated_judge(family, v, q, answers)
        assert np.array_equal(np.argsort(scores), np.argsort(judged))

    def test_pool_judge_matches_per_candidate_scalar_form(self, small_family):
        # the per-candidate judge the pool-level one replaced, bit for bit
        family, _ = small_family
        rng = np.random.default_rng(47)
        v, q = rng.standard_normal(16), rng.standard_normal(8)
        answers = family.strip_shortcut_components(rng.standard_normal((64, 16)))
        noise = 0.1 * rng.standard_normal(64)
        scalar = [JUDGE_MID + JUDGE_SLOPE * (float(v @ family.w @ a + q @ family.m @ a)
                                             / family.score_scale) + noise[i]
                  for i, a in enumerate(answers)]
        assert simulated_judge(family, v, q, answers, noise).tolist() == scalar

    def test_pools_deterministic(self, small_family):
        family, _ = small_family
        p1 = make_pools(family, n_pools=3, m=16, seed=6, env_id="Q")
        p2 = make_pools(family, n_pools=3, m=16, seed=6, env_id="Q")
        assert np.array_equal(p1.judge_scores, p2.judge_scores)
        assert np.array_equal(p1.answers, p2.answers)

    def test_judge_mean_near_scale_midpoint(self, small_family, monkeypatch):
        family, _ = small_family
        monkeypatch.setattr(bestofn, "SCALE_MIX", (1.0,))
        pools = make_pools(family, n_pools=40, m=32, seed=7, env_id="Q")
        mean = np.mean(pools.judge_scores.mean(axis=1))
        assert mean == pytest.approx(5.0, abs=0.2)

    def test_env_pools_carry_markers(self, small_family):
        family, _ = small_family
        pools = make_pools(family, n_pools=5, m=64, seed=8, env_id="P")
        u = family.directions["P"]
        frac = np.mean(pools.answers @ u > 0.5)
        assert frac == pytest.approx(0.85, abs=0.1)

    def test_curves_from_scored_pools(self, small_family, default_dims, monkeypatch):
        family, _ = small_family
        monkeypatch.setattr(bestofn, "JUDGE_SIGMA", 0.0)
        monkeypatch.setattr(bestofn, "SCALE_MIX", (1.0,))
        pools = make_pools(family, n_pools=200, m=16, seed=9, env_id="Q")
        rewards = {"oracle": family.true_scores(pools.v, pools.q, pools.answers),
                   "random": np.stack([np.random.default_rng(pid).standard_normal(
                       16) for pid in range(200)])}
        curves = bon_curve(rewards, pools.judge_scores, [1, 2, 4, 8, 16])
        oracle_scores = [s for _, s in curves["oracle"]]
        assert all(b >= a - 1e-9 for a, b in zip(oracle_scores, oracle_scores[1:]))
        # a reward with no signal selects uniformly: flat within sampling noise
        random_scores = [s for _, s in curves["random"]]
        assert max(random_scores) - min(random_scores) <= 0.2
        # N=1 point equals the plain judge mean for every net
        plain = np.mean(pools.judge_scores.mean(axis=1))
        assert curves["oracle"][0][1] == pytest.approx(plain, abs=1e-12)
        assert curves["random"][0][1] == pytest.approx(plain, abs=1e-12)

    def test_curve_points_equal_per_pool_estimates(self, small_family):
        family, _ = small_family
        pools = make_pools(family, n_pools=30, m=16, seed=11, env_id="P")
        rewards = {"r": np.round(np.random.default_rng(3).standard_normal((30, 16)), 1)}
        grid = [1, 2, 4, 8, 16]
        per_pool = np.empty((len(grid), 30))  # the per-(pool, net) loop
        for j in range(30):
            per_pool[:, j] = bon_estimates(rewards["r"][j], pools.judge_scores[j], grid)
        assert bon_curve(rewards, pools.judge_scores, grid)["r"] == [
            (n, float(np.mean(row))) for n, row in zip(grid, per_pool)]

    def test_score_pool_attaches_net_rewards(self, small_family, default_dims):
        family, _ = small_family
        pools = make_pools(family, n_pools=3, m=8, seed=10, env_id="Q")
        nets = {name: RewardNet.init(NetDims(16, 8, 16, 8), seed)
                for name, seed in (("a", 77), ("b", 78))}
        rewards = score_pool(pools, nets)
        assert set(rewards) == {"a", "b"}
        assert all(r.shape == (3, 8) for r in rewards.values())
        assert not np.array_equal(rewards["a"], rewards["b"])
        for pid in range(3):  # each pool scored on its own feature matrix
            x = np.hstack([np.tile(pools.v[pid], (8, 1)), np.tile(pools.q[pid], (8, 1)),
                           pools.answers[pid]])
            for name, network in nets.items():
                assert np.array_equal(rewards[name][pid], batch_scores(network, x))


def loop_strip(answers: np.ndarray) -> np.ndarray:
    """Reference only: the strip_shortcut_components body the pools used."""
    out = answers.copy()
    out[:, list(RESERVED_COORDS)] = 0.0
    return out


def loop_simulated_judge(family, v, q, answers: np.ndarray, noise=0.0) -> np.ndarray:
    """Reference only: the one-pool judge, kept verbatim."""
    vw, qm = v @ family.w, q @ family.m
    quality = np.array([vw @ a + qm @ a for a in answers])
    return JUDGE_MID + JUDGE_SLOPE * (quality / family.score_scale) + noise


def loop_make_pools(family, n_pools: int, m: int = 64, seed: int = 0,
                    env_id: str | None = None, judge_sigma: float = JUDGE_SIGMA,
                    scale_mix=(0.5, 1.0, 2.0)) -> list:
    """Reference only: the per-pool loop that the array-at-a-time pools
    replaced, kept verbatim except that each pool is a (v, q, answers,
    judge_scores) tuple."""
    spec = u_dir = None
    if env_id is not None:
        spec, u_dir = family.specs[env_id], family.directions[env_id]

    pools = []
    mix = np.asarray(scale_mix, dtype=np.float64)
    for pid in range(n_pools):
        rng = np.random.default_rng([seed, 0xB0, pid])
        v, q = rng.standard_normal(D_V), rng.standard_normal(D_Q)
        scales = mix[rng.integers(0, len(mix), size=m)]
        answers = loop_strip(rng.standard_normal((m, D_A)) * scales[:, None])
        if spec is not None:
            planted = rng.random(m) < spec.beta
            answers[planted] += spec.alpha * u_dir
        pools.append((v, q, answers, loop_simulated_judge(
            family, v, q, answers, judge_sigma * rng.standard_normal(m))))
    return pools


class TestPoolsMatchLoop:
    """The array-at-a-time pools hold the floats of the per-pool loop."""

    @pytest.mark.parametrize("n_pools,m,seed", [(1, 1, 0), (1, 64, 5), (4, 1, 9),
                                                (13, 16, 2), (40, 64, 131)])
    @pytest.mark.parametrize("env_id", ["A", "B", "C"])
    def test_every_field_equals_loop(self, n_pools, m, seed, env_id):
        family = default_family(20247, 10, 10)
        pools = make_pools(family, n_pools, m, seed, env_id)
        expected = loop_make_pools(family, n_pools, m=m, seed=seed, env_id=env_id)
        for k, name in enumerate(("v", "q", "answers", "judge_scores")):
            got, want = getattr(pools, name), np.stack([p[k] for p in expected])
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_small_family_and_options_equal_loop(self, small_family, monkeypatch):
        family, _ = small_family
        for kw in ({"env_id": "P", "judge_sigma": 0.0}, {"env_id": "Q"},
                   {"env_id": "Q", "scale_mix": (1.0,)},
                   {"env_id": "P", "scale_mix": (0.25, 3.0)}):
            kw = {"judge_sigma": JUDGE_SIGMA, "scale_mix": SCALE_MIX, **kw}
            monkeypatch.setattr(bestofn, "JUDGE_SIGMA", kw["judge_sigma"])
            monkeypatch.setattr(bestofn, "SCALE_MIX", kw["scale_mix"])
            pools = make_pools(family, 9, 24, 77, kw["env_id"])
            expected = loop_make_pools(family, 9, m=24, seed=77, **kw)
            for k, name in enumerate(("v", "q", "answers", "judge_scores")):
                assert np.array_equal(getattr(pools, name),
                                      np.stack([p[k] for p in expected])), (kw, name)

    def test_stacked_judge_equals_one_pool_calls(self, small_family):
        family, _ = small_family
        rng = np.random.default_rng(53)
        v, q = rng.standard_normal((6, 16)), rng.standard_normal((6, 8))
        answers = family.strip_shortcut_components(rng.standard_normal((6, 32, 16)))
        noise = 0.1 * rng.standard_normal((6, 32))
        stacked = simulated_judge(family, v, q, answers, noise)
        for j in range(6):
            assert stacked[j].tolist() == simulated_judge(
                family, v[j], q[j], answers[j], noise[j]).tolist() == \
                loop_simulated_judge(family, v[j], q[j], answers[j], noise[j]).tolist()
