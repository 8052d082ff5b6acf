import hashlib

import numpy as np
import pytest

from oracles import net_accuracy
from rmlab import envs
from rmlab.envs import (EnvironmentFamily, EnvironmentSpec, LENGTH_COORD, default_family,
                        read_dataset, sample_env, write_dataset)
from rmlab.errors import LabError
from rmlab.training import TrainConfig, train


def big_spec(env_id, seed, beta, alpha, rule, n_test=10000, **kw):
    return EnvironmentSpec(env_id, seed=seed, n_train=100, n_test=n_test,
                           beta=beta, alpha=alpha, direction=rule, **kw)


@pytest.fixture(scope="module")
def mc_family():
    """Environments sized for Monte Carlo checks."""
    specs = [
        big_spec("HI", 11, beta=0.85, alpha=1.0, rule="fresh",
                 eta=0.05, length_bias=0.6),
        big_spec("SEP", 12, beta=0.99, alpha=2.0,
                 rule="orthogonal_to", ref="HI", eta=0.0),
        big_spec("ANTI", 13, beta=0.85, alpha=1.0,
                 rule="negated", ref="SEP", eta=0.05),
        big_spec("OFF", 14, beta=0.0, alpha=0.0, rule="fresh",
                 eta=0.05),
    ]
    family = EnvironmentFamily(404, specs)
    tests = {s.env_id: sample_env(family, s.env_id, "test") for s in specs}
    return family, {s.env_id: s for s in specs}, tests


def projection_rule_accuracy(family, env_id, dataset):
    """Strict text-only rule: pick the answer with the larger marker projection."""
    u = family.directions[env_id]
    correct = 0
    for s in dataset.samples:
        chosen, rejected = (s.a1, s.a2) if s.y == 1 else (s.a2, s.a1)
        if chosen @ u > rejected @ u:
            correct += 1
    return correct / len(dataset.samples)


class TestMakeFamily:
    def test_same_seed_identical_invariants(self, small_family):
        _, specs = small_family
        fam1 = EnvironmentFamily(55, list(specs))
        fam2 = EnvironmentFamily(55, list(specs))
        assert np.array_equal(fam1.w, fam2.w)
        assert np.array_equal(fam1.m, fam2.m)

    def test_invariant_matrix_nondegenerate(self, small_family):
        family, _ = small_family
        assert np.linalg.norm(family.w) > 0

    def test_bayes_rule_hits_label_noise_ceiling(self, mc_family, true_margins):
        family, specs, tests = mc_family
        for env_id in ("HI", "ANTI", "OFF"):
            acc = np.mean(true_margins(family, tests[env_id]) > 0)
            assert acc == pytest.approx(1.0 - specs[env_id].eta, abs=0.01)


class TestSampleEnv:
    def test_text_only_near_chance_without_shortcut(self):
        spec = envs.EnvironmentSpec("OFF2", seed=31, n_train=4000, n_test=4000,
                                    beta=0.0, alpha=0.0,
                                    direction="fresh", eta=0.05,
                                    length_bias=0.5)
        fam = EnvironmentFamily(404, [spec, big_spec("PAD", 99, 0.5, 1.0,
                                               "fresh", n_test=10)])
        tr = sample_env(fam, "OFF2", "train")
        te = sample_env(fam, "OFF2", "test")
        run = train(TrainConfig(mode="text_only", epochs=8, seed=5), tr)
        assert net_accuracy(run.primary, te, mask_vision=True) <= 0.55

    def test_near_deterministic_shortcut_is_separable(self, mc_family):
        family, _, tests = mc_family
        assert projection_rule_accuracy(family, "SEP", tests["SEP"]) >= 0.99

    def test_shortcut_locality_own_env(self, mc_family):
        family, specs, tests = mc_family
        for env_id in ("HI", "SEP", "ANTI"):
            acc = projection_rule_accuracy(family, env_id, tests[env_id])
            assert acc >= specs[env_id].beta - 0.02

    def test_shortcut_locality_orthogonal_near_chance(self, mc_family):
        family, _, tests = mc_family
        # HI's rule evaluated where an orthogonal-direction env generated data
        assert projection_rule_accuracy(family, "HI", tests["SEP"]) <= 0.55

    def test_shortcut_locality_anticorrelated_below_chance(self, mc_family):
        family, _, tests = mc_family
        # SEP's rule on the negated-direction env transfers below chance
        assert projection_rule_accuracy(family, "SEP", tests["ANTI"]) <= 0.45

    def test_length_bias_fraction_exact(self, mc_family):
        family, specs, tests = mc_family
        for env_id, ds in tests.items():
            len1, len2 = ds.a1[:, LENGTH_COORD], ds.a2[:, LENGTH_COORD]
            n_longer = np.count_nonzero(np.where(ds.y == 1, len1 > len2, len2 > len1))
            assert n_longer == round(specs[env_id].length_bias * len(ds))

    def test_regeneration_bit_identical(self, small_family):
        family, _ = small_family
        d1 = sample_env(family, "P", "test")
        d2 = sample_env(family, "P", "test")
        for a, b in zip(d1.samples, d2.samples):
            assert np.array_equal(a.v, b.v) and np.array_equal(a.a1, b.a1)
            assert a.y == b.y and a.shortcut_applied == b.shortcut_applied

    def test_train_test_disjoint(self, small_sets):
        def key(s):
            return hashlib.sha256(s.v.tobytes() + s.q.tobytes()).hexdigest()

        train_keys = {key(s) for s in small_sets[("P", "train")].samples}
        test_keys = {key(s) for s in small_sets[("P", "test")].samples}
        assert not train_keys & test_keys


def loop_sample_env(family: EnvironmentFamily, env_id: str, split: str) -> envs.Dataset:
    """Reference only: the per-row loop that the array-at-a-time generator
    replaced, kept verbatim, with the one-pair ``strip_shortcut_components``
    and ``true_scores`` bodies it called inlined."""
    spec = family.specs[env_id]
    code = envs._SPLIT_CODES[split]
    n = spec.n_train if split == "train" else spec.n_test
    u_dir = family.directions[env_id]
    own_coords = np.flatnonzero(u_dir)

    cols = envs.Dataset(v=np.empty((n, envs.D_V)), q=np.empty((n, envs.D_Q)),
                        a1=np.empty((n, envs.D_A)), a2=np.empty((n, envs.D_A)),
                        y=np.empty(n, dtype=np.int8), planted=np.empty(n, dtype=bool))
    for i in range(n):
        rng = np.random.default_rng([spec.seed, code, i])
        v = rng.standard_normal(envs.D_V)
        q = rng.standard_normal(envs.D_Q)
        applied = rng.random() < spec.beta
        first = rng.standard_normal(envs.D_A)
        if applied:
            second = first + envs.CORRUPTION_EPS * rng.standard_normal(envs.D_A)
        else:
            second = rng.standard_normal(envs.D_A)
        answers = np.stack([first, second]).copy()
        answers[:, list(envs.RESERVED_COORDS)] = 0.0
        marker_noise = envs.SHORTCUT_NOISE * rng.standard_normal((2, own_coords.size))
        s = answers @ (family.w.T @ v + family.m.T @ q)
        y_clean = 1 if s[0] > s[1] else -1
        y = -y_clean if rng.random() < spec.eta else y_clean
        if applied:
            answers[0 if y == 1 else 1] += spec.alpha * u_dir
        else:
            answers[:, own_coords] = marker_noise
        cols.v[i], cols.q[i], cols.a1[i], cols.a2[i] = v, q, answers[0], answers[1]
        cols.y[i], cols.planted[i] = y, applied

    # the length-order pass, verbatim, on the finished columns
    rng = np.random.default_rng([spec.seed, code, envs.LENGTH_RNG_TAG])
    k = int(round(spec.length_bias * n))
    chosen_longer = np.zeros(n, dtype=bool)
    chosen_longer[rng.permutation(n)[:k]] = True
    len1 = cols.a1[:, LENGTH_COORD].copy()
    len2 = cols.a2[:, LENGTH_COORD].copy()
    first_chosen = cols.y == 1
    is_longer = np.where(first_chosen, len1 > len2, len2 > len1)
    swap = chosen_longer != is_longer
    cols.a1[swap, LENGTH_COORD] = len2[swap]
    cols.a2[swap, LENGTH_COORD] = len1[swap]
    return cols


class TestSampleEnvMatchesLoop:
    """The array-at-a-time generator gives the loop's bytes in every column."""

    @staticmethod
    def assert_same(got, want):
        for c in envs.COLUMNS:
            a, b = getattr(got, c), getattr(want, c)
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), c

    @pytest.mark.parametrize("family_seed,n", [(3, 1), (11, 2), (131, 97), (2024, 600)])
    def test_default_family_every_env_and_split(self, family_seed, n):
        family = default_family(family_seed, n_train=n, n_test=max(1, n // 3))
        for env_id in envs.ENVS:
            for split in ("train", "test"):
                self.assert_same(sample_env(family, env_id, split),
                                 loop_sample_env(family, env_id, split))

    def test_every_direction_rule_and_edge_rates(self, mc_family):
        _, specs, _ = mc_family
        small = [EnvironmentSpec(s.env_id, seed=s.seed, n_train=1, n_test=300, beta=s.beta,
                                 alpha=s.alpha, direction=s.direction, ref=s.ref, eta=s.eta,
                                 length_bias=s.length_bias) for s in specs.values()]
        small.append(big_spec("ALL", 41, 1.0, 1.0, "fresh", n_test=50,
                              eta=1.0, length_bias=1.0))
        family = EnvironmentFamily(404, small)
        for spec in small:
            for split in ("train", "test"):
                self.assert_same(sample_env(family, spec.env_id, split),
                                 loop_sample_env(family, spec.env_id, split))


class TestShortcutOracle:
    def test_beta_one_all_marked(self):
        specs = [big_spec("ALL", 41, 1.0, 1.0, "fresh", n_test=300),
                 big_spec("PAD", 42, 0.5, 1.0, "fresh", n_test=10)]
        family = EnvironmentFamily(2, specs)
        ds = sample_env(family, "ALL", "test")
        assert ds.planted.all()

    def test_beta_zero_none_marked(self, mc_family):
        _, _, tests = mc_family
        assert not tests["OFF"].planted.any()

    def test_marked_fraction_matches_beta(self, mc_family):
        _, specs, tests = mc_family
        frac = np.mean(tests["HI"].planted)
        assert frac == pytest.approx(specs["HI"].beta, abs=0.01)


class TestDefaultFamily:
    def test_env_ids_are_the_envs_constant(self):
        family = default_family(20247, 10, 10)
        assert tuple(family.specs) == envs.ENVS
        assert tuple(s.env_id for s in family.specs.values()) == envs.ENVS

    def test_direction_relations(self):
        family = default_family(20247, 10, 10)
        assert family.directions["B"] @ family.directions["C"] == pytest.approx(-1.0)
        assert family.directions["A"] @ family.directions["B"] == pytest.approx(0.0)
        e = np.eye(envs.D_A)
        assert np.array_equal(family.directions["A"], e[11])
        assert np.array_equal(family.directions["B"], e[12])
        assert np.array_equal(family.directions["C"], -e[12])

    def test_direction_axes_of_every_rule(self, mc_family):
        # fresh, orthogonal_to, negated, fresh: the next reserved axis for
        # each non-negated rule, minus the ref's axis for the negated one
        family, _, _ = mc_family
        e = np.eye(envs.D_A)
        expected = {"HI": e[11], "SEP": e[12], "ANTI": -e[12], "OFF": e[13]}
        for env_id, u in expected.items():
            assert np.array_equal(family.directions[env_id], u)

    def test_paper_profile_length_biases(self):
        by_id = default_family(20247, 10, 10).specs
        assert by_id["B"].length_bias == 0.315
        assert by_id["A"].length_bias == 0.598
        assert by_id["C"].length_bias == 0.678

    def test_fitted_shortcut_transfers_below_chance_to_negated_env(self):
        family = default_family(20247, 10, 2000)
        test_c = sample_env(family, "C", "test")
        assert projection_rule_accuracy(family, "B", test_c) <= 0.45


class TestDatasetIO:
    def test_npz_round_trip_bit_exact(self, small_sets, tmp_path):
        ds = small_sets[("P", "test")]
        path = tmp_path / "p_test.npz"
        write_dataset(ds, path)
        back = read_dataset(path)
        for a, b in zip(ds.samples, back.samples):
            assert np.array_equal(a.v, b.v) and np.array_equal(a.q, b.q)
            assert np.array_equal(a.a1, b.a1) and np.array_equal(a.a2, b.a2)
            assert a.y == b.y and a.shortcut_applied == b.shortcut_applied

    def test_record_schema(self, small_sets, tmp_path):
        ds = small_sets[("P", "test")]
        path = tmp_path / "rec.npz"
        write_dataset(ds, path)
        with np.load(path, allow_pickle=False) as npz:
            assert npz.files == list(envs.COLUMNS) == ["v", "q", "a1", "a2", "y", "planted"]
            assert npz["v"].shape == (len(ds), envs.D_V) and npz["y"].dtype == np.int8

    def test_archive_with_old_identity_members_reads_the_same_columns(self, small_sets,
                                                                      tmp_path):
        # files written before the archive held only the columns also carry
        # the 0-d strings env_id and split; they are ignored
        ds = small_sets[("P", "test")]
        path = tmp_path / "old.npz"
        np.savez(path, env_id=np.array("P"), split=np.array("test"),
                 **{c: getattr(ds, c) for c in envs.COLUMNS})
        back = read_dataset(path)
        for c in envs.COLUMNS:
            got, want = getattr(back, c), getattr(ds, c)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), c

    def test_write_is_byte_deterministic(self, small_sets, tmp_path):
        ds = small_sets[("P", "test")]
        write_dataset(ds, tmp_path / "one.npz")
        write_dataset(ds, tmp_path / "two.npz")
        assert (tmp_path / "one.npz").read_bytes() == (tmp_path / "two.npz").read_bytes()

    def test_samples_are_row_views(self, small_sets):
        ds = small_sets[("P", "test")]
        s = ds.samples[7]
        assert np.shares_memory(s.a1, ds.a1) and np.array_equal(s.q, ds.q[7])
        assert s.y == ds.y[7] and s.shortcut_applied == ds.planted[7]

    @pytest.mark.parametrize("content", [
        b"",
        b'{"env_id": "P", "split": "test", "v": [0.0], "y": 1}\n',  # a JSONL dataset
        b"PK\x03\x04 truncated zip",
    ])
    def test_invalid_file_raises_lab_error(self, tmp_path, content):
        path = tmp_path / "bad.npz"
        path.write_bytes(content)
        with pytest.raises(LabError, match="bad.npz is not a valid dataset file"):
            read_dataset(path)

    def test_truncated_and_incomplete_archives_rejected(self, small_sets, tmp_path):
        ds = small_sets[("P", "test")]
        path = tmp_path / "p.npz"
        write_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(LabError, match=r"p.npz is not a valid dataset file \(\w+\)"):
            read_dataset(path)
        np.savez(path, v=ds.v, q=ds.q)  # a valid archive without the other columns
        with pytest.raises(LabError, match=r"p.npz is not a valid dataset file \(KeyError\)"):
            read_dataset(path)
