import hashlib

import numpy as np
import pytest

from rmlab import envs
from rmlab.envs import (DirectionRule, EnvironmentFamily, EnvironmentSpec, LENGTH_COORD,
                        dataset_fingerprint, default_family, read_dataset, sample_env,
                        write_dataset)
from rmlab.errors import FamilyError, GenerationError
from rmlab.evaluation import accuracy
from rmlab.training import TrainConfig, train


def big_spec(env_id, seed, beta, alpha, rule, n_test=10000, **kw):
    return EnvironmentSpec(env_id, seed=seed, n_train=100, n_test=n_test,
                           beta=beta, alpha=alpha, direction=rule, **kw)


@pytest.fixture(scope="module")
def mc_family():
    """Environments sized for Monte Carlo checks."""
    specs = [
        big_spec("HI", 11, beta=0.85, alpha=1.0, rule=DirectionRule("fresh"),
                 eta=0.05, length_bias=0.6),
        big_spec("SEP", 12, beta=0.99, alpha=2.0,
                 rule=DirectionRule("orthogonal_to", ref="HI"), eta=0.0),
        big_spec("ANTI", 13, beta=0.85, alpha=1.0,
                 rule=DirectionRule("negated", ref="SEP"), eta=0.05),
        big_spec("OFF", 14, beta=0.0, alpha=0.0, rule=DirectionRule("fresh"),
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

    def test_needs_two_environments(self):
        spec = big_spec("X", 1, 0.5, 1.0, DirectionRule("fresh"))
        with pytest.raises(FamilyError):
            EnvironmentFamily(1, [spec])

    def test_duplicate_ids_rejected(self):
        s1 = big_spec("X", 1, 0.5, 1.0, DirectionRule("fresh"))
        s2 = big_spec("X", 2, 0.5, 1.0, DirectionRule("fresh"))
        with pytest.raises(FamilyError):
            EnvironmentFamily(1, [s1, s2])

    def test_bayes_rule_hits_label_noise_ceiling(self, mc_family, true_margins):
        family, specs, tests = mc_family
        for env_id in ("HI", "ANTI", "OFF"):
            acc = np.mean(true_margins(family, tests[env_id]) > 0)
            assert acc == pytest.approx(1.0 - specs[env_id].eta, abs=0.01)

    @pytest.mark.parametrize("family_seed", [1.7, True, "7"])
    def test_family_seed_must_be_an_integer(self, family_seed):
        # a bool, float or string is rejected, never truncated or parsed
        specs = [big_spec(e, i, 0.5, 1.0, DirectionRule("fresh")) for i, e in enumerate("AB")]
        with pytest.raises(FamilyError):
            EnvironmentFamily(family_seed, specs)


class TestSampleEnv:
    def test_text_only_near_chance_without_shortcut(self):
        spec = envs.EnvironmentSpec("OFF2", seed=31, n_train=4000, n_test=4000,
                                    beta=0.0, alpha=0.0,
                                    direction=DirectionRule("fresh"), eta=0.05,
                                    length_bias=0.5)
        fam = EnvironmentFamily(404, [spec, big_spec("PAD", 99, 0.5, 1.0,
                                               DirectionRule("fresh"), n_test=10)])
        tr = sample_env(fam, "OFF2", "train")
        te = sample_env(fam, "OFF2", "test")
        run = train(TrainConfig(mode="text_only", epochs=8, seed=5), tr)
        assert accuracy(run.primary, te, mask_vision=True) <= 0.55

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
            frac = np.mean(np.where(ds.y == 1, len1 > len2, len2 > len1))
            assert frac == pytest.approx(specs[env_id].length_bias, abs=0.02)

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

    def test_unknown_env_rejected(self, small_family):
        family, _ = small_family
        with pytest.raises(GenerationError):
            sample_env(family, "NOPE", "train")

    def test_invalid_spec_rejected(self):
        with pytest.raises(GenerationError):
            EnvironmentSpec("BAD", seed=1, n_train=10, n_test=10, beta=1.5,
                            alpha=1.0, direction=DirectionRule("fresh"))

    @pytest.mark.parametrize("env_id", ["../x", "", "A:B", 7])
    def test_env_id_must_be_a_plain_name(self, env_id):
        # env_id names files and manifest keys: no path parts, separators or non-strings
        with pytest.raises(GenerationError):
            big_spec(env_id, 1, 0.5, 1.0, DirectionRule("fresh"))


class TestShortcutOracle:
    def test_beta_one_all_marked(self):
        specs = [big_spec("ALL", 41, 1.0, 1.0, DirectionRule("fresh"), n_test=300),
                 big_spec("PAD", 42, 0.5, 1.0, DirectionRule("fresh"), n_test=10)]
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
        family, specs = default_family(n_train=10, n_test=10)
        assert tuple(family.specs) == envs.ENVS
        assert tuple(s.env_id for s in specs) == envs.ENVS

    def test_direction_relations(self):
        family, _ = default_family(n_train=10, n_test=10)
        assert family.directions["B"] @ family.directions["C"] == pytest.approx(-1.0)
        assert family.directions["A"] @ family.directions["B"] == pytest.approx(0.0)

    def test_paper_profile_length_biases(self):
        _, specs = default_family(n_train=10, n_test=10)
        by_id = {s.env_id: s for s in specs}
        assert by_id["B"].length_bias == 0.315
        assert by_id["A"].length_bias == 0.598
        assert by_id["C"].length_bias == 0.678

    def test_fitted_shortcut_transfers_below_chance_to_negated_env(self):
        family, _ = default_family(n_train=10, n_test=2000)
        test_c = sample_env(family, "C", "test")
        assert projection_rule_accuracy(family, "B", test_c) <= 0.45


class TestDatasetIO:
    def test_npz_round_trip_bit_exact(self, small_sets, tmp_path):
        ds = small_sets[("P", "test")]
        path = tmp_path / "p_test.npz"
        write_dataset(ds, path)
        back = read_dataset(path, ds.fingerprint)
        assert back.env_id == ds.env_id and back.split == ds.split
        for a, b in zip(ds.samples, back.samples):
            assert np.array_equal(a.v, b.v) and np.array_equal(a.q, b.q)
            assert np.array_equal(a.a1, b.a1) and np.array_equal(a.a2, b.a2)
            assert a.y == b.y and a.shortcut_applied == b.shortcut_applied

    def test_record_schema(self, small_sets, tmp_path):
        ds = small_sets[("P", "test")]
        path = tmp_path / "rec.npz"
        write_dataset(ds, path)
        with np.load(path, allow_pickle=False) as npz:
            assert set(npz.files) == {"env_id", "split", "v", "q", "a1", "a2", "y",
                                      "planted"}
            assert npz["v"].shape == (len(ds), envs.D_V) and npz["y"].dtype == np.int8
            assert str(npz["env_id"]) == "P" and str(npz["split"]) == "test"

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
    def test_invalid_file_raises_generation_error(self, tmp_path, content):
        path = tmp_path / "bad.npz"
        path.write_bytes(content)
        with pytest.raises(GenerationError):
            read_dataset(path)

    def test_truncated_and_incomplete_archives_rejected(self, small_sets, tmp_path):
        ds = small_sets[("P", "test")]
        path = tmp_path / "p.npz"
        write_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(GenerationError):
            read_dataset(path)
        np.savez(path, v=ds.v, q=ds.q)  # a valid archive without the other columns
        with pytest.raises(GenerationError):
            read_dataset(path)

    # recorded while a spec still carried marker_follows and an explicit
    # direction vector; spec_to_dict writes their old values, so a lab's
    # family.json and dataset fingerprints keep their bytes
    DEFAULT_TRAIN_FINGERPRINTS = {
        "A": "c2d89be9854cd636981ac8e940b32c7e163fc20e4cd02723af4b6cb95424cb0c",
        "B": "c6ff44e15402d203b8f481b4f99191d914ca6524343c5345fdf913100aa5d638",
        "C": "8340964f3f403a0beedeccbaa5244447906b34ee7e439d2a8422957a352c25d1",
    }

    def test_default_fingerprints_unchanged(self):
        family, specs = default_family()
        assert {s.env_id: dataset_fingerprint(family, s, "train")
                for s in specs} == self.DEFAULT_TRAIN_FINGERPRINTS
