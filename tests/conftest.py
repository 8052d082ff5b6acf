import numpy as np
import pytest

from rmlab.envs import EnvironmentFamily, EnvironmentSpec, sample_env
from rmlab.net import NetDims


@pytest.fixture(scope="session")
def small_family():
    """A cheap two-environment family for unit tests."""
    specs = [
        EnvironmentSpec("P", seed=901, n_train=1500, n_test=500, beta=0.85, alpha=1.0,
                        direction="fresh", eta=0.05, length_bias=0.6),
        EnvironmentSpec("Q", seed=902, n_train=1500, n_test=500, beta=0.0, alpha=0.0,
                        direction="fresh", eta=0.05, length_bias=0.5),
    ]
    family = EnvironmentFamily(55, specs)
    return family, specs


@pytest.fixture(scope="session")
def small_sets(small_family):
    family, _ = small_family
    return {
        ("P", "train"): sample_env(family, "P", "train"),
        ("P", "test"): sample_env(family, "P", "test"),
        ("Q", "train"): sample_env(family, "Q", "train"),
        ("Q", "test"): sample_env(family, "Q", "test"),
    }


@pytest.fixture(scope="session")
def true_margins():
    """Invariant-signal margin, chosen minus rejected, of every pair of a
    dataset: the Bayes rule picks the chosen answer where it is positive."""
    def margins(family, ds):
        diff = np.where((ds.y == 1)[:, None], ds.a1 - ds.a2, ds.a2 - ds.a1)
        return np.einsum("ij,ij->i", ds.v @ family.w + ds.q @ family.m, diff)
    return margins


@pytest.fixture(scope="session")
def default_dims():
    return NetDims(d_v=16, d_q=8, d_a=16, hidden=32)


@pytest.fixture()
def random_sample(default_dims):
    rng = np.random.default_rng(321)
    from rmlab.envs import PreferenceSample

    return PreferenceSample(
        v=rng.standard_normal(default_dims.d_v),
        q=rng.standard_normal(default_dims.d_q),
        a1=rng.standard_normal(default_dims.d_a),
        a2=rng.standard_normal(default_dims.d_a),
        y=1,
        shortcut_applied=False,
    )
