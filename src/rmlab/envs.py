"""Synthetic multimodal preference environments.

A *family* of environments shares one invariant (low-rank) bilinear quality
signal

    s(v, q, a) = v' W a  +  q' M a

while each environment plants its own text-only shortcut: a unit marker on a
reserved answer coordinate, added to the chosen answer of a ``beta``
fraction of pairs. The invariant matrices annihilate the reserved block (all
marker coordinates plus a designated length coordinate), so markers and
lengths carry zero genuine quality information and the sign of the
invariant margin predicts labels at exactly 1 - eta in every environment.

Marker-carrying pairs are corruption-style: the rejected answer is a
lightly perturbed twin of the chosen one, so those pairs hold almost no
invariant-signal margin and the planted marker is what separates them
(mirroring preference data built by injecting defects into a copy of a good
response). Unplanted pairs are independent draws and carry low-variance
background noise on the environment's marker coordinates, which makes any
learned marker weight strictly harmful on them.

Answer coordinates reserved for other environments' markers are zeroed
everywhere, so a trained net's response to a foreign marker is exactly
neutral rather than an artifact of leftover random weights.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass

import numpy as np

from .config import ENVS
from .errors import GenerationError

D_V = 16
D_Q = 8
D_A = 16
LENGTH_COORD = 15  # designated answer coordinate acting as the "length" proxy
RESERVED_COORDS = (11, 12, 13, 14)  # answer coordinates reserved for shortcut markers
W_RANK = 2  # rank of the image-answer interaction; keeps it learnable at this scale
M_SCALE = 0.2  # query-interaction scale; keeps the text-only ceiling near chance
SHORTCUT_NOISE = 0.45  # background std of an environment's own marker coordinate
CORRUPTION_EPS = 0.3  # answer-twin spread of marker-carrying pairs
LENGTH_RNG_TAG = 0x6C656E  # split-level stream for the length order


@dataclass(frozen=True)
class EnvironmentSpec:
    """Generative parameters of one preference environment.

    A planted marker sits on whichever answer ends up chosen, after the label
    flip (synthetic-corruption analog: the label is defined by the
    corruption, so the marker is perfectly aligned with it).

    ``direction``: "negated" takes minus the ``ref`` environment's direction;
    "fresh" and "orthogonal_to" take the next unused reserved axis, which is
    orthogonal to every direction before it (``orthogonal_to`` keeps its
    ``ref`` only as a record in family.json).
    """

    env_id: str
    seed: int
    n_train: int
    n_test: int
    beta: float  # probability the shortcut marker is planted
    alpha: float  # marker magnitude along the shortcut direction
    direction: str
    eta: float = 0.05  # label flip probability
    length_bias: float = 0.5  # target fraction of pairs with a longer chosen answer
    ref: str | None = None  # the environment "negated" and "orthogonal_to" name


@dataclass
class PreferenceSample:
    """One preference instance: image/query features plus an answer pair."""

    v: np.ndarray
    q: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    y: int  # +1 if a1 chosen, -1 if a2 chosen
    shortcut_applied: bool


_COLUMN_TYPES = {"v": ((D_V,), np.float64), "q": ((D_Q,), np.float64),
                 "a1": ((D_A,), np.float64), "a2": ((D_A,), np.float64),
                 "y": ((), np.int8), "planted": ((), np.bool_)}
COLUMNS = tuple(_COLUMN_TYPES)  # the columns, in file order


@dataclass
class Dataset:
    """One environment split as columns, one row per preference pair.

    v (n, D_V), q (n, D_Q), a1/a2 (n, D_A) float64; y (n,) int8 (+1 if a1 is
    chosen, -1 if a2); planted (n,) bool, the shortcut-marker flag.
    """

    v: np.ndarray
    q: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    y: np.ndarray
    planted: np.ndarray

    def __len__(self) -> int:
        return len(self.y)

    @property
    def samples(self) -> list:
        """Per-pair row views onto the columns."""
        return [PreferenceSample(v=self.v[i], q=self.q[i], a1=self.a1[i], a2=self.a2[i],
                                 y=int(self.y[i]), shortcut_applied=bool(self.planted[i]))
                for i in range(len(self))]


class EnvironmentFamily:
    """Shared invariant signal plus resolved per-environment shortcuts, all
    fixed at construction: the interaction matrices ``w`` (D_V, D_A) and ``m``
    (D_Q, D_A); ``score_scale``, the std of s(v, q, a) over standard-normal
    inputs; and ``directions``, env_id -> (D_A,) unit shortcut direction."""

    def __init__(self, family_seed: int, specs: list):
        self.family_seed = family_seed
        self.specs = {s.env_id: s for s in specs}

        rng = np.random.default_rng([self.family_seed, 0])
        # Low-rank image-answer interaction: a handful of sample pairs per
        # latent direction suffices to pick it up, which keeps the invariant
        # signal learnable from the marker-free fraction of a training set.
        left = rng.standard_normal((D_V, W_RANK))
        right = rng.standard_normal((W_RANK, D_A))
        self.w = left @ right / np.sqrt(W_RANK)
        self.m = M_SCALE * rng.standard_normal((D_Q, D_A))
        # Annihilate the spurious block: shortcut markers and the length
        # coordinate must carry no genuine quality signal.
        self.w[:, list(RESERVED_COORDS) + [LENGTH_COORD]] = 0.0
        self.m[:, list(RESERVED_COORDS) + [LENGTH_COORD]] = 0.0
        self.score_scale = float(np.sqrt(np.sum(self.w ** 2) + np.sum(self.m ** 2)))

        # Shortcut directions sit on reserved answer coordinates. Axis
        # alignment matters: AdamW's per-coordinate normalization is not
        # rotation invariant, so a direction that is merely orthogonal to all
        # training gradients (but not axis aligned) would still accumulate an
        # arbitrary learned response, making cross-environment scores depend
        # on leftover noise instead of staying exactly neutral.
        dirs, free = {}, iter(RESERVED_COORDS)  # "fresh", "orthogonal_to": next axis
        for spec in specs:
            dirs[spec.env_id] = (-dirs[spec.ref] if spec.direction == "negated"
                                 else np.eye(D_A)[next(free)])
        self.directions = dirs

    def true_scores(self, v, q, answers: np.ndarray) -> np.ndarray:
        """Invariant scores of (..., k, D_A) answer blocks, for (..., D_V) v and
        (..., D_Q) q; stacked ``np.matmul`` makes the per-slice gemv calls that
        one (v, q) context makes."""
        c = np.matmul(self.w.T, v[..., None]) + np.matmul(self.m.T, q[..., None])
        return np.matmul(answers, c)[..., 0]

    def strip_shortcut_components(self, answers: np.ndarray) -> np.ndarray:
        """Zero the reserved shortcut coordinates of a (..., D_A) answer block
        in place, and return it."""
        answers[..., list(RESERVED_COORDS)] = 0.0
        return answers


def spec_to_dict(spec: EnvironmentSpec) -> dict:
    # "marker_follows" and "vector" name settings that are gone; their fixed
    # values keep family.json byte-identical
    return {
        "env_id": spec.env_id, "seed": spec.seed,
        "n_train": spec.n_train, "n_test": spec.n_test,
        "beta": spec.beta, "alpha": spec.alpha, "eta": spec.eta,
        "length_bias": spec.length_bias, "marker_follows": "label",
        "direction": {"kind": spec.direction, "ref": spec.ref, "vector": None},
    }


def default_family(family_seed: int, n_train: int, n_test: int) -> EnvironmentFamily:
    """The three-environment default family.

    B's near-deterministic shortcut makes it perfectly separable by text
    alone; C's direction is the negation of B's so a B-fitted shortcut
    transfers below chance; A's direction is orthogonal to both.
    """
    a, b, c = ENVS
    specs = [
        EnvironmentSpec(a, seed=family_seed + 1, n_train=n_train, n_test=n_test,
                        beta=0.85, alpha=1.0, direction="fresh",
                        eta=0.05, length_bias=0.598),
        EnvironmentSpec(b, seed=family_seed + 2, n_train=n_train, n_test=n_test,
                        beta=0.99, alpha=2.0, direction="orthogonal_to", ref=a,
                        eta=0.05, length_bias=0.315),
        EnvironmentSpec(c, seed=family_seed + 3, n_train=n_train, n_test=n_test,
                        beta=0.85, alpha=1.0, direction="negated", ref=b,
                        eta=0.05, length_bias=0.678),
    ]
    return EnvironmentFamily(family_seed, specs)


_SPLIT_CODES = {"train": 0, "test": 1}


def sample_env(family: EnvironmentFamily, env_id: str, split: str) -> Dataset:
    """Generate one environment split.

    Each sample has its own seeded stream (seed, split, index) so generation
    is order-independent and parallel-safe. Pair i draws, in order: v and q,
    the plant draw, both raw answers and the marker noise, the label-flip
    draw. The loop only draws; the arithmetic runs once over the split. The
    length order is set in the same pass, from a separate split-level stream,
    on the (n, 2, D_A) answer block before the a1 and a2 columns are cut.
    """
    spec = family.specs[env_id]
    code = _SPLIT_CODES[split]
    n = spec.n_train if split == "train" else spec.n_test
    u_dir = family.directions[env_id]
    own_coords = np.flatnonzero(u_dir)

    vq = np.empty((n, D_V + D_Q))
    raw = np.empty((n, 2 * D_A + 2 * own_coords.size))  # first | second | marker noise
    plant_u, flip_u = np.empty(n), np.empty(n)
    for i in range(n):
        rng = np.random.default_rng([spec.seed, code, i])
        rng.standard_normal(out=vq[i])
        plant_u[i] = rng.random()
        rng.standard_normal(out=raw[i])
        flip_u[i] = rng.random()

    v, q = vq[:, :D_V].copy(), vq[:, D_V:].copy()
    applied = plant_u < spec.beta
    first, second = raw[:, :D_A], raw[:, D_A:2 * D_A]
    # Marker-carrying pairs are corruption-style: the second answer is a
    # lightly perturbed twin of the first, so the pair carries almost no
    # invariant-signal margin and the planted marker is what separates it.
    # Mirrors preference data built by injecting defects into a copy of the
    # good response.
    second = np.where(applied[:, None], first + CORRUPTION_EPS * second, second)
    answers = family.strip_shortcut_components(np.stack([first, second], axis=1))
    s = family.true_scores(v, q, answers)
    y_clean = np.where(s[:, 0] > s[:, 1], 1, -1).astype(np.int8)
    y = np.where(flip_u < spec.eta, -y_clean, y_clean)
    rows = np.flatnonzero(applied)
    answers[rows, np.where(y[rows] == 1, 0, 1)] += spec.alpha * u_dir  # onto the chosen answer
    # Unplanted pairs carry low-variance background noise on the marker
    # coordinates; any learned marker weight only adds margin noise there, so
    # these pairs actively push that weight down. That is the channel through
    # which downweighting marker pairs changes what gets learned.
    rows = np.flatnonzero(~applied)
    marker_noise = SHORTCUT_NOISE * raw[:, 2 * D_A:].reshape(n, 2, own_coords.size)
    answers[np.ix_(rows, [0, 1], own_coords)] = marker_noise[rows]

    # Swap length coordinates so exactly round(length_bias * n) pairs have a
    # longer chosen answer; a swap keeps each coordinate's marginal law.
    rng = np.random.default_rng([spec.seed, code, LENGTH_RNG_TAG])
    chosen_longer = np.zeros(n, dtype=bool)
    chosen_longer[rng.permutation(n)[:int(round(spec.length_bias * n))]] = True
    lengths = answers[:, :, LENGTH_COORD]  # (n, 2) view: first | second
    is_longer = np.where(y == 1, lengths[:, 0] > lengths[:, 1], lengths[:, 1] > lengths[:, 0])
    swap = chosen_longer != is_longer
    lengths[swap] = lengths[swap, ::-1]
    return Dataset(v=v, q=q, a1=answers[:, 0].copy(), a2=answers[:, 1].copy(),
                   y=y, planted=applied)


def write_dataset(dataset: Dataset, path) -> None:
    """One uncompressed .npz archive of the COLUMNS. Members carry a fixed
    timestamp, so equal datasets give byte-identical files."""
    with zipfile.ZipFile(path, "w") as zf:
        for name in COLUMNS:
            with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, getattr(dataset, name), allow_pickle=False)


def read_dataset(path) -> Dataset:
    """Load a file written by write_dataset; anything else raises
    GenerationError. Other members are ignored, so an archive that still
    holds the 0-d ``env_id`` and ``split`` of older versions reads the same."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            arrays = {k: npz[k] for k in COLUMNS}
    except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise GenerationError(f"{path} is not a valid dataset file ({exc})") from None
    n = len(arrays["y"]) if arrays["y"].ndim == 1 else -1
    bad = [c for c, (shape, dtype) in _COLUMN_TYPES.items()
           if arrays[c].shape != (n, *shape) or arrays[c].dtype != dtype]
    if n < 1 or bad:
        raise GenerationError(f"{path} is not a valid dataset file "
                              f"(empty, or bad columns {bad})")
    return Dataset(**arrays)

