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

import hashlib
import json
import re
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .errors import FamilyError, GenerationError

D_V = 16
D_Q = 8
D_A = 16
LENGTH_COORD = 15  # designated answer coordinate acting as the "length" proxy
RESERVED_COORDS = (11, 12, 13, 14)  # answer coordinates reserved for shortcut markers
W_RANK = 2  # rank of the image-answer interaction; keeps it learnable at this scale
M_SCALE = 0.2  # query-interaction scale; keeps the text-only ceiling near chance
SHORTCUT_NOISE = 0.45  # background std of an environment's own marker coordinate
CORRUPTION_EPS = 0.3  # answer-twin spread of marker-carrying pairs
LENGTH_RNG_TAG = 0x6C656E  # split-level stream for length-order forcing

DEFAULT_FAMILY_SEED = 20240 + 7
ENVS = ("A", "B", "C")  # the default family's environments, in report order


@dataclass(frozen=True)
class DirectionRule:
    """How an environment's shortcut direction is obtained.

    kind: "fresh" (next unused family direction), "orthogonal_to" (next
    unused direction, asserted orthogonal to ``ref``'s), or "negated" (minus
    ``ref``'s direction).
    """

    kind: str
    ref: str | None = None

    def __post_init__(self):
        if self.kind not in ("fresh", "orthogonal_to", "negated"):
            raise FamilyError(f"unknown direction rule {self.kind!r}")
        if self.kind in ("orthogonal_to", "negated") and not self.ref:
            raise FamilyError(f"direction rule {self.kind!r} needs a ref env")


@dataclass(frozen=True)
class EnvironmentSpec:
    """Generative parameters of one preference environment.

    A planted marker sits on whichever answer ends up chosen, after the label
    flip (synthetic-corruption analog: the label is defined by the
    corruption, so the marker is perfectly aligned with it).
    """

    env_id: str
    seed: int
    n_train: int
    n_test: int
    beta: float  # probability the shortcut marker is planted
    alpha: float  # marker magnitude along the shortcut direction
    direction: DirectionRule
    eta: float = 0.05  # label flip probability
    length_bias: float = 0.5  # target fraction of pairs with a longer chosen answer

    def __post_init__(self):
        # env_id names files and manifest keys (``dataset:<env>:<split>``)
        if not (isinstance(self.env_id, str) and re.fullmatch(r"[A-Za-z0-9_-]+", self.env_id)):
            raise GenerationError(f"env_id {self.env_id!r} must be a nonempty string of "
                                  "letters, digits, '_' and '-'")
        for name in ("beta", "eta", "length_bias"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise GenerationError(f"{self.env_id}: {name}={val} outside [0, 1]")
        if self.alpha < 0:
            raise GenerationError(f"{self.env_id}: alpha must be >= 0")
        if self.seed < 0:
            raise GenerationError(f"{self.env_id}: seed must be >= 0")
        if self.n_train < 1 or self.n_test < 1:
            raise GenerationError(f"{self.env_id}: split sizes must be >= 1")


@dataclass
class PreferenceSample:
    """One preference instance: image/query features plus an answer pair."""

    v: np.ndarray
    q: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    y: int  # +1 if a1 chosen, -1 if a2 chosen
    shortcut_applied: bool


COLUMNS = ("v", "q", "a1", "a2", "y", "planted")


@dataclass
class Dataset:
    """One environment split as columns, one row per preference pair, plus its
    generator fingerprint.

    v (n, D_V), q (n, D_Q), a1/a2 (n, D_A) float64; y (n,) int8 (+1 if a1 is
    chosen, -1 if a2); planted (n,) bool, the shortcut-marker flag.
    """

    env_id: str
    split: str
    v: np.ndarray = field(default_factory=lambda: np.zeros((0, D_V)))
    q: np.ndarray = field(default_factory=lambda: np.zeros((0, D_Q)))
    a1: np.ndarray = field(default_factory=lambda: np.zeros((0, D_A)))
    a2: np.ndarray = field(default_factory=lambda: np.zeros((0, D_A)))
    y: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int8))
    planted: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    fingerprint: str = ""

    def __len__(self) -> int:
        return len(self.y)

    @property
    def samples(self) -> list:
        """Per-pair row views onto the columns."""
        return [PreferenceSample(v=self.v[i], q=self.q[i], a1=self.a1[i], a2=self.a2[i],
                                 y=int(self.y[i]), shortcut_applied=bool(self.planted[i]))
                for i in range(len(self))]


class EnvironmentFamily:
    """Shared invariant signal plus resolved per-environment shortcuts."""

    def __init__(self, family_seed: int, specs: list):
        if type(family_seed) is not int:  # a bool, float or string is not a seed
            raise FamilyError(f"family_seed={family_seed!r} is not an integer")
        if len(specs) < 2:
            raise FamilyError("a family needs at least 2 environments")
        ids = [s.env_id for s in specs]
        if len(set(ids)) != len(ids):
            raise FamilyError("duplicate env_id in family")

        self.family_seed = family_seed
        self.specs = {s.env_id: s for s in specs}

        # Shortcut directions sit on reserved answer coordinates. Axis
        # alignment matters: AdamW's per-coordinate normalization is not
        # rotation invariant, so a direction that is merely orthogonal to all
        # training gradients (but not axis aligned) would still accumulate an
        # arbitrary learned response, making cross-environment scores depend
        # on leftover noise instead of staying exactly neutral.
        self.reserved_dirs = np.zeros((len(RESERVED_COORDS), D_A))
        for row, coord in enumerate(RESERVED_COORDS):
            self.reserved_dirs[row, coord] = 1.0

        rng = np.random.default_rng([self.family_seed, 0])
        # Low-rank image-answer interaction: a handful of sample pairs per
        # latent direction suffices to pick it up, which keeps the invariant
        # signal learnable from the marker-free fraction of a training set.
        left = rng.standard_normal((D_V, W_RANK))
        right = rng.standard_normal((W_RANK, D_A))
        w_raw = left @ right / np.sqrt(W_RANK)
        m_raw = M_SCALE * rng.standard_normal((D_Q, D_A))
        # Annihilate the spurious block: shortcut markers and the length
        # coordinate must carry no genuine quality signal.
        w_raw[:, list(RESERVED_COORDS) + [LENGTH_COORD]] = 0.0
        m_raw[:, list(RESERVED_COORDS) + [LENGTH_COORD]] = 0.0
        self.w = w_raw
        self.m = m_raw

        self.directions = self._resolve_directions(specs)

    def _resolve_directions(self, specs) -> dict:
        dirs = {}
        next_free = 0
        for spec in specs:
            rule = spec.direction
            if rule.kind in ("fresh", "orthogonal_to"):
                if next_free >= len(RESERVED_COORDS):
                    raise FamilyError(
                        f"family supports at most {len(RESERVED_COORDS)} distinct directions")
                u = self.reserved_dirs[next_free].copy()
                next_free += 1
                if rule.kind == "orthogonal_to":
                    ref = dirs.get(rule.ref)
                    if ref is None:
                        raise FamilyError(f"{spec.env_id}: unknown ref env {rule.ref!r}")
                    if abs(float(u @ ref)) > 1e-9:
                        raise FamilyError("reserved directions are not orthogonal")
            else:  # negated
                ref = dirs.get(rule.ref)
                if ref is None:
                    raise FamilyError(f"{spec.env_id}: unknown ref env {rule.ref!r}")
                u = -ref
            dirs[spec.env_id] = u
        return dirs

    def true_scores(self, v, q, answers: np.ndarray) -> np.ndarray:
        """Vectorized invariant scores for an (n, D_A) answer matrix."""
        return answers @ (self.w.T @ v + self.m.T @ q)

    def score_scale(self) -> float:
        """Std of s(v, q, a) over standard-normal inputs."""
        return float(np.sqrt(np.sum(self.w ** 2) + np.sum(self.m ** 2)))

    def strip_shortcut_components(self, answers: np.ndarray) -> np.ndarray:
        """Zero the reserved shortcut coordinates of an (n, D_A) answer block."""
        out = answers.copy()
        out[:, list(RESERVED_COORDS)] = 0.0
        return out


def spec_to_dict(spec: EnvironmentSpec) -> dict:
    # "marker_follows" and "vector" name settings that are gone; their fixed
    # values keep family.json and every dataset fingerprint byte-identical
    rule = spec.direction
    return {
        "env_id": spec.env_id, "seed": spec.seed,
        "n_train": spec.n_train, "n_test": spec.n_test,
        "beta": spec.beta, "alpha": spec.alpha, "eta": spec.eta,
        "length_bias": spec.length_bias, "marker_follows": "label",
        "direction": {"kind": rule.kind, "ref": rule.ref, "vector": None},
    }


def default_family(family_seed: int = DEFAULT_FAMILY_SEED,
                   n_train: int = 8000, n_test: int = 1000):
    """The three-environment default family.

    B's near-deterministic shortcut makes it perfectly separable by text
    alone; C's direction is the negation of B's so a B-fitted shortcut
    transfers below chance; A's direction is orthogonal to both.
    """
    a, b, c = ENVS
    specs = [
        EnvironmentSpec(a, seed=family_seed + 1, n_train=n_train, n_test=n_test,
                        beta=0.85, alpha=1.0, direction=DirectionRule("fresh"),
                        eta=0.05, length_bias=0.598),
        EnvironmentSpec(b, seed=family_seed + 2, n_train=n_train, n_test=n_test,
                        beta=0.99, alpha=2.0,
                        direction=DirectionRule("orthogonal_to", ref=a),
                        eta=0.05, length_bias=0.315),
        EnvironmentSpec(c, seed=family_seed + 3, n_train=n_train, n_test=n_test,
                        beta=0.85, alpha=1.0,
                        direction=DirectionRule("negated", ref=b),
                        eta=0.05, length_bias=0.678),
    ]
    return EnvironmentFamily(family_seed, specs), specs


_SPLIT_CODES = {"train": 0, "test": 1}


def dataset_fingerprint(family: EnvironmentFamily, spec: EnvironmentSpec, split: str) -> str:
    doc = {"family_seed": family.family_seed, "split": split,
           "spec": spec_to_dict(spec), "m_scale": M_SCALE}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def sample_env(family: EnvironmentFamily, env_id: str, split: str) -> Dataset:
    """Generate one environment split.

    Each sample has its own seeded stream (seed, split, index) so generation
    is order-independent and parallel-safe; the length-order forcing pass
    uses a separate split-level stream.
    """
    spec = family.specs.get(env_id)
    if spec is None:
        raise GenerationError(f"env {env_id!r} is not part of this family")
    if split not in _SPLIT_CODES:
        raise GenerationError(f"unknown split {split!r}")
    code = _SPLIT_CODES[split]
    n = spec.n_train if split == "train" else spec.n_test
    u_dir = family.directions[env_id]
    own_coords = np.flatnonzero(u_dir)

    cols = Dataset(env_id, split, v=np.empty((n, D_V)), q=np.empty((n, D_Q)),
                   a1=np.empty((n, D_A)), a2=np.empty((n, D_A)),
                   y=np.empty(n, dtype=np.int8), planted=np.empty(n, dtype=bool),
                   fingerprint=dataset_fingerprint(family, spec, split))
    for i in range(n):
        rng = np.random.default_rng([spec.seed, code, i])
        v = rng.standard_normal(D_V)
        q = rng.standard_normal(D_Q)
        applied = rng.random() < spec.beta
        first = rng.standard_normal(D_A)
        if applied:
            # Marker-carrying pairs are corruption-style: the second answer
            # is a lightly perturbed twin of the first, so the pair carries
            # almost no invariant-signal margin and the planted marker is
            # what separates it. Mirrors preference data built by injecting
            # defects into a copy of the good response.
            second = first + CORRUPTION_EPS * rng.standard_normal(D_A)
        else:
            second = rng.standard_normal(D_A)
        answers = family.strip_shortcut_components(np.stack([first, second]))
        marker_noise = SHORTCUT_NOISE * rng.standard_normal((2, own_coords.size))
        s = family.true_scores(v, q, answers)
        y_clean = 1 if s[0] > s[1] else -1
        y = -y_clean if rng.random() < spec.eta else y_clean
        if applied:
            answers[0 if y == 1 else 1] += spec.alpha * u_dir
        else:
            # Unplanted pairs carry low-variance background noise on the
            # marker coordinates; any learned marker weight only adds margin
            # noise there, so these pairs actively push that weight down.
            # That is the channel through which downweighting marker pairs
            # changes what gets learned.
            answers[:, own_coords] = marker_noise
        cols.v[i], cols.q[i], cols.a1[i], cols.a2[i] = v, q, answers[0], answers[1]
        cols.y[i], cols.planted[i] = y, applied

    _force_length_order(cols, spec, code, n)
    return cols


def _force_length_order(dataset, spec, split_code, n):
    """Swap length coordinates so exactly round(length_bias * n) pairs have a
    longer chosen answer. Swapping preserves each coordinate's marginal law."""
    rng = np.random.default_rng([spec.seed, split_code, LENGTH_RNG_TAG])
    k = int(round(spec.length_bias * n))
    chosen_longer = np.zeros(n, dtype=bool)
    chosen_longer[rng.permutation(n)[:k]] = True
    len1 = dataset.a1[:, LENGTH_COORD].copy()
    len2 = dataset.a2[:, LENGTH_COORD].copy()
    first_chosen = dataset.y == 1
    is_longer = np.where(first_chosen, len1 > len2, len2 > len1)
    swap = chosen_longer != is_longer
    dataset.a1[swap, LENGTH_COORD] = len2[swap]
    dataset.a2[swap, LENGTH_COORD] = len1[swap]


def write_dataset(dataset: Dataset, path) -> None:
    """One uncompressed .npz archive: the COLUMNS plus 0-d ``env_id`` and
    ``split`` strings. Members carry a fixed timestamp, so equal datasets
    give byte-identical files."""
    arrays = {"env_id": np.array(dataset.env_id), "split": np.array(dataset.split),
              **{c: getattr(dataset, c) for c in COLUMNS}}
    with zipfile.ZipFile(path, "w") as zf:
        for name, arr in arrays.items():
            with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, arr, allow_pickle=False)


_COLUMN_TYPES = {"v": ((D_V,), np.float64), "q": ((D_Q,), np.float64),
                 "a1": ((D_A,), np.float64), "a2": ((D_A,), np.float64),
                 "y": ((), np.int8), "planted": ((), np.bool_)}


def read_dataset(path, fingerprint: str = "") -> Dataset:
    """Load a file written by write_dataset; anything else raises GenerationError."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            arrays = {k: npz[k] for k in ("env_id", "split") + COLUMNS}
    except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise GenerationError(f"{path} is not a valid dataset file ({exc})") from None
    n = len(arrays["y"]) if arrays["y"].ndim == 1 else -1
    bad = [c for c, (shape, dtype) in _COLUMN_TYPES.items()
           if arrays[c].shape != (n, *shape) or arrays[c].dtype != dtype]
    if n < 1 or bad:
        raise GenerationError(f"{path} is not a valid dataset file "
                              f"(empty, or bad columns {bad})")
    return Dataset(str(arrays["env_id"]), str(arrays["split"]),
                   **{c: arrays[c] for c in COLUMNS}, fingerprint=fingerprint)

