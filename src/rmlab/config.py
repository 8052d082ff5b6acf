"""The lab's names and training settings, kept free of numpy: the CLI reads
a config, checks a lab and reuses its outputs without loading the array stack.

ENVS names the default family's environments in report order; MODES names the
three training modes; TrainConfig holds one training run's hyperparameters.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError

ENVS = ("A", "B", "C")  # the default family's environments, in report order
MODES = ("standard", "text_only", "shortcut_aware")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run."""

    mode: str
    base_lr: float = 5e-4
    epochs: int = 44
    batch_size: int = 64
    weight_decay: float = 0.05
    warmup_ratio: float = 0.1
    seed: int = 0
    hidden: int = 64
    aux_lr_scale: float = 8.0  # text branch lr multiplier; see note in training.train()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        for f in fields(self)[1:]:  # after mode, each field takes its default's type
            value, kind = getattr(self, f.name), type(f.default)
            if (isinstance(value, bool) != (kind is bool)
                    or not isinstance(value, (int, float) if kind is float else kind)):
                raise ConfigError(f"{f.name} must be {kind.__name__}, got {value!r}")
        if min(self.batch_size, self.epochs, self.hidden) < 1:
            raise ConfigError("batch_size, epochs and hidden must be >= 1")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ConfigError("warmup_ratio must be in [0, 1)")
        # chained comparisons are False for NaN, so these also reject it
        if not (0.0 < self.base_lr < math.inf and 0.0 < self.aux_lr_scale < math.inf):
            raise ConfigError("base_lr and aux_lr_scale must be finite and > 0")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError("weight_decay must be finite and >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """Keys that are not fields are ignored, so a ``run.json`` that records
        a setting this version no longer has still loads."""
        return cls(**{f.name: doc[f.name] for f in fields(cls) if f.name in doc})
