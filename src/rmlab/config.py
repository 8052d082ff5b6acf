"""The lab's names and training settings, kept free of numpy: the CLI reads
a config, checks a lab and reuses its outputs without loading the array stack.

ENVS names the default family's environments in report order; MODES names the
three training modes; TrainConfig holds one training run's hyperparameters;
canonical_hash is the one hash of a JSON document, for configs.
"""

from __future__ import annotations

import hashlib
import json
import math
import reprlib
from collections import namedtuple

from .errors import ConfigError

ENVS = ("A", "B", "C")  # the default family's environments, in report order
MODES = ("standard", "text_only", "shortcut_aware")


def canonical_hash(doc) -> str:
    """sha256 of ``doc`` as compact JSON with sorted keys."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


class TrainConfig(namedtuple("TrainConfig", "mode base_lr epochs batch_size weight_decay "
                             "warmup_ratio seed hidden aux_lr_scale",
                             # aux_lr_scale, the text branch lr multiplier: see training.train()
                             defaults=(5e-4, 44, 64, 0.05, 0.1, 0, 64, 8.0))):
    """Hyperparameters of one training run, immutable and checked when made."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {reprlib.repr(self.mode)}")
        for name, default in self._field_defaults.items():  # each takes its default's type
            value, kind = getattr(self, name), type(default)
            if (isinstance(value, bool) != (kind is bool)
                    or not isinstance(value, (int, float) if kind is float else kind)):
                raise ConfigError(f"{name} must be {kind.__name__}, got {reprlib.repr(value)}")
        if min(self.batch_size, self.epochs, self.hidden) < 1:
            raise ConfigError("batch_size, epochs and hidden must be >= 1")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ConfigError("warmup_ratio must be in [0, 1)")
        # chained comparisons are False for NaN, so these also reject it
        if not (0.0 < self.base_lr < math.inf and 0.0 < self.aux_lr_scale < math.inf):
            raise ConfigError("base_lr and aux_lr_scale must be finite and > 0")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError("weight_decay must be finite and >= 0")
        return self

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """Keys that are not fields are ignored, so a ``run.json`` that records
        a setting this version no longer has still loads."""
        return cls(**{name: doc[name] for name in cls._fields if name in doc})
