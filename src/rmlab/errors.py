"""Exception types shared across the lab."""


class LabError(Exception):
    """Base class for all rmlab errors."""


class DimensionError(LabError):
    """Input shape does not match the declared dimensions."""


class DomainError(LabError):
    """Numeric argument outside its valid domain."""


class GenerationError(LabError):
    """A dataset file is not a valid ``write_dataset`` archive."""


class ConfigError(LabError):
    """Invalid training or experiment configuration."""


class ScheduleExhausted(LabError):
    """Optimizer stepped past its configured total step count."""


class MissingArtifactError(LabError):
    """A required on-disk artifact is absent or fails its hash check."""
