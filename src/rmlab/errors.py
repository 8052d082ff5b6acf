"""Exception types shared across the lab."""


class LabError(Exception):
    """Base class for all rmlab errors."""


class DimensionError(LabError):
    """Input shape does not match the declared dimensions."""


class DomainError(LabError):
    """Numeric argument outside its valid domain."""


class FamilyError(LabError):
    """Invalid environment-family construction."""


class GenerationError(LabError):
    """Invalid environment spec at sampling time."""


class ConfigError(LabError):
    """Invalid training or experiment configuration."""


class ScheduleExhausted(LabError):
    """Optimizer stepped past its configured total step count."""


class DegenerateSplitError(LabError):
    """The evaluation set is empty, so the metric is undefined."""


class MissingArtifactError(LabError):
    """A required on-disk artifact is absent or fails its hash check."""
