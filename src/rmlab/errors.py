"""The exception types a caller catches. ``cli.main`` turns a LabError into
exit 2; the numeric kernels' domain checks raise ValueError."""


class LabError(Exception):
    """Base class for all rmlab errors."""


class ConfigError(LabError):
    """Invalid training or experiment configuration."""


class MissingArtifactError(LabError):
    """A required on-disk artifact is absent or fails its hash check."""
