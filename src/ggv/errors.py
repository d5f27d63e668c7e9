"""Exception and warning types shared across the package."""


class GgvError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GgvError, ValueError):
    """An input lies outside the carrier or norm-value set of its model."""


class ConfigError(GgvError, ValueError):
    """A model configuration is malformed or inconsistent."""


class PreconditionError(GgvError, ValueError):
    """An operation's hypothesis fails, e.g. a map is not gyrometric preserving."""


class MapConstructionError(GgvError, RuntimeError):
    """A generated map failed its gyrometric-preservation check."""


class SamplingError(GgvError, RuntimeError):
    """A sampler found no draw meeting its separation threshold."""


class BoundaryClampWarning(RuntimeWarning):
    """A ball-model result was pulled back inside the open ball after rounding."""
