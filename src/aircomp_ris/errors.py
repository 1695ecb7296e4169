"""Exception types shared across the package."""


class AirCompError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(AirCompError):
    """Two operands that must share a length do not."""


class AllZeroScalers(AirCompError):
    """Every channel estimate of a trial is zero, so no design can serve it."""


class PerturbationOutOfBall(AirCompError):
    """A supplied CSI perturbation exceeds its uncertainty radius."""


class ConfigError(AirCompError):
    """A run configuration file failed validation."""
