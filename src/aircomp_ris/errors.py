"""Exception types shared across the package."""


class AirCompError(Exception):
    """Base class for all package-specific errors."""


class InvalidDimension(AirCompError):
    """A vector length or count is outside its valid range."""


class DimensionMismatch(AirCompError):
    """Two operands that must share a length do not."""


class AllZeroScalers(AirCompError):
    """Every effective transmit scalar is zero; m and t_k cannot be recovered."""


class PerturbationOutOfBall(AirCompError):
    """A supplied CSI perturbation exceeds its uncertainty radius."""


class ConfigError(AirCompError):
    """A run configuration file failed schema validation."""
