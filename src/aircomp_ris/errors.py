"""The package's two exception types, one per CLI exit code."""


class AirCompError(Exception):
    """A solver fault (exit 2): operands of unequal lengths, a trial whose
    every estimate is zero, a perturbation outside its ball, or a result
    that is not finite. The message says which."""


class ConfigError(AirCompError, ValueError):
    """Bad input (exit 1): a config, a flag or a value out of its range,
    raised by the rule that checks it. A ValueError, so library callers
    that catch one still do."""
