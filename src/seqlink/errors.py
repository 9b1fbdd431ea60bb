"""Exception types shared across the package."""


class SeqlinkError(Exception):
    """Base class for all package-specific failures."""


class NotPositiveDefinite(SeqlinkError):
    """A matrix that must be positive definite failed factorization."""


class ConfigError(SeqlinkError, ValueError):
    """A setting failed validation; key names it. Each setting is checked
    once, where it is defined: the dataclass that holds it (or
    solvers.check_distance) checks its value, config.py its key and type.
    A ValueError too, so callers that catch ValueError catch it."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")
