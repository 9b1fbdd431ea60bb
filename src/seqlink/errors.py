"""Exception types shared across the package."""


class SeqlinkError(Exception):
    """Base class for all package-specific failures."""


class NotPositiveDefinite(SeqlinkError):
    """A matrix that must be positive definite failed factorization."""


class ConfigError(SeqlinkError):
    """A configuration file or CLI argument failed validation."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")
