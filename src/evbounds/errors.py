"""Exception types shared across the package."""


class SingularSymbolError(ValueError):
    """A Fourier multiplier is evaluated exactly on one of its poles."""


class SupportError(ValueError):
    """A potential's support does not fit the requested box or cell cover."""


class EmptySupportError(SupportError):
    """An operation that needs a nontrivial potential got the zero field."""


class ConfigError(ValueError):
    """A run configuration failed validation."""
