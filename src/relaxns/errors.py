"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input is outside the physical domain of an operation (e.g. rho <= 0)."""


class StructureError(ValueError):
    """A coefficient matrix cannot be formed (e.g. tau = 0 degenerates A0)."""


class FieldError(ValueError):
    """A config dataclass rejected a value; `field` names the offending field."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(message)


class ConfigError(ValueError):
    """A configuration file failed to parse or violated an invariant."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NumericalAbort(RuntimeError):
    """Time integration produced an inadmissible state (NaN/Inf or rho <= 0)."""

    def __init__(self, message, step=None, cell=None):
        self.step = step
        self.cell = cell
        super().__init__(message)
