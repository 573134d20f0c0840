"""Exception types shared across the package.

Every type round-trips through pickle with its message and attributes, so an
error raised in a worker process reaches the parent intact.
"""


class DomainError(ValueError):
    """An input is outside the physical domain of an operation (e.g. rho <= 0)."""


class StructureError(ValueError):
    """A coefficient matrix cannot be formed (e.g. tau = 0 degenerates A0)."""


class FieldError(ValueError):
    """A config dataclass rejected a value; `field` names the offending field."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.field, str(self))


class ConfigError(ValueError):
    """A configuration file failed to parse or violated an invariant."""

    def __init__(self, message, line=None):
        self.line = line
        self.message = message
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.message, self.line)


class NumericalAbort(RuntimeError):
    """Time integration produced an inadmissible state (NaN/Inf or rho <= 0)."""

    def __init__(self, message, step=None, cell=None):
        self.step = step
        self.cell = cell
        super().__init__(message)

    def __reduce__(self):
        return type(self), (str(self), self.step, self.cell)
