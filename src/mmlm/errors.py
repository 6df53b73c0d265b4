"""Exception types shared across the package."""


class MmlmError(Exception):
    """Base class for every error this package raises deliberately."""


class DimensionError(MmlmError, ValueError):
    """Operands or tensors have incompatible shapes."""


class ConfigError(MmlmError, ValueError):
    """Invalid configuration value or combination."""


class UsageError(MmlmError, ValueError):
    """API misuse, e.g. feeding a context to a text-only model."""


class DataError(MmlmError, ValueError):
    """Malformed or inconsistent input data."""


class FormatError(MmlmError, ValueError):
    """Unparseable or corrupt file contents."""


class TrainingAbort(MmlmError, RuntimeError):
    """Training stopped because the loss left the finite range."""

    def __init__(self, message, batch_index=None, lr=None):
        super().__init__(message)
        self.batch_index = batch_index
        self.lr = lr
