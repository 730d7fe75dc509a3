"""Exception hierarchy shared across the package.

Each class maps to one CLI exit code, so library code raises the most
specific class and the front end translates without inspecting messages.
"""


class GpsError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(GpsError):
    """Invalid configuration: bad field values, impossible geometry."""

    exit_code = 2


class FormatError(GpsError):
    """Malformed external data: image files, snapshots, dataset records."""

    exit_code = 3


class NumericalError(GpsError):
    """Training produced a non-finite value."""

    exit_code = 4

    def __init__(self, message, step=None):
        if step is not None:
            message = f"{message} (at training step {step})"
        super().__init__(message)


class EmptyStateError(GpsError):
    """An operation that needs data was invoked on an empty container."""

    exit_code = 3


class StateError(GpsError):
    """An operation was invoked before its required state was complete."""

    exit_code = 1
