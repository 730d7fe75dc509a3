"""Exception hierarchy shared across the package: one class per CLI exit code.

GpsError 1, ConfigError 2, FormatError 3, NumericalError 4; the front end
translates without inspecting messages. A bad library argument is a ValueError.
"""


class GpsError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(GpsError):
    """Invalid configuration: bad field values, impossible geometry."""

    exit_code = 2


class FormatError(GpsError):
    """Malformed or unusable external data: image files, snapshots, dataset records."""

    exit_code = 3


class NumericalError(GpsError):
    """Training or evaluation produced a non-finite value."""

    exit_code = 4
