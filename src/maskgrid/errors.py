"""Exception taxonomy shared by all modules.

Every error has one of three roots, which alone picks the CLI exit code:
ConfigError 2, NumericError 3, FormatError 4. Anything else is a bug.
"""


class MaskGridError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MaskGridError, ValueError):
    """Invalid configuration, scene spec, or inconsistent user input."""


class ShapeError(ConfigError):
    """Array dimensions of two inputs do not match."""


class CollisionError(ConfigError):
    """Two speakers snap to the same grid cell; the grid is too coarse."""


class FormatError(MaskGridError):
    """Malformed file content (bad header, truncated payload)."""


class UnsupportedFormatError(FormatError):
    """File parsed correctly but uses an encoding we do not handle."""


class NumericError(MaskGridError):
    """Numerical failure: singular matrix, non-finite loss, divergence."""


class DegenerateInputError(NumericError):
    """Operation undefined for this input (all-zero signal, empty reference)."""


class TrainingError(NumericError):
    """Training diverged; carries the epoch index in the message."""
