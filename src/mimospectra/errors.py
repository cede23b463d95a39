"""Exception hierarchy shared across the package.

Two failure families map onto the CLI exit codes: configuration problems
(exit 2) and numerical failures (exit 3).
"""


class ConfigError(ValueError):
    """Invalid scenario parameters, config files, or shape mismatches."""


class NumericalError(RuntimeError):
    """A solver could not produce a trustworthy value."""


class BranchTrackingError(NumericalError):
    """Root continuation lost the physical branch."""

