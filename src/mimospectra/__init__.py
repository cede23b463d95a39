"""Finite-AoA massive-MIMO channels, blind subspace estimation, and
asymptotic eigenvalue-spectrum analytics."""

__version__ = "0.1.0"

from . import channel, estimation, rmt, sim
from .channel import ChannelRealization, SystemParams
from .errors import BranchTrackingError, ConfigError, NumericalError

__all__ = [
    "BranchTrackingError",
    "ChannelRealization",
    "ConfigError",
    "NumericalError",
    "SystemParams",
    "channel",
    "estimation",
    "rmt",
    "sim",
    "__version__",
]
