"""Random-matrix spectral analytics: Stieltjes-domain laws and supports."""

from .laws import (
    DoubleSidedParams,
    OneSidedParams,
    density_from_stieltjes,
    double_sided_residual,
    iid_limit_residual,
    mp_stieltjes,
    onesided_residual,
    stieltjes_double_sided,
    stieltjes_iid_limit,
    stieltjes_onesided,
)
from .support import (
    SpectralSupport,
    support_distinct,
    support_double_sided,
    support_iid,
    support_onesided,
)

__all__ = [
    "DoubleSidedParams",
    "OneSidedParams",
    "SpectralSupport",
    "density_from_stieltjes",
    "double_sided_residual",
    "iid_limit_residual",
    "mp_stieltjes",
    "onesided_residual",
    "stieltjes_double_sided",
    "stieltjes_iid_limit",
    "stieltjes_onesided",
    "support_distinct",
    "support_double_sided",
    "support_iid",
    "support_onesided",
]
