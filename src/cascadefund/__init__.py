"""Equilibrium thresholds, cascades, and simulation for sequential fundraising games."""

from cascadefund.beliefs import (
    ConfigError,
    DomainError,
    OutOfSupportWarning,
    QualitySpec,
    TypeDistribution,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DomainError",
    "OutOfSupportWarning",
    "QualitySpec",
    "TypeDistribution",
    "__version__",
]
