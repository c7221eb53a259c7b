"""Availability SLAs and the spare-sizing math on μ distributions.

§VI-Q1: "We define the availability SLA for a workload as the
percentage of servers that needs to be available to that workload at
all times."  With capacity C, SLA level s and spare count k, every
window must satisfy

    C − μ + k  ≥  s · C      ⇔      k  ≥  μ − (1 − s) · C,

so the required spares are ``(max observed μ − allowed shortfall)⁺``:
a 100% SLA provisions for the worst observed window in full, while a
95% SLA may leave up to 5% of capacity uncovered at the worst moment.
This shortfall form keeps SF ≥ MF ≥ LB at every SLA (Fig 10's ordering).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError

# The three example SLAs the paper evaluates (Figs 10, 12; Table IV).
PAPER_SLAS = (0.90, 0.95, 1.00)


@dataclass(frozen=True)
class AvailabilitySla:
    """An availability target.

    Attributes:
        level: fraction of servers that must be available at all times
            (0.90, 0.95, 1.00 in the paper's evaluation).
    """

    level: float

    def __post_init__(self) -> None:
        if not 0.0 < self.level <= 1.0:
            raise ConfigError(f"SLA level must be in (0, 1], got {self.level}")

    @property
    def percent_label(self) -> str:
        """Rendering such as ``"95%"``."""
        return f"{self.level * 100:g}%"

    @property
    def shortfall(self) -> float:
        """Fraction of capacity allowed to be down at the worst moment."""
        return 1.0 - self.level


def required_spares(
    mu_samples: np.ndarray,
    sla: AvailabilitySla,
    capacity: float,
) -> float:
    """Spares keeping ``sla.level`` of ``capacity`` available always.

    ``(max μ − (1 − level) · capacity)⁺`` per the module docstring.
    """
    mu_samples = np.asarray(mu_samples, dtype=float)
    if mu_samples.size == 0:
        raise DataError("no μ samples to size spares from")
    if (mu_samples < 0).any():
        raise DataError("μ samples must be non-negative")
    if capacity <= 0:
        raise DataError(f"capacity must be positive, got {capacity}")
    return float(max(0.0, mu_samples.max() - sla.shortfall * capacity))


def uniform_fraction_for_pool(
    mu_fractions: np.ndarray,
    sla: AvailabilitySla,
) -> float:
    """The single spare fraction covering a pooled μ/capacity sample.

    This is the SF provisioning rule: one fraction applied uniformly to
    every rack of the workload, read off the pooled CDF (Fig 1's solid
    curve, §VI-Q1 approach (b)): the worst pooled fraction minus the
    allowed shortfall.
    """
    mu_fractions = np.asarray(mu_fractions, dtype=float)
    if mu_fractions.size == 0:
        raise DataError("empty pooled μ-fraction sample")
    return float(max(0.0, mu_fractions.max() - sla.shortfall))
