"""Experiment-harness configuration.

Every figure experiment takes an :class:`ExperimentConfig` controlling the
seed set (results are averaged across seeds) and a *quick* mode that
shrinks the sweep for CI-speed benchmark runs while preserving the
qualitative shape.  Paper-scale runs use the full defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.obs.runtime import ObservabilityConfig

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.faults.models import FaultPlan
    from repro.faults.policies import ResiliencePolicy

__all__ = ["ExperimentConfig", "QUICK", "FULL"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep-wide knobs shared by all figure experiments.

    Attributes
    ----------
    seeds:
        Master seeds; every reported number is the mean over these.
    microservice_counts:
        The x-axis of Figures 3(a)/3(b)/5(a)/6(b).
    request_levels:
        The request-volume series of Figures 3(b)/5(a)/6(b).
    rounds_axis:
        The x-axis of Figure 6(a).
    bids_axis:
        The J series of Figures 3(a)/6(a).
    horizon_rounds:
        T for the online experiments (paper default 10).
    estimation_sigma:
        Demand-estimation noise for plain MSOA (0 = oracle; the DA
        variant always gets 0).
    capacity_relaxation:
        The Θ inflation factor of the RC/OA variants.
    mechanism:
        Registry name of the single-round mechanism the single-stage
        panels (3a/3b/4a) run; ``"ssam"`` reproduces the paper.
    engine:
        Engine every mechanism run of the sweep uses where applicable
        (:data:`~repro.core.ssam.ENGINES`): ``"columnar"`` (default) or
        ``"reference"``.
    observability:
        Optional :class:`~repro.obs.ObservabilityConfig`; when set, the
        experiment runner activates tracing/metrics before dispatching
        mechanism runs (``None``, the default, keeps observability off).
    faults:
        Optional :class:`~repro.faults.FaultPlan` executed by every
        *online* mechanism run of the sweep (MSOA variants and registry
        adapters).  ``None`` (default) and null plans leave the sweep
        bit-identical to an unfaulted one.
    resilience:
        Optional :class:`~repro.faults.ResiliencePolicy` for the fault
        runs; requires ``faults``.
    """

    seeds: tuple[int, ...] = (11, 23, 37, 53, 71)
    microservice_counts: tuple[int, ...] = (25, 35, 45, 55, 65, 75)
    request_levels: tuple[int, ...] = (100, 200)
    rounds_axis: tuple[int, ...] = (1, 3, 5, 7, 9, 11, 13, 15)
    bids_axis: tuple[int, ...] = (1, 2, 3, 4)
    horizon_rounds: int = 10
    estimation_sigma: float = 0.35
    capacity_relaxation: float = 2.0
    mechanism: str = "ssam"
    engine: str = "columnar"
    observability: ObservabilityConfig | None = None
    faults: "FaultPlan | None" = None
    resilience: "ResiliencePolicy | None" = None

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ConfigurationError("at least one seed is required")
        if self.horizon_rounds <= 0:
            raise ConfigurationError("horizon_rounds must be positive")
        if self.estimation_sigma < 0:
            raise ConfigurationError("estimation_sigma must be non-negative")
        if self.capacity_relaxation < 1.0:
            raise ConfigurationError("capacity_relaxation must be >= 1")
        from repro.core.ssam import resolve_engine

        object.__setattr__(self, "engine", resolve_engine(self.engine))
        if self.observability is not None and not isinstance(
            self.observability, ObservabilityConfig
        ):
            raise ConfigurationError(
                "observability must be an ObservabilityConfig or None, got "
                f"{type(self.observability).__name__}"
            )
        if self.faults is not None or self.resilience is not None:
            from repro.faults.models import FaultPlan
            from repro.faults.policies import ResiliencePolicy

            if self.faults is None:
                raise ConfigurationError(
                    "resilience requires faults (a policy alone has nothing "
                    "to recover from)"
                )
            if not isinstance(self.faults, FaultPlan):
                raise ConfigurationError(
                    "faults must be a FaultPlan or None, got "
                    f"{type(self.faults).__name__}"
                )
            if self.resilience is not None and not isinstance(
                self.resilience, ResiliencePolicy
            ):
                raise ConfigurationError(
                    "resilience must be a ResiliencePolicy or None, got "
                    f"{type(self.resilience).__name__}"
                )
        # Resolve against the registry so a typo fails at configuration
        # time (with the known names), not mid-sweep.
        from repro.core.registry import get_spec

        if get_spec(self.mechanism).kind != "single":
            raise ConfigurationError(
                f"mechanism {self.mechanism!r} is not a single-round "
                "mechanism; the figure sweeps dispatch per round"
            )


FULL = ExperimentConfig()
"""Paper-scale sweep (5 seeds × full axes)."""

QUICK = ExperimentConfig(
    seeds=(11, 23),
    microservice_counts=(25, 45, 65),
    rounds_axis=(1, 5, 10, 15),
    bids_axis=(1, 2, 3),
    horizon_rounds=6,
)
"""Reduced sweep for fast benchmark runs; same qualitative shape."""
