"""The Communication Dependence and Computation Model (CDCM) mapping evaluator.

The CDCM algorithm of Section 4 evaluates a mapping by *executing* the
application's CDCG onto the mapped CRG: packets become ready when their
dependences are satisfied, are injected after their source core's computation
time, and reserve the routers and links of their XY route — serialising when
they compete for a link.  The replay yields:

* the application execution time ``texec`` (including contention),
* the dynamic energy ``EDyNoC`` (equation 4),
* the static energy ``EstNoC = PstNoC x texec`` (equation 9),

and the CDCM objective is their sum ``ENoC`` (equation 10).  Because mappings
with less resource sharing finish earlier, minimising ``ENoC`` implicitly
minimises contention — the property CWM cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.core.metrics import (
    CDCM_METRIC_NAMES,
    MetricVector,
    scalarisation_weights,
)
from repro.energy.bit_energy import bit_energy_route
from repro.energy.static import noc_static_power
from repro.energy.technology import Technology
from repro.energy.totals import EnergyBreakdown, total_energy_cdcm
from repro.graphs.cdcg import CDCG
from repro.noc.platform import Platform
from repro.noc.scheduler import CdcmScheduler, ReplayTotals, ScheduleResult
from repro.core.mapping import Mapping
from repro.utils.errors import ConfigurationError


@dataclass
class CdcmReport:
    """Full CDCM evaluation of one mapping.

    Attributes
    ----------
    application:
        CDCG name.
    schedule:
        The full replay result (per-packet timing and per-resource
        cost-variable lists).
    energy:
        Static + dynamic energy decomposition for the evaluation technology.
    """

    application: str
    schedule: ScheduleResult
    energy: EnergyBreakdown

    @property
    def execution_time(self) -> float:
        """``texec`` in nanoseconds."""
        return self.schedule.execution_time

    @property
    def total_energy(self) -> float:
        """``ENoC`` (equation 10) in pJ."""
        return self.energy.total

    @property
    def dynamic_energy(self) -> float:
        return self.energy.dynamic

    @property
    def static_energy(self) -> float:
        return self.energy.static

    @property
    def total_contention_delay(self) -> float:
        return self.schedule.total_contention_delay()

    def metric_vector(self) -> MetricVector:
        """Named component vector of this evaluation (the vector-objective view).

        Components follow :data:`~repro.core.metrics.CDCM_METRIC_NAMES`:
        total energy ``ENoC``, execution time ``texec``, the dynamic/static
        decomposition of the energy term, and the replay's
        :meth:`~repro.noc.scheduler.ScheduleResult.max_link_utilisation`
        congestion figure.  The congestion component never enters the legacy
        weight views (see :func:`~repro.core.metrics.scalarisation_weights`),
        so scalar costs are unchanged by its presence.
        """
        return MetricVector(
            CDCM_METRIC_NAMES,
            (
                self.energy.total,
                self.schedule.execution_time,
                self.energy.dynamic,
                self.energy.static,
                self.schedule.max_link_utilisation(),
            ),
        )


def cdcm_metric_vector(totals: ReplayTotals, static_power: float) -> MetricVector:
    """The CDCM metric vector of one replay, from its :class:`ReplayTotals`.

    ``EstNoC`` is *static_power* (``PstNoC``, equation 5) times ``texec``
    (equation 9), ``ENoC`` adds the dynamic term (equation 10), and
    ``max_link_utilisation`` divides the busiest link's busy time by
    ``texec`` (0.0 when ``texec`` is 0).  :meth:`CdcmEvaluator.metrics` and
    the bounded-repair engine (:mod:`repro.eval.repair`) both build their
    vectors here.
    """
    execution_time = totals.execution_time
    dynamic = totals.dynamic_energy
    static = static_power * execution_time
    utilisation = (
        totals.max_link_busy / execution_time if execution_time > 0 else 0.0
    )
    return MetricVector(
        CDCM_METRIC_NAMES,
        (dynamic + static, execution_time, dynamic, static, utilisation),
    )


#: Metrics a CDCM objective can minimise.
_METRICS = ("energy", "time", "weighted")


class CdcmEvaluator:
    """Evaluates mappings under the communication dependence and computation model.

    Parameters
    ----------
    platform:
        Target architecture.
    metric:
        Quantity returned by :meth:`cost`:

        * ``"energy"`` (default) — total NoC energy ``ENoC`` (the paper's
          CDCM objective);
        * ``"time"`` — execution time ``texec``;
        * ``"weighted"`` — ``energy_weight x ENoC + time_weight x texec``
          (an extension for multi-objective exploration).
    include_local:
        Whether local core-router links contribute ``ECbit`` to dynamic energy.
    route_table:
        Optional pre-built :class:`~repro.eval.route_table.RouteTable` shared
        with other evaluators of the same platform; forwarded to the replay
        scheduler (which otherwise uses the process-wide shared table).
    """

    def __init__(
        self,
        platform: Platform,
        metric: str = "energy",
        energy_weight: float = 1.0,
        time_weight: float = 0.0,
        include_local: bool = True,
        route_table=None,
    ) -> None:
        if metric not in _METRICS:
            raise ConfigurationError(
                f"unknown CDCM metric {metric!r}; expected one of {_METRICS}"
            )
        self.platform = platform
        self.metric = metric
        self.energy_weight = energy_weight
        self.time_weight = time_weight
        self.include_local = include_local
        self.weights = scalarisation_weights(metric, energy_weight, time_weight)
        self._scheduler = CdcmScheduler(platform, route_table=route_table)
        technology = platform.technology
        self._static_power = noc_static_power(technology, platform.num_tiles)
        # EBit of a route through k routers, by k: a loop-free route visits
        # each tile at most once.
        self._bit_energy = [0.0] + [
            bit_energy_route(technology, hops, include_local)
            for hops in range(1, platform.num_tiles + 1)
        ]

    @property
    def route_table(self):
        """The route table the replay scheduler resolves paths from."""
        return self._scheduler.route_table

    # ------------------------------------------------------------------
    # Objective function
    # ------------------------------------------------------------------
    def cost(self, cdcg: CDCG, mapping: Union[Mapping, Dict[str, int]]) -> float:
        """Scalar cost of a mapping under the configured metric.

        Derived from :meth:`metrics` by the evaluator's ``weights`` view
        (see :func:`~repro.core.metrics.scalarisation_weights`) —
        bit-identical to the legacy per-metric dispatch.
        """
        return self.metrics(cdcg, mapping).weighted_sum(
            self.weights, strict=False
        )

    def metrics(
        self, cdcg: CDCG, mapping: Union[Mapping, Dict[str, int]]
    ) -> MetricVector:
        """Named component vector of a mapping (one replay, every metric).

        Prices :meth:`CdcmScheduler.totals`, which records no Figure-3
        lists, through :func:`cdcm_metric_vector`; bit-identical to
        ``evaluate(cdcg, mapping).metric_vector()``.
        """
        return cdcm_metric_vector(
            self._scheduler.totals(cdcg, mapping, self._bit_energy),
            self._static_power,
        )

    # ------------------------------------------------------------------
    # Full report
    # ------------------------------------------------------------------
    def evaluate(
        self,
        cdcg: CDCG,
        mapping: Union[Mapping, Dict[str, int]],
        technology: Optional[Technology] = None,
    ) -> CdcmReport:
        """Replay the CDCG over the mapped platform and price the result.

        Parameters
        ----------
        technology:
            Optional technology override; the replay (timing) is technology
            independent, so the same schedule can be re-priced under several
            technologies — this is how the two ECS columns of Table 2 are
            produced from a single schedule.
        """
        schedule = self._scheduler.schedule(cdcg, mapping)
        energy = total_energy_cdcm(
            schedule, self.platform, technology, self.include_local
        )
        return CdcmReport(
            application=cdcg.name,
            schedule=schedule,
            energy=energy,
        )

    def reprice(
        self, report: CdcmReport, technology: Technology
    ) -> CdcmReport:
        """Price an existing report under a different technology without rescheduling."""
        energy = total_energy_cdcm(
            report.schedule, self.platform, technology, self.include_local
        )
        return CdcmReport(
            application=report.application,
            schedule=report.schedule,
            energy=energy,
        )


__all__ = ["CdcmEvaluator", "CdcmReport", "cdcm_metric_vector"]
