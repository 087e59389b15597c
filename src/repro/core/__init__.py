"""The paper's primary contribution: mapping models and the FRW framework.

* :class:`~repro.core.mapping.Mapping` — an assignment of application cores to
  NoC tiles (the object the search engines explore);
* :class:`~repro.core.cwm.CwmEvaluator` — the communication weighted model:
  evaluates a mapping by its dynamic energy alone (equation 3);
* :class:`~repro.core.cdcm.CdcmEvaluator` — the communication dependence and
  computation model: replays the CDCG, obtaining execution time, contention
  and total (static + dynamic) energy (equations 4–10);
* :mod:`~repro.core.metrics` — named :class:`~repro.core.metrics.MetricVector`
  components and scalarisation weights, the vector-valued objective core;
* :mod:`~repro.core.dominance` — the array Pareto-dominance kernel behind
  the NSGA ranking and the front filter;
* :mod:`~repro.core.objective` — objective-function adapters binding an
  application and platform so search engines only see ``mapping -> cost``,
  plus :class:`~repro.core.objective.ScalarisedObjective` weight views over
  a shared memo;
* :class:`~repro.core.framework.FRWFramework` — the front-end tying an
  application, a platform, a model (CWM/CDCM) and a search method (exhaustive
  search or simulated annealing) together, mirroring the paper's FRW
  framework.
"""

from repro.core.mapping import Mapping
from repro.core.metrics import (
    CDCM_METRIC_NAMES,
    CWM_METRIC_NAMES,
    MetricVector,
    scalarisation_weights,
    validate_weights,
)
from repro.core.cwm import CwmEvaluator, CwmReport
from repro.core.cdcm import CdcmEvaluator, CdcmReport
from repro.core.objective import (
    CountingObjective,
    ScalarisedObjective,
    VectorObjective,
    cwm_objective,
    cdcm_objective,
)
from repro.core.framework import FRWFramework, MappingOutcome

__all__ = [
    "Mapping",
    "MetricVector",
    "CWM_METRIC_NAMES",
    "CDCM_METRIC_NAMES",
    "scalarisation_weights",
    "validate_weights",
    "CwmEvaluator",
    "CwmReport",
    "CdcmEvaluator",
    "CdcmReport",
    "CountingObjective",
    "ScalarisedObjective",
    "VectorObjective",
    "cwm_objective",
    "cdcm_objective",
    "FRWFramework",
    "MappingOutcome",
]
