"""The FRW framework: model + search + platform, in one front-end.

The paper's FRW framework "implements a simulated annealing search method to
obtain mapping solutions for CWM and CDCM [and] can also execute an exhaustive
search method to compare the quality of solutions against an absolute optimum
solution, for small NoCs".  :class:`FRWFramework` reproduces that workflow:

>>> framework = FRWFramework(cdcg, platform)            # doctest: +SKIP
>>> cwm_outcome = framework.map(model="cwm", method="sa", seed=1)
>>> cdcm_outcome = framework.map(model="cdcm", method="sa", seed=1)
>>> framework.evaluate(cwm_outcome.mapping).execution_time   # always CDCM-priced

Whatever model drove the search, :meth:`FRWFramework.evaluate` prices the
resulting mapping under the full CDCM model (schedule replay + equation 10),
which is how the paper's Table 2 compares the two — the models compete on the
quality of the mapping they find, judged by the richer model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING

from repro.core.cdcm import CdcmReport
from repro.core.cwm import CwmEvaluator
from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector
from repro.core.objective import (
    CountingObjective,
    ScalarisedObjective,
    cdcm_objective,
    cwm_objective,
)
from repro.energy.technology import Technology
from repro.eval.context import CdcmEvaluationContext, CwmEvaluationContext
from repro.eval.repair import RepairPolicy
from repro.eval.route_table import get_route_table
from repro.graphs.cdcg import CDCG
from repro.graphs.convert import cdcg_to_cwg
from repro.graphs.cwg import CWG
from repro.noc.platform import Platform
from repro.search.base import SearchResult, Searcher
from repro.search.greedy import GreedyConstructive
from repro.search.registry import get_searcher
from repro.utils.errors import ConfigurationError, MappingError
from repro.utils.rng import RandomSource, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - import only used by type checkers
    from repro.eval.parallel import BatchBackend

#: Models the framework can search with.
_MODELS = ("cwm", "cdcm")


@dataclass
class MappingOutcome:
    """Result of one framework mapping run.

    Attributes
    ----------
    model:
        ``"cwm"`` or ``"cdcm"`` — the model whose objective drove the search.
    method:
        Name of the search engine used.
    mapping:
        Best mapping found.
    cost:
        Its objective value *under the model that searched for it* (CWM cost
        for CWM runs, CDCM cost for CDCM runs — they are not directly
        comparable; use :meth:`FRWFramework.evaluate` for a common yardstick).
    search:
        Full search trace.
    evaluations:
        Number of objective evaluations.
    cpu_time:
        Wall-clock seconds spent evaluating the objective (the quantity behind
        the paper's "CDCM took at most 23 % more CPU time" claim).
    """

    model: str
    method: str
    mapping: Mapping
    cost: float
    search: SearchResult
    evaluations: int
    cpu_time: float


class FRWFramework:
    """Front-end binding an application, a platform, the two models and the
    search engines.

    Parameters
    ----------
    cdcg:
        Packet-level application model.  The CWG used by CWM runs is derived
        from it automatically (unless *cwg* is supplied explicitly).
    platform:
        Target NoC.
    cwg:
        Optional explicit CWG.  Must be consistent with the CDCG; supplying it
        is only useful when the application was natively captured as a CWG and
        the CDCG was produced later by hand, as the paper describes.
    vectorize:
        Forwarded to every :class:`CwmEvaluationContext` the framework builds
        (the shared context and each :meth:`objective` context): whether CWM
        batch misses are priced by the NumPy array kernel of
        :mod:`repro.eval.vector`.  ``None`` (default) follows the
        context's default — on; the comparison driver pins it off for the
        reproduced paper rows (see
        :class:`~repro.analysis.comparison.ComparisonConfig`).
    repair:
        Forwarded to every :class:`CdcmEvaluationContext` the framework
        builds: whether CDCM swap deltas are priced by the bounded-repair
        engine of :mod:`repro.eval.repair`.  ``None`` (default) follows the
        context's default — on; the comparison driver pins it off for the
        reproduced paper rows.
    repair_policy:
        Optional :class:`~repro.eval.repair.RepairPolicy` forwarded with
        the ``repair`` gate (resync period, drift bound, closure depth).
    backend:
        Optional :class:`~repro.eval.parallel.BatchBackend` forwarded to
        every evaluation context the framework builds (the shared contexts
        and each :meth:`objective` context), so batch misses fan out through
        it — a process pool, or the store-draining
        :class:`~repro.service.store.ServiceBackend` of the mapping
        service.  ``None`` (default) prices inline; the comparison driver
        keeps it ``None`` for the reproduced paper rows (see
        :class:`~repro.analysis.comparison.ComparisonConfig`).  The
        framework borrows the backend — callers own its lifecycle.
    """

    def __init__(
        self,
        cdcg: CDCG,
        platform: Platform,
        cwg: Optional[CWG] = None,
        vectorize: Optional[bool] = None,
        repair: Optional[bool] = None,
        repair_policy: Optional[RepairPolicy] = None,
        backend: Optional["BatchBackend"] = None,
    ) -> None:
        cdcg.validate()
        if cdcg.num_cores > platform.num_tiles:
            raise MappingError(
                f"application {cdcg.name!r} has {cdcg.num_cores} cores but the "
                f"platform only has {platform.num_tiles} tiles"
            )
        self.cdcg = cdcg
        self.cwg = cwg if cwg is not None else cdcg_to_cwg(cdcg)
        self.platform = platform
        # One shared route table and one evaluation context per model: every
        # objective handed to a search engine, and every evaluate() call,
        # prices mappings against the same precomputed tables and memo.
        self.route_table = get_route_table(platform)
        self._vectorize = vectorize
        self._repair = repair
        self._repair_policy = repair_policy
        self._backend = backend
        self._cwm_context = CwmEvaluationContext(
            self.cwg,
            platform,
            route_table=self.route_table,
            vectorize=vectorize,
            backend=backend,
        )
        self._cdcm_context = CdcmEvaluationContext(
            self.cdcg,
            platform,
            route_table=self.route_table,
            repair=repair,
            repair_policy=repair_policy,
            backend=backend,
        )
        self._cdcm_evaluator = self._cdcm_context.evaluator
        self._cwm_evaluator = CwmEvaluator(platform, route_table=self.route_table)

    # ------------------------------------------------------------------
    # Mapping search
    # ------------------------------------------------------------------
    def evaluation_context(self, model: str):
        """The shared :class:`~repro.eval.context.EvaluationContext` of a model."""
        if model not in _MODELS:
            raise ConfigurationError(
                f"unknown model {model!r}; expected one of {_MODELS}"
            )
        return self._cwm_context if model == "cwm" else self._cdcm_context

    def objective(self, model: str, weights: Optional[Dict[str, float]] = None):
        """An objective of one model, bound to this application.

        Each call builds a fresh evaluation context over the framework's
        shared route table: searches reuse the precomputed routes but start
        with a cold memo, so ``MappingOutcome.cpu_time`` measures one search's
        evaluation effort (the Section 5 quantity) rather than whatever
        earlier runs happened to warm.  Use :meth:`evaluation_context` for
        the long-lived shared contexts instead.

        Parameters
        ----------
        model:
            ``"cwm"`` or ``"cdcm"``.
        weights:
            Optional ``{metric_name: weight}`` scalarisation.  When omitted a
            :class:`~repro.core.objective.CountingObjective` with the model's
            default weight view is returned (bit-identical to the legacy
            scalar objective); when given, a
            :class:`~repro.core.objective.ScalarisedObjective` view over the
            fresh context is returned instead — derive more views from its
            :meth:`~repro.core.objective.ScalarisedObjective.with_weights`
            to sweep weight vectors off one shared memo.
        """
        if model == "cwm":
            context = CwmEvaluationContext(
                self.cwg,
                self.platform,
                route_table=self.route_table,
                vectorize=self._vectorize,
                backend=self._backend,
            )
            if weights is not None:
                return ScalarisedObjective(context, weights)
            return cwm_objective(self.cwg, self.platform, context=context)
        if model == "cdcm":
            context = CdcmEvaluationContext(
                self.cdcg,
                self.platform,
                route_table=self.route_table,
                repair=self._repair,
                repair_policy=self._repair_policy,
                backend=self._backend,
            )
            if weights is not None:
                return ScalarisedObjective(context, weights)
            return cdcm_objective(self.cdcg, self.platform, context=context)
        raise ConfigurationError(
            f"unknown model {model!r}; expected one of {_MODELS}"
        )

    def initial_mapping(self, seed: RandomSource = None) -> Mapping:
        """Random initial mapping (the paper's starting condition)."""
        return Mapping.random(
            self.cdcg.cores(), self.platform.num_tiles, ensure_rng(seed)
        )

    def greedy_mapping(self) -> Mapping:
        """Deterministic greedy constructive mapping (baseline/extension)."""
        return GreedyConstructive(self.cwg, self.platform).construct()

    def map(
        self,
        model: str = "cdcm",
        method: str = "annealing",
        seed: RandomSource = None,
        initial: Optional[Mapping] = None,
        searcher: Optional[Searcher] = None,
        **searcher_kwargs,
    ) -> MappingOutcome:
        """Search for a mapping with the given model and search method.

        Parameters
        ----------
        model:
            ``"cwm"`` or ``"cdcm"``.
        method:
            Search engine name (``"annealing"``/``"sa"``, ``"exhaustive"``/
            ``"es"``, ``"random"``, ``"genetic"``); ignored when *searcher* is
            given.
        seed:
            Seed (or generator) for the initial mapping and the stochastic
            search.
        initial:
            Optional explicit starting mapping.
        searcher:
            Optional pre-built engine instance (overrides *method*).
        searcher_kwargs:
            Forwarded to the engine constructor when built from *method*.
        """
        generator = ensure_rng(seed)
        objective = self.objective(model)
        start = initial if initial is not None else self.initial_mapping(generator)
        engine = searcher if searcher is not None else get_searcher(
            method, **searcher_kwargs
        )

        begin = time.perf_counter()
        result = engine.search(objective, start, generator)
        elapsed = time.perf_counter() - begin

        return MappingOutcome(
            model=model,
            method=engine.name,
            mapping=result.best_mapping,
            cost=result.best_cost,
            search=result,
            evaluations=objective.evaluations + objective.delta_evaluations,
            cpu_time=elapsed,
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        mapping: Mapping,
        technology: Optional[Technology] = None,
    ) -> CdcmReport:
        """Price a mapping under the full CDCM model (optionally re-priced
        under a different technology)."""
        return self._cdcm_evaluator.evaluate(self.cdcg, mapping, technology)

    def evaluate_cwm_cost(self, mapping: Mapping) -> float:
        """Dynamic-energy cost of a mapping under CWM (equation 3)."""
        return self._cwm_evaluator.cost(self.cwg, mapping)

    def evaluate_many(
        self,
        mappings: Dict[str, Mapping],
        technology: Optional[Technology] = None,
    ) -> Dict[str, CdcmReport]:
        """Evaluate several named mappings under CDCM in one call."""
        return {
            name: self.evaluate(mapping, technology)
            for name, mapping in mappings.items()
        }

    def evaluate_batch(self, mappings, model: str = "cdcm"):
        """Scalar costs of several mappings under one model's shared context.

        Routes through :meth:`evaluation_context`, so repeated candidates hit
        the context memo instead of being re-priced.
        """
        return self.evaluation_context(model).evaluate_batch(mappings)

    def evaluate_metrics_batch(self, mappings, model: str = "cdcm"):
        """Named metric vectors of several mappings under one model's context.

        The vector twin of :meth:`evaluate_batch` — one pricing pass per
        unique candidate, shared with every scalarisation view over the same
        context.  This is the entry point Pareto tooling
        (:mod:`repro.analysis.pareto`) sweeps weight vectors through.
        """
        return self.evaluation_context(model).evaluate_metrics_batch(mappings)

    def metrics(self, mapping: Mapping, model: str = "cdcm") -> MetricVector:
        """Named metric vector of one mapping under one model's shared context."""
        return self.evaluation_context(model).metrics(mapping)


__all__ = ["FRWFramework", "MappingOutcome"]
