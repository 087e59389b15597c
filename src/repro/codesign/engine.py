"""Routing×mapping co-design: co-evolving next-hop tables and mappings.

The paper's pipeline fixes the routing (XY on a mesh) and searches mappings
against it.  :class:`CodesignSearch` widens the genome to the pair
``(routing table, mapping)`` and evolves both together under NSGA-III
reference-point selection (:mod:`repro.search.nsga3`), with two invariants
the subsystem exists to enforce:

* **certify before price** — every table a child carries passes
  :meth:`~repro.codesign.synthesis.TableSynthesizer.certify` (the
  :func:`~repro.noc.deadlock.validate_deadlock_free` gate, repair-or-reject)
  before any mapping is priced on it; an uncertified table never reaches an
  evaluation context, structurally (contexts are only ever created for
  certified routings);
* **context reuse by routing identity** — evaluation contexts are keyed by
  the table's content digest (its
  :attr:`~repro.codesign.synthesis.SynthesizedRouting.cache_token`), so the
  shared route table, memo and (for CWM) the vector kernel are built once
  per distinct table and reused across the whole population and every
  generation it survives.

Pricing goes through each context's ``evaluate_metrics_batch`` with one
shared :class:`~repro.eval.parallel.BatchBackend`, children grouped by
routing in first-seen order — the same deterministic parallel seam as the
population engines, so seeded runs are bit-identical across serial and
pooled pricing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.cdcg import CDCG
from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector, weighted_columns
from repro.codesign.synthesis import (
    DEFAULT_POLICY,
    NextHopTable,
    SynthesizedRouting,
    TableSynthesizer,
)
from repro.eval.context import CdcmEvaluationContext, EvaluationContext
from repro.noc.deadlock import Channel
from repro.noc.platform import Platform
from repro.noc.topology import topology_cache_token
from repro.search.base import (
    Row,
    SearchResult,
    check_noc_size,
    initial_row,
    price_rows,
    random_row,
    row_mapping,
)
from repro.search.nsga2 import _Run, fast_non_dominated_sort
from repro.search.nsga3 import NSGA3Search, Nsga3Parameters
from repro.utils.errors import ConfigurationError
from repro.utils.rng import RandomSource, ensure_rng

# Kept only for perfbench/tracing.py, which wraps these names in this
# module; the shared loop calls them from repro.search.
from repro.search.genetic import swap_mutation, uniform_assignment_crossover
from repro.search.nsga3 import associate_to_references, niche_select

#: Builds the pricing context for one certified routing's platform.
ContextFactory = Callable[[Platform], EvaluationContext]

#: Preferred dominance keys when the caller passes none: the many-objective
#: energy × time × congestion trade-off, falling back like NSGA-II/III when
#: the objective prices fewer components.
DEFAULT_CODESIGN_KEYS: Tuple[str, ...] = (
    "energy",
    "time",
    "max_link_utilisation",
)


@dataclass(frozen=True, kw_only=True)
class CodesignParameters(Nsga3Parameters):
    """Knobs of :class:`CodesignSearch`.

    Extends :class:`~repro.search.nsga3.Nsga3Parameters` with the routing
    half of the genome and smaller defaults (a generation prices full CDCM
    replays).  Every field is keyword-only, in the order
    ``population_size``, ``generations``, ``tournament_size``,
    ``crossover_rate``, ``mutation_rate``, ``n_workers``, ``divisions``,
    ``table_mutation_rate``, ``table_mutations``.

    Attributes
    ----------
    population_size:
        ``(table, mapping)`` individuals per generation (at least 4).
    generations:
        Number of (mu + lambda) generations to evolve.
    crossover_rate:
        Probability a child's *mapping* comes from uniform crossover.
    mutation_rate:
        Probability a child's mapping is mutated by one tile swap.
    table_mutation_rate:
        Probability a child's *table* is mutated (otherwise it inherits the
        first parent's certified table unchanged — alternation between
        mapping moves and routing moves emerges from the two rates).
    table_mutations:
        Minimal-next-hop entry flips per table mutation.
    """

    population_size: int = 16
    generations: int = 12
    table_mutation_rate: float = 0.5
    table_mutations: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.table_mutation_rate <= 1.0:
            raise ConfigurationError("table_mutation_rate must be in [0, 1]")
        if self.table_mutations < 1:
            raise ConfigurationError(
                f"table_mutations must be positive, got {self.table_mutations}"
            )


class _Individual(NamedTuple):
    """One genome: a certified routing and a mapping, as a tile row, priced
    under it."""

    routing: SynthesizedRouting
    row: Row


@dataclass
class _CodesignRun(_Run):
    """A co-design run: its certification gate and pricing contexts."""

    certify: Optional[Callable[[NextHopTable], Optional[SynthesizedRouting]]] = None
    contexts: Dict[str, EvaluationContext] = field(default_factory=dict)


@dataclass
class CodesignResult(SearchResult):
    """A :class:`~repro.search.base.SearchResult` plus the routing genome.

    Attributes
    ----------
    best_routing:
        The certified table the incumbent mapping was priced under.
    front_routings:
        The routing of each ``front`` point, aligned index-for-index.
    tables_certified:
        How many tables passed the deadlock gate over the run (seeds,
        random fills and mutated children alike).
    tables_rejected:
        How many tables the gate rejected (``"reject"`` policy); rejected
        children fall back to their parent's certified table.
    tables_repaired:
        How many gated tables came out repaired (``"repair"`` policy).
    last_witness:
        The most recent witness cycle a gate surfaced (empty when every
        gated table was deadlock-free as submitted).
    """

    best_routing: Optional[SynthesizedRouting] = None
    front_routings: List[SynthesizedRouting] = field(default_factory=list)
    tables_certified: int = 0
    tables_rejected: int = 0
    tables_repaired: int = 0
    last_witness: Tuple[Channel, ...] = ()


class CodesignSearch(NSGA3Search):
    """NSGA-III co-evolution of deadlock-free route tables and mappings.

    This is :class:`~repro.search.nsga3.NSGA3Search` with a
    ``(table, mapping)`` genome: the same loop, tournament and niching, with
    children bred by :meth:`_breed`, priced per routing, and the contexts of
    extinct routings dropped after each selection.

    Parameters
    ----------
    cdcg:
        Packet-level application model (used by the default CDCM context
        factory; a custom ``context_factory`` may ignore it).
    platform:
        Base architecture — its topology, parameters and technology are
        kept; its routing is replaced per genome via
        :meth:`~repro.noc.platform.Platform.with_routing`.
    parameters:
        Evolution knobs; defaults to :class:`CodesignParameters`.
    keys:
        Dominance keys, validated against the pricing context's components.
        ``None`` picks the components of :data:`DEFAULT_CODESIGN_KEYS` the
        context prices (all three for CDCM), falling back to the full
        component set when fewer than two match.
    synthesizer:
        Optional pre-built :class:`~repro.codesign.synthesis.TableSynthesizer`
        for ``platform.mesh`` or a topology with the same ``cache_token``
        (anything else raises :class:`ConfigurationError`); built from the
        platform's topology by default.
    certification_policy:
        ``"repair"`` (default) or ``"reject"`` — forwarded to
        :meth:`~repro.codesign.synthesis.TableSynthesizer.certify` for every
        generated or mutated table.
    context_factory:
        ``Platform -> EvaluationContext`` building the pricing context for
        one certified routing.  Defaults to a
        :class:`~repro.eval.context.CdcmEvaluationContext` over *cdcg*.
        Factories must be deterministic in the platform (contexts are
        cached by routing digest).
    backend:
        Optional explicit batch backend (caller-owned), shared by every
        context's pricing calls.
    n_workers:
        Convenience override of ``parameters.n_workers``.
    """

    name = "codesign"
    preferred_keys = DEFAULT_CODESIGN_KEYS
    parameters_type = CodesignParameters

    def __init__(
        self,
        cdcg: Optional[CDCG],
        platform: Platform,
        parameters: Optional[CodesignParameters] = None,
        keys: Optional[Sequence[str]] = None,
        synthesizer: Optional[TableSynthesizer] = None,
        certification_policy: str = DEFAULT_POLICY,
        context_factory: Optional[ContextFactory] = None,
        backend=None,
        n_workers: Optional[int] = None,
    ) -> None:
        super().__init__(parameters, keys, backend, n_workers)
        self.platform = platform
        self.certification_policy = certification_policy
        if context_factory is None:
            if cdcg is None:
                raise ConfigurationError(
                    "CodesignSearch needs a CDCG for the default CDCM "
                    "pricing context (or pass an explicit context_factory)"
                )
            application = cdcg
            context_factory = lambda routed: CdcmEvaluationContext(
                application, routed
            )
        self.context_factory = context_factory
        self.synthesizer = synthesizer or TableSynthesizer(platform.mesh)
        covered = self.synthesizer.topology
        if topology_cache_token(covered) != topology_cache_token(platform.mesh):
            raise ConfigurationError(
                f"synthesizer covers {covered} but the platform fabric is "
                f"{platform.mesh}"
            )

    # ------------------------------------------------------------------
    def search(
        self,
        objective=None,
        initial: Optional[Mapping] = None,
        rng: RandomSource = None,
    ) -> CodesignResult:
        """Co-evolve (table, mapping) genomes from *initial* mapping.

        Parameters
        ----------
        objective:
            Optional per-run ``Platform -> EvaluationContext`` factory
            overriding the constructor's; ``None`` (the usual call) uses
            the configured one.  Plain scalar objectives make no sense
            here — pricing depends on each genome's routing.
        initial:
            Seed mapping, paired with every certified seed table; must know
            the NoC size.
        rng:
            Seed or generator driving all variation.

        Returns
        -------
        CodesignResult
            ``front`` / ``front_routings`` carry the final non-dominated
            genomes; ``best_mapping`` / ``best_routing`` / ``best_cost``
            the incumbent under the context's scalar weight view; the
            ``tables_*`` counters and ``last_witness`` describe the gate's
            traffic.
        """
        from repro.analysis.pareto import ParetoPoint

        if initial is None:
            raise ConfigurationError(
                "CodesignSearch.search requires an initial mapping"
            )
        if objective is not None and not callable(objective):
            raise ConfigurationError(
                "CodesignSearch prices through context factories; pass None "
                "(use the configured factory) or a Platform -> "
                "EvaluationContext callable"
            )
        factory = objective or self.context_factory
        params = self.parameters
        synthesizer = self.synthesizer
        generator = ensure_rng(rng)
        num_tiles = self._num_tiles(initial)
        check_noc_size(self, initial)
        cores = tuple(initial.cores)
        backend = self._resolve_backend(params.n_workers)
        contexts: Dict[str, EvaluationContext] = {}
        gate = {"certified": 0, "rejected": 0, "repaired": 0}
        last_witness: Tuple[Channel, ...] = ()

        def certify(table: NextHopTable) -> Optional[SynthesizedRouting]:
            nonlocal last_witness
            result = synthesizer.certify(table, policy=self.certification_policy)
            if result.witness:
                last_witness = result.witness
            if not result.certified:
                gate["rejected"] += 1
            else:
                gate["certified"] += 1
                gate["repaired"] += result.repaired
            return result.routing

        def context_for(routing: SynthesizedRouting) -> EvaluationContext:
            # Contexts exist only for certified routings: a genome carries
            # either a routing from certify above or a seed routing the
            # synthesizer certified when it was built, which is the
            # structural form of the certify-before-price invariant.
            context = contexts.get(routing.digest)
            if context is None:
                context = factory(self.platform.with_routing(routing))
                contexts[routing.digest] = context
            return context

        def price(individuals: List[_Individual]) -> np.ndarray:
            # Batch-price grouped by routing, in first-seen order.
            groups: Dict[str, List[int]] = {}
            for index, individual in enumerate(individuals):
                groups.setdefault(individual.routing.digest, []).append(index)
            values = np.empty((len(individuals), len(names)), dtype=np.float64)
            for indices in groups.values():
                context = context_for(individuals[indices[0]].routing)
                values[indices] = price_rows(
                    context,
                    [individuals[i].row for i in indices],
                    cores,
                    num_tiles,
                    backend,
                )
            return values

        # Seed population: every certified registry seed paired with the
        # initial mapping, then random (table, mapping) genomes — random
        # tables still pass the gate (repair policy keeps them; reject
        # policy falls back to the first seed).  The seeds passed the gate
        # when the synthesizer was built; they count as certified here.
        seeds = list(synthesizer.seed_routings().values())
        population: List[_Individual] = []
        first_row = initial_row(initial, cores)
        for routing in seeds[: params.population_size]:
            gate["certified"] += 1
            population.append(_Individual(routing, first_row))
        fallback_routing = population[0].routing
        while len(population) < params.population_size:
            routing = certify(synthesizer.random_table(generator))
            if routing is None:
                routing = fallback_routing
            row = random_row(len(cores), num_tiles, generator)
            population.append(_Individual(routing, row))

        first_context = context_for(population[0].routing)
        keys = self._resolve_keys(first_context)
        names = tuple(first_context.metric_names)
        weights = dict(getattr(first_context, "weights", None) or {})
        key_column = names.index(keys[0])

        def score(individuals: List[_Individual], values: np.ndarray) -> List[float]:
            if weights:
                return weighted_columns(values, names, weights).tolist()
            return values[:, key_column].tolist()

        columns = tuple(names.index(key) for key in keys)
        run = _CodesignRun(
            keys, cores, num_tiles, price, score, columns=columns,
            certify=certify, contexts=contexts,
        )
        outcome = self._evolve(population, run, generator)

        # Final non-dominated genomes, first of each (routing, mapping),
        # routings kept aligned (dominance on rank-0 indices rather than
        # repro.analysis.pareto.non_dominated, which would lose the
        # mapping->routing pairing).
        unique: Dict[tuple, int] = {}
        matrix = outcome.values[:, list(columns)]
        for index in fast_non_dominated_sort(matrix, keys, stop=1)[0]:
            individual = outcome.population[index]
            unique.setdefault((individual.routing.digest, individual.row), index)
        front = [
            (outcome.population[i], MetricVector(names, outcome.values[i].tolist()))
            for i in unique.values()
        ]
        return CodesignResult(
            best_mapping=row_mapping(cores, outcome.best.row, num_tiles),
            best_cost=outcome.best_cost,
            evaluations=outcome.evaluations,
            history=outcome.history,
            accepted_moves=outcome.moves,
            best_metrics=MetricVector(names, outcome.best_values.tolist()),
            front=[
                ParetoPoint(mapping=row_mapping(cores, g.row, num_tiles), metrics=v)
                for g, v in front
            ],
            best_routing=outcome.best.routing,
            front_routings=[genome.routing for genome, _ in front],
            tables_certified=gate["certified"],
            tables_rejected=gate["rejected"],
            tables_repaired=gate["repaired"],
            last_witness=last_witness,
        )

    # ------------------------------------------------------------------
    def _breed(self, parent_a, parent_b, run, rng):
        """A child genome: NSGA-III's mapping child, then the table coin.

        On the table coin the first parent's table is mutated and sent
        through the gate; a rejected table falls back to the parent's
        certified routing, so nothing uncertified ever reaches pricing.
        """
        params = self.parameters
        row, moves = super()._breed(parent_a.row, parent_b.row, run, rng)
        routing = parent_a.routing
        if rng.random() < params.table_mutation_rate:
            mutated = self.synthesizer.mutate(
                routing.next_hops, rng, mutations=params.table_mutations
            )
            candidate = run.certify(mutated)
            if candidate is not None:
                routing = candidate
                moves += 1
        return _Individual(routing, row), moves

    def _selected(self, population, best, run):
        """Drop the contexts of extinct routings; survivors keep theirs warm.

        Dropped routings' route tables stay in the process cache.
        """
        live = {individual.routing.digest for individual in population}
        live.add(best.routing.digest)
        for digest in [d for d in run.contexts if d not in live]:
            del run.contexts[digest]


__all__ = [
    "ContextFactory",
    "DEFAULT_CODESIGN_KEYS",
    "CodesignParameters",
    "CodesignResult",
    "CodesignSearch",
]
