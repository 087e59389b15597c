"""Search engines (repro.search)."""

import numpy as np
import pytest

from repro.core.mapping import Mapping
from repro.core.objective import cdcm_objective, cwm_objective
from repro.eval.context import CwmEvaluationContext
from repro.graphs.convert import cdcg_to_cwg
from repro.graphs.cwg import CWG
from repro.noc.platform import Platform
from repro.noc.topology import Mesh
from repro.search.annealing import FAST_SCHEDULE, AnnealingSchedule, SimulatedAnnealing
from repro.search.base import SearchResult
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.genetic import GeneticParameters, GeneticSearch, swap_mutation
from repro.search.greedy import GreedyConstructive
from repro.search.nsga2 import NSGA2Search, Nsga2Parameters
from repro.search.nsga3 import NSGA3Search, Nsga3Parameters
from repro.search.random_search import RandomSearch
from repro.search.registry import available_searchers, get_searcher
from repro.utils.errors import ConfigurationError


@pytest.fixture
def example_objective(example_cdcg, example_platform):
    return cdcm_objective(example_cdcg, example_platform)


@pytest.fixture
def example_initial(example_cdcg):
    return Mapping.random(example_cdcg.cores(), 4, rng=11)


class TestSearchResult:
    def test_improvement_over(self):
        result = SearchResult(Mapping({"a": 0}), best_cost=75.0, evaluations=1)
        assert result.improvement_over(100.0) == pytest.approx(0.25)
        assert result.improvement_over(0.0) == 0.0


class TestExhaustiveSearch:
    def test_finds_global_optimum(self, example_objective, example_initial):
        result = ExhaustiveSearch().search(example_objective, example_initial)
        # Optimal CDCM cost of the example is at most the cost of the paper's
        # good mapping (399 pJ).
        assert result.best_cost <= 399.0 + 1e-9
        assert result.evaluations == 24  # 4! mappings, initial counted once

    def test_space_size(self):
        assert ExhaustiveSearch.search_space_size(4, 4) == 24
        assert ExhaustiveSearch.search_space_size(3, 6) == 120
        assert ExhaustiveSearch.search_space_size(5, 4) == 0

    def test_refuses_large_spaces(self, example_objective, example_initial):
        searcher = ExhaustiveSearch(max_candidates=10)
        with pytest.raises(ConfigurationError):
            searcher.search(example_objective, example_initial)

    def test_requires_num_tiles(self, example_objective):
        with pytest.raises(ConfigurationError):
            ExhaustiveSearch().search(example_objective, Mapping({"A": 0, "B": 1, "E": 2, "F": 3}))

    def test_history_is_monotone(self, example_objective, example_initial):
        result = ExhaustiveSearch().search(example_objective, example_initial)
        costs = [cost for _, cost in result.history]
        assert costs == sorted(costs, reverse=True)


class TestSimulatedAnnealing:
    def test_improves_on_initial(self, example_objective, example_initial):
        initial_cost = example_objective(example_initial)
        result = SimulatedAnnealing(FAST_SCHEDULE).search(
            example_objective, example_initial, rng=3
        )
        assert result.best_cost <= initial_cost
        assert result.evaluations > 1
        assert result.accepted_moves > 0

    def test_reaches_optimum_on_small_example(self, example_objective, example_initial):
        result = SimulatedAnnealing(
            AnnealingSchedule(cooling_factor=0.9, max_evaluations=2000)
        ).search(example_objective, example_initial, rng=5)
        exhaustive = ExhaustiveSearch().search(example_objective, example_initial)
        assert result.best_cost == pytest.approx(exhaustive.best_cost, rel=0.02)

    def test_deterministic_with_seed(self, example_objective, example_initial):
        a = SimulatedAnnealing(FAST_SCHEDULE).search(
            example_objective, example_initial, rng=9
        )
        b = SimulatedAnnealing(FAST_SCHEDULE).search(
            example_objective, example_initial, rng=9
        )
        assert a.best_cost == b.best_cost
        assert a.best_mapping == b.best_mapping

    def test_respects_max_evaluations(self, example_objective, example_initial):
        schedule = AnnealingSchedule(max_evaluations=100)
        result = SimulatedAnnealing(schedule).search(
            example_objective, example_initial, rng=1
        )
        assert result.evaluations <= 100 + 1

    def test_explicit_initial_temperature(self, example_objective, example_initial):
        schedule = AnnealingSchedule(initial_temperature=50.0, max_evaluations=300)
        result = SimulatedAnnealing(schedule).search(
            example_objective, example_initial, rng=1
        )
        assert result.best_cost <= example_objective(example_initial)

    def test_invalid_schedules(self):
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(cooling_factor=1.5)
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(initial_temperature=-1.0)
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(max_evaluations=0)
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(min_temperature_ratio=2.0)

    def test_single_tile_noc(self):
        objective = lambda mapping: 1.0  # noqa: E731
        result = SimulatedAnnealing().search(
            objective, Mapping({"a": 0}, num_tiles=1), rng=0
        )
        assert result.best_cost == 1.0


class TestRandomSearch:
    def test_never_worse_than_initial(self, example_objective, example_initial):
        initial_cost = example_objective(example_initial)
        result = RandomSearch(samples=30).search(example_objective, example_initial, rng=7)
        assert result.best_cost <= initial_cost
        assert result.evaluations == 31

    def test_invalid_samples(self):
        with pytest.raises(ConfigurationError):
            RandomSearch(samples=0)


class TestGreedyConstructive:
    def test_beats_worst_random_mapping(self, example_cdcg, example_platform):
        cwg = cdcg_to_cwg(example_cdcg)
        greedy = GreedyConstructive(cwg, example_platform)
        mapping = greedy.construct()
        objective = cwm_objective(cwg, example_platform)
        greedy_cost = objective(mapping)
        worst = max(
            objective(Mapping.random(example_cdcg.cores(), 4, rng=s)) for s in range(10)
        )
        assert greedy_cost <= worst

    def test_places_all_cores_distinctly(self, example_cdcg, example_platform):
        cwg = cdcg_to_cwg(example_cdcg)
        mapping = GreedyConstructive(cwg, example_platform).construct()
        tiles = list(mapping.assignments().values())
        assert len(set(tiles)) == len(tiles) == 4

    def test_search_interface(self, example_cdcg, example_platform, example_objective):
        cwg = cdcg_to_cwg(example_cdcg)
        initial = Mapping.random(example_cdcg.cores(), 4, rng=2)
        result = GreedyConstructive(cwg, example_platform).search(
            example_objective, initial
        )
        assert result.best_cost <= example_objective(initial)

    def test_too_many_cores(self, example_cdcg):
        cwg = cdcg_to_cwg(example_cdcg)
        platform = Platform(mesh=Mesh(1, 2))
        with pytest.raises(ConfigurationError):
            GreedyConstructive(cwg, platform).construct()


class TestGeneticSearch:
    def test_improves_on_initial(self, example_objective, example_initial):
        params = GeneticParameters(population_size=10, generations=8)
        result = GeneticSearch(params).search(example_objective, example_initial, rng=3)
        assert result.best_cost <= example_objective(example_initial)
        assert result.evaluations > 10

    def test_children_are_valid_mappings(self, example_objective, example_initial):
        params = GeneticParameters(population_size=8, generations=5, mutation_rate=1.0)
        result = GeneticSearch(params).search(example_objective, example_initial, rng=1)
        tiles = list(result.best_mapping.assignments().values())
        assert len(set(tiles)) == len(tiles)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            GeneticParameters(population_size=1)
        with pytest.raises(ConfigurationError):
            GeneticParameters(tournament_size=99)
        with pytest.raises(ConfigurationError):
            GeneticParameters(crossover_rate=2.0)
        with pytest.raises(ConfigurationError):
            GeneticParameters(elite_count=40)


class TestOneTileNoc:
    """A one-core application on a 1x1 mesh: there is no move to make."""

    @pytest.fixture
    def solo(self):
        cwg = CWG("solo")
        cwg.add_core("a")
        context = CwmEvaluationContext(cwg, Platform(mesh=Mesh(1, 1)))
        return context, Mapping({"a": 0}, num_tiles=1)

    def test_swap_mutation_returns_the_mapping_and_draws_nothing(self, solo):
        _, mapping = solo
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        assert swap_mutation(mapping, 1, rng) is mapping
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "engine",
        [
            NSGA2Search(Nsga2Parameters(population_size=4, generations=3)),
            NSGA3Search(Nsga3Parameters(population_size=4, generations=3)),
            GeneticSearch(GeneticParameters(population_size=4, generations=3)),
        ],
        ids=["nsga2", "nsga3", "genetic"],
    )
    def test_population_engines_return_the_only_mapping(self, solo, engine):
        context, initial = solo
        result = engine.search(context, initial, rng=1)
        assert result.best_mapping == initial
        assert result.best_cost == 0.0
        assert result.accepted_moves > 0


class TestRegistry:
    def test_aliases(self):
        assert isinstance(get_searcher("sa"), SimulatedAnnealing)
        assert isinstance(get_searcher("ES"), ExhaustiveSearch)
        assert isinstance(get_searcher("random"), RandomSearch)
        assert isinstance(get_searcher("genetic"), GeneticSearch)

    def test_kwargs_forwarded(self):
        searcher = get_searcher("random", samples=5)
        assert searcher.samples == 5

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            get_searcher("tabu")

    def test_available_list(self):
        names = available_searchers()
        assert "annealing" in names and "exhaustive" in names


class TestNocSizeMismatch:
    """An initial mapping built for fewer tiles than the objective's platform.

    Every engine takes the NoC size from the initial mapping, so such a run
    used to search the smaller NoC without a word; now each raises, naming
    both sizes.
    """

    ENGINE_KWARGS = {
        "genetic": dict(parameters=GeneticParameters(population_size=4, generations=1)),
        "nsga2": dict(parameters=Nsga2Parameters(population_size=4, generations=1)),
        "nsga3": dict(parameters=Nsga3Parameters(population_size=4, generations=1)),
        "random": dict(samples=4),
        "annealing": dict(schedule=AnnealingSchedule(max_evaluations=8)),
    }

    @pytest.mark.parametrize("columns, rows, tiles", [(4, 4, 9), (3, 2, 5)])
    @pytest.mark.parametrize(
        "name",
        sorted({type(get_searcher(name)).name for name in available_searchers()}),
    )
    def test_registered_engines_refuse(self, example_cdcg, name, columns, rows, tiles):
        platform = Platform(mesh=Mesh(columns, rows))
        context = CwmEvaluationContext(cdcg_to_cwg(example_cdcg), platform)
        initial = Mapping.random(example_cdcg.cores(), tiles, rng=2)
        engine = get_searcher(name, **self.ENGINE_KWARGS.get(name, {}))
        message = rf"{tiles}-tile NoC but the objective's platform has {columns * rows} tiles"
        for objective in (context, cwm_objective(cdcg_to_cwg(example_cdcg), platform)):
            with pytest.raises(ConfigurationError, match=message):
                engine.search(objective, initial, rng=3)

    def test_codesign_refuses(self, example_cdcg):
        from repro.codesign import CodesignParameters, CodesignSearch

        engine = CodesignSearch(
            example_cdcg,
            Platform(mesh=Mesh(4, 4)),
            CodesignParameters(population_size=4, generations=1),
        )
        initial = Mapping.random(example_cdcg.cores(), 9, rng=2)
        with pytest.raises(ConfigurationError, match="9-tile NoC .* 16 tiles"):
            engine.search(initial=initial, rng=3)

    def test_matching_sizes_and_platformless_objectives_pass(self, example_cdcg):
        cwg = cdcg_to_cwg(example_cdcg)
        platform = Platform(mesh=Mesh(3, 2))
        initial = Mapping.random(example_cdcg.cores(), 6, rng=2)
        RandomSearch(samples=3).search(CwmEvaluationContext(cwg, platform), initial, rng=1)
        context = CwmEvaluationContext(cwg, platform)
        smaller = Mapping.random(example_cdcg.cores(), 5, rng=2)
        RandomSearch(samples=3).search(context.cost, smaller, rng=1)
