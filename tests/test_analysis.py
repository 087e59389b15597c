"""Analysis pipeline: comparison, tables, figures, ablation, report."""

import pytest

from repro.analysis.ablation import (
    leakage_ablation,
    local_link_ablation,
    routing_ablation,
)
from repro.analysis.comparison import (
    ComparisonConfig,
    ModelComparison,
    TechnologyResult,
    compare_models,
)
from repro.analysis.figures import (
    figure2_data,
    figure3_data,
    figure4_diagram,
    figure5_diagram,
)
from repro.analysis.report import (
    comparison_to_markdown,
    table1_to_markdown,
    table2_to_markdown,
    table_rows_to_markdown,
)
from repro.analysis.tables import (
    Table2Row,
    generate_table1,
    generate_table2,
    render_table1,
    render_table2,
)
from repro.energy.technology import TECH_0_07UM, TECH_0_35UM
from repro.noc.platform import Platform
from repro.noc.routing import TableRouting
from repro.noc.topology import IrregularTopology, Mesh
from repro.search.annealing import AnnealingSchedule
from repro.utils.errors import ConfigurationError
from repro.workloads.suite import suite_entry_by_name, table1_suite

#: A deliberately cheap SA schedule so analysis tests stay fast.
FAST_CONFIG = ComparisonConfig(
    annealing_schedule=AnnealingSchedule(
        cooling_factor=0.85, max_evaluations=400, stall_plateaus=6
    )
)


@pytest.fixture(scope="module")
def small_entry():
    return suite_entry_by_name("3x2-b")


@pytest.fixture(scope="module")
def small_comparison(small_entry):
    cdcg = small_entry.build()
    platform = Platform(mesh=small_entry.mesh)
    return compare_models(cdcg, platform, FAST_CONFIG, seed=5)


class TestComparisonConfig:
    def test_invalid_method(self):
        with pytest.raises(ConfigurationError):
            ComparisonConfig(method="hillclimb")

    def test_invalid_restarts(self):
        with pytest.raises(ConfigurationError):
            ComparisonConfig(restarts=0)

    def test_build_searcher(self):
        assert ComparisonConfig(method="es").build_searcher().name == "exhaustive"
        assert ComparisonConfig(method="sa").build_searcher().name == "annealing"


class TestTechnologyResult:
    def test_energy_saving(self):
        result = TechnologyResult("t", cwm_mapping_energy=100.0, cdcm_mapping_energy=80.0)
        assert result.energy_saving == pytest.approx(0.2)

    def test_zero_reference(self):
        assert TechnologyResult("t", 0.0, 10.0).energy_saving == 0.0


class TestCompareModels:
    def test_reports_both_technologies(self, small_comparison):
        names = [r.technology for r in small_comparison.technology_results]
        assert names == [TECH_0_35UM.name, TECH_0_07UM.name]

    def test_metrics_are_finite(self, small_comparison):
        assert -1.0 <= small_comparison.execution_time_reduction <= 1.0
        assert small_comparison.cpu_time_ratio > 0.0
        for result in small_comparison.technology_results:
            assert result.cwm_mapping_energy > 0
            assert result.cdcm_mapping_energy > 0

    def test_cdcm_search_beats_or_matches_cwm_on_its_own_objective(
        self, small_entry, small_comparison
    ):
        # The CDCM-found mapping must have total energy (at the platform's
        # technology, 0.07um) no worse than the CWM-found mapping, because the
        # CDCM search optimises exactly that quantity from the same start.
        saving = small_comparison.energy_saving(TECH_0_07UM.name)
        assert saving >= -0.05  # allow small annealing noise

    def test_energy_saving_lookup_error(self, small_comparison):
        with pytest.raises(ConfigurationError):
            small_comparison.energy_saving("90nm")

    def test_summary_text(self, small_comparison):
        text = small_comparison.summary()
        assert "ETR=" in text and "ECS[" in text

    def test_mappings_place_all_cores(self, small_entry, small_comparison):
        cores = set(small_entry.build().cores())
        assert set(small_comparison.cwm_mapping.cores) == cores
        assert set(small_comparison.cdcm_mapping.cores) == cores

    def test_exhaustive_method_on_tiny_example(self, example_cdcg, example_platform):
        config = ComparisonConfig(method="exhaustive")
        comparison = compare_models(example_cdcg, example_platform, config, seed=1)
        # With exhaustive search the CDCM mapping is a true optimum of ENoC,
        # so its execution time cannot exceed the CWM mapping's.
        assert comparison.cdcm_mapping_time <= comparison.cwm_mapping_time + 1e-9
        assert comparison.method == "exhaustive"

    def test_irregular_fabric_is_labelled_by_name(self, small_entry):
        # No grid dimensions: the label falls back to str(topology), as
        # SuiteEntry.noc_label does.
        fabric = IrregularTopology.from_crg(Mesh(3, 3).to_crg())
        platform = Platform(mesh=fabric, routing=TableRouting())
        comparison = compare_models(small_entry.build(), platform, FAST_CONFIG, seed=5)
        assert comparison.noc_label == str(fabric)
        assert str(fabric) in comparison.summary()


class TestTable1:
    def test_all_rows_present(self):
        rows = generate_table1()
        assert len(rows) == 8
        assert rows[0].noc_label == "3 x 2"
        assert rows[-1].noc_label == "12 x 10"

    def test_row_values_match_paper(self):
        rows = {row.noc_label: row for row in generate_table1(table1_suite(max_noc_tiles=9))}
        assert rows["3 x 2"].num_cores == [5, 6, 6]
        assert rows["3 x 2"].num_packets == [43, 17, 43]
        assert rows["3 x 2"].total_bits == [78_817, 174, 49_003]
        assert rows["3 x 3"].total_bits == [1_600, 1_860, 43_120]

    def test_render(self):
        text = render_table1(generate_table1(table1_suite(max_noc_tiles=8)))
        assert "NoC size" in text
        assert "78,817" in text


class TestTable2:
    def test_generates_rows_and_average(self, small_entry):
        entries = [small_entry, suite_entry_by_name("2x4-a")]
        rows, comparisons = generate_table2(
            entries, config=FAST_CONFIG, seed=1, keep_comparisons=True
        )
        labels = [row.noc_label for row in rows]
        assert labels == ["3 x 2", "2 x 4", "average"]
        assert rows[-1].num_applications == 2
        assert len(comparisons) == 2
        assert all(row.algorithm == "SA" for row in rows)

    def test_render(self):
        row = Table2Row("3 x 2", "SA", 0.25, 0.005, 0.15, 1.2, 3)
        text = render_table2([row])
        assert "3 x 2" in text and "25.0%" in text

    def test_as_percentages(self):
        row = Table2Row("x", "SA", 0.4, 0.0065, 0.2, 1.0, 1)
        percentages = row.as_percentages()
        assert percentages["ETR"] == pytest.approx(40.0)
        assert percentages["ECS0.07"] == pytest.approx(20.0)


class TestFigures:
    def test_figure2_energies_equal_for_both_mappings(self):
        data = figure2_data()
        assert data.energies["c"] == pytest.approx(390.0)
        assert data.energies["d"] == pytest.approx(390.0)
        assert "EDyNoC" in data.describe()

    def test_figure3_totals(self):
        data = figure3_data()
        assert data.execution_times == pytest.approx({"c": 100.0, "d": 90.0})
        assert data.energies == pytest.approx({"c": 400.0, "d": 399.0})
        assert any("router" in line for line in data.annotations("c"))
        assert "texec" in data.describe()

    def test_figure4_and_5_diagrams(self):
        fig4 = figure4_diagram(width=60)
        fig5 = figure5_diagram(width=60)
        assert "texec = 100" in fig4
        assert "x" in fig4       # contention segment present
        assert "texec = 90" in fig5
        assert "contention = 0" in fig5


class TestAblation:
    @pytest.fixture(scope="class")
    def setup(self):
        entry = suite_entry_by_name("3x2-b")
        return entry.build(), Platform(mesh=entry.mesh)

    def test_routing_ablation(self, setup):
        cdcg, platform = setup
        results = routing_ablation(cdcg, platform, FAST_CONFIG, seed=2)
        assert [r.value for r in results] == ["xy", "yx"]
        assert all("ETR" in r.describe() for r in results)

    def test_leakage_ablation_zero_factor_kills_ecs(self, setup):
        cdcg, platform = setup
        results = leakage_ablation(cdcg, platform, factors=(0.0,), config=FAST_CONFIG, seed=2)
        # With zero leakage both technologies see dynamic energy only, so the
        # ECS columns equal the dynamic-energy difference; they can only
        # differ through the small difference in the ERbit/ELbit ratio of the
        # two technology presets.
        assert results[0].ecs_035 == pytest.approx(results[0].ecs_007, abs=0.02)

    def test_local_link_ablation(self, setup):
        cdcg, platform = setup
        results = local_link_ablation(cdcg, platform, FAST_CONFIG, seed=2)
        assert [r.value for r in results] == ["False", "True"]


class TestReport:
    def test_generic_table(self):
        text = table_rows_to_markdown(["a", "b"], [["1", "2"], ["3", "4"]])
        assert text.count("|") > 0
        assert "| 3 | 4 |" in text

    def test_table1_markdown(self):
        text = table1_to_markdown(generate_table1(table1_suite(max_noc_tiles=6)))
        assert "| 3 x 2 |" in text

    def test_table2_markdown_with_paper_reference(self):
        rows = [Table2Row("3 x 2", "SA", 0.25, 0.005, 0.15, 1.2, 3)]
        text = table2_to_markdown(rows, {"3 x 2": {"ETR": 36.0, "ECS0.35": 0.5, "ECS0.07": 15.0}})
        assert "36.00%" in text
        assert "25.0%" in text

    def test_comparison_markdown(self, small_comparison):
        text = comparison_to_markdown([small_comparison])
        assert small_comparison.application in text
        assert "CPU ratio" in text
