"""Tests for the per-figure experiment drivers.

Full-suite shape assertions live in the benchmark harness (benchmarks/);
here the drivers run on a reduced benchmark set so the tests stay fast
while still exercising the result plumbing and renderers end to end.
"""

import pytest

from repro.harness import figure1, figure4, figure5, main


SMALL = ("antlr", "lusearch")


@pytest.fixture(scope="module")
def fig1_small():
    return figure1(benchmarks=SMALL)


@pytest.fixture(scope="module")
def fig5_small():
    return figure5(benchmarks=SMALL)


class TestFigure1:
    def test_runs_recorded(self, fig1_small):
        assert set(fig1_small.runs) == set(SMALL)
        for bench in SMALL:
            assert set(fig1_small.runs[bench]) == {"insens", "2objH"}
            assert not fig1_small.timed_out(bench, "insens")

    def test_render_contains_table_and_bars(self, fig1_small):
        text = fig1_small.render()
        assert "antlr" in text and "insens" in text and "|" in text

    def test_markdown(self, fig1_small):
        md = fig1_small.to_markdown()
        assert md.startswith("| benchmark |")


class TestFigure4:
    def test_percentages_in_range(self):
        result = figure4(benchmarks=SMALL)
        for bench in SMALL:
            for h in ("A", "B"):
                sites, objects = result.percentages[bench][h]
                assert 0 <= sites <= 100
                assert 0 <= objects <= 100

    def test_average_row_rendered(self):
        result = figure4(benchmarks=SMALL)
        assert "average" in result.render()


class TestFlavorFigures:
    def test_variant_set(self, fig5_small):
        assert fig5_small.variants == (
            "insens",
            "2objH-IntroA",
            "2objH-IntroB",
            "2objH",
        )

    def test_all_small_benchmarks_terminate(self, fig5_small):
        for bench in SMALL:
            for variant in fig5_small.variants:
                assert not fig5_small.timed_out(bench, variant)

    def test_precision_ordering_holds(self, fig5_small):
        """insens >= IntroA >= IntroB >= full on every metric."""
        for bench in SMALL:
            reports = [
                fig5_small.run(bench, v).precision for v in fig5_small.variants
            ]
            for metric in ("polymorphic_call_sites", "casts_may_fail"):
                values = [getattr(r, metric) for r in reports]
                assert values == sorted(values, reverse=True), (bench, metric)

    def test_budget_the_insens_pass_trips_gives_timeout_cells(self):
        # antlr's insensitive pass alone derives more than 5000 tuples, so
        # every variant, introspective ones included, is a TIMEOUT cell.
        result = figure5(benchmarks=("antlr",), max_tuples=5000)
        for variant in result.variants:
            assert result.timed_out("antlr", variant), variant
            assert "tuple budget" in result.run("antlr", variant).reason
        assert "TIMEOUT" in result.render()

    def test_render_sections(self, fig5_small):
        text = fig5_small.render()
        assert "polymorphic virtual call sites" in text
        assert "reachable methods" in text
        assert "casts that may fail" in text


class TestCli:
    def test_unknown_experiment_exits_nonzero(self, capsys):
        assert main(["not-a-fig"]) == 2
        assert "unknown experiment" in capsys.readouterr().out
