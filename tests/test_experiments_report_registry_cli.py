"""Tests for result rendering, the experiment registry and the CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.experiments import (
    EXPERIMENTS,
    FigureResult,
    figure_to_csv,
    format_figure,
    format_mapping,
    get_experiment,
    list_experiments,
    run_fig07,
)


@pytest.fixture(scope="module")
def small_figure() -> FigureResult:
    return run_fig07(task_ratios=(1, 5, 10, 20), utilizations=(0.05, 0.1))


class TestFormatFigure:
    def test_contains_headers_and_series(self, small_figure):
        text = format_figure(small_figure)
        assert "fig07" in text
        assert "Task Ratio" in text
        assert "util=0.05" in text and "util=0.1" in text
        # One line per x value plus headers.
        assert len(text.strip().splitlines()) == 4 + 4

    def test_max_rows_subsampling(self):
        result = run_fig07(task_ratios=range(1, 61), utilizations=(0.1,))
        text = format_figure(result, max_rows=10)
        data_lines = [
            line for line in text.splitlines()[4:] if line.strip()
        ]
        assert len(data_lines) <= 10

    def test_missing_points_render_blank(self):
        result = FigureResult(
            figure_id="t",
            title="t",
            x_label="x",
            y_label="y",
            series={
                "a": (np.array([1.0, 2.0]), np.array([10.0, 20.0])),
                "b": (np.array([2.0, 3.0]), np.array([200.0, 300.0])),
            },
        )
        text = format_figure(result)
        assert "300" in text and "10" in text


class TestCsvAndMappings:
    def test_csv_long_format(self, small_figure):
        csv = figure_to_csv(small_figure)
        lines = csv.strip().splitlines()
        assert lines[0] == "series,x,y"
        assert len(lines) == 1 + 2 * 4

    def test_format_mapping(self):
        text = format_mapping("title", {"alpha": 1.23456, "beta": "x"})
        assert "title" in text and "alpha" in text and "beta" in text


class TestRegistry:
    def test_all_figures_registered(self):
        ids = set(EXPERIMENTS)
        for fig in [f"fig{i}" for i in range(1, 12)]:
            assert fig in ids
        assert {"thresholds", "scaled", "sim-validation"} <= ids

    def test_get_experiment_unknown(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_list_experiments_matches_registry(self):
        assert len(list_experiments()) == len(EXPERIMENTS)

    def test_registered_analytic_figures_run(self):
        # Only run the cheap analytic ones here; figs 10/11 and ablations are
        # covered by their dedicated tests.
        for experiment_id in ("fig7", "thresholds", "scaled"):
            result = get_experiment(experiment_id).run()
            assert result is not None


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig1", "--csv"])
        assert args.command == "run" and args.experiment == "fig1" and args.csv

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "fig11" in out

    def test_run_figure_table(self, capsys):
        assert main(["run", "fig7", "--max-rows", "5"]) == 0
        out = capsys.readouterr().out
        assert "Task Ratio" in out

    def test_run_figure_csv(self, capsys):
        assert main(["run", "scaled", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("series,x,y")

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_feasibility_feasible(self, capsys):
        code = main([
            "feasibility",
            "--job-demand", "30000",
            "--workstations", "60",
            "--utilization", "0.05",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "FEASIBLE" in out

    def test_feasibility_infeasible(self, capsys):
        code = main([
            "feasibility",
            "--job-demand", "1200",
            "--workstations", "60",
            "--utilization", "0.2",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "NOT FEASIBLE" in out

    def test_run_ablation_mapping_output(self, capsys):
        assert main(["run", "ablation-sim-modes"]) == 0
        out = capsys.readouterr().out
        assert "analytic" in out and "monte-carlo" in out
