"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.baselines.shelf import run_shelf
from repro.cli import build_parser, main
from repro.soc.benchmarks import d695
from repro.soc.itc02 import save_soc
from repro.solvers import default_registry


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_schedule_arguments(self):
        args = build_parser().parse_args(["schedule", "d695", "32", "--percent", "7"])
        assert args.soc == "d695"
        assert args.width == 32
        assert args.percent == 7.0


class TestCommands:
    def test_benchmarks_lists_all(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        for name in ("d695", "p22810", "p34392", "p93791"):
            assert name in out

    def test_pareto_command(self, capsys):
        assert main(["pareto", "d695", "s38417", "--max-width", "16"]) == 0
        out = capsys.readouterr().out
        assert "TAM width" in out
        assert "testing time" in out

    def test_schedule_command(self, capsys):
        assert main(["schedule", "d695", "24"]) == 0
        out = capsys.readouterr().out
        assert "testing time" in out
        assert "lower bound" in out
        assert "s38417" in out

    def test_schedule_command_from_file(self, tmp_path, capsys):
        path = tmp_path / "soc.soc"
        save_soc(d695(), path)
        assert main(["schedule", str(path), "16"]) == 0
        assert "d695" in capsys.readouterr().out

    def test_sweep_command(self, capsys):
        assert (
            main(["sweep", "d695", "--min-width", "8", "--max-width", "20", "--step", "4"]) == 0
        )
        out = capsys.readouterr().out
        assert "testing time" in out
        assert "data volume" in out

    def test_solvers_command_lists_capability_metadata(self, capsys):
        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        for name in default_registry().names():
            assert name in out
        assert "constraints=yes" in out  # paper / best
        assert "schedule=no" in out  # lower-bound
        assert "exact=yes" in out  # exhaustive

    def test_solve_command_default_paper(self, capsys):
        assert main(["solve", "d695", "32"]) == 0
        out = capsys.readouterr().out
        assert "solver      : paper" in out
        assert "makespan" in out
        assert "data volume" in out

    def test_solve_command_shelf_end_to_end(self, capsys):
        assert main(["solve", "--solver", "shelf", "--", "d695", "32"]) == 0
        out = capsys.readouterr().out
        expected = run_shelf(d695(), 32).makespan
        assert f"makespan    : {expected} cycles" in out

    def test_solve_command_json_output(self, capsys):
        assert main(["solve", "d695", "16", "--solver", "lower-bound", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["solver"] == "lower-bound"
        assert record["schedule"] is None
        assert record["makespan"] > 0

    def test_solve_command_with_options(self, capsys):
        assert (
            main(
                [
                    "solve",
                    "d695",
                    "16",
                    "--solver",
                    "fixed-width",
                    "--options",
                    '{"max_buses": 2}',
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bus_widths" in out

    @pytest.mark.parametrize("solver", ["paper", "shelf", "fixed-width"])
    def test_solve_command_matches_session_api(self, capsys, solver):
        """The CLI front door and the Python front door agree exactly."""
        from repro.solvers import ScheduleRequest, Session

        assert main(["solve", "--solver", solver, "--", "d695", "32"]) == 0
        out = capsys.readouterr().out
        expected = Session().solve(
            ScheduleRequest(soc=d695(), total_width=32, solver=solver)
        )
        assert f"makespan    : {expected.makespan} cycles" in out

    def test_solve_command_unknown_solver_fails(self, capsys):
        assert main(["solve", "d695", "16", "--solver", "bogus"]) == 2
        assert "unknown solver" in capsys.readouterr().err

    def test_solve_command_solver_refusal_is_clean(self, capsys):
        assert main(["solve", "d695", "16", "--solver", "exhaustive"]) == 2
        assert "limited to 6 cores" in capsys.readouterr().err

    def test_solve_command_bad_options_json_is_clean(self, capsys):
        assert main(["solve", "d695", "16", "--options", "{bad"]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_schedule_command_bad_width_is_clean(self, capsys):
        assert main(["schedule", "d695", "0"]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_schedule_command_with_solver(self, capsys):
        assert main(["schedule", "--solver", "shelf", "--", "d695", "32"]) == 0
        out = capsys.readouterr().out
        assert "testing time" in out
        assert "lower bound" in out

    def test_schedule_command_rejects_bound_only_solver(self, capsys):
        assert main(["schedule", "d695", "32", "--solver", "lower-bound"]) == 2
        assert "produces no schedule" in capsys.readouterr().err

    def test_table2_command(self, capsys):
        assert (
            main(
                [
                    "table2",
                    "d695",
                    "--alphas",
                    "0.5",
                    "--min-width",
                    "8",
                    "--max-width",
                    "24",
                    "--step",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "W_e" in out
        assert "0.500" in out
