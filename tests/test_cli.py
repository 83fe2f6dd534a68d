"""Tests of the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_arguments(self):
        args = build_parser().parse_args(
            [
                "solve",
                "--works", "1", "2",
                "--comms", "1", "1", "1",
                "--speeds", "2", "1",
                "--heuristic", "H1",
                "--period", "5",
            ]
        )
        assert args.command == "solve"
        assert args.works == [1.0, 2.0]


class TestSolveCommand:
    def test_solve_fixed_period(self, capsys):
        rc = main(
            [
                "solve",
                "--works", "5", "3", "8", "2",
                "--comms", "10", "4", "6", "2", "10",
                "--speeds", "4", "2", "1",
                "--bandwidth", "10",
                "--heuristic", "H1",
                "--period", "6",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Sp mono P" in out
        assert "period" in out

    def test_solve_fixed_latency(self, capsys):
        rc = main(
            [
                "solve",
                "--works", "5", "3",
                "--comms", "1", "1", "1",
                "--speeds", "4", "2",
                "--heuristic", "H5",
                "--latency", "10",
            ]
        )
        assert rc == 0
        assert "Sp mono L" in capsys.readouterr().out

    def test_solve_missing_bound_errors(self, capsys):
        rc = main(
            [
                "solve",
                "--works", "5", "3",
                "--comms", "1", "1", "1",
                "--speeds", "4", "2",
                "--heuristic", "H1",
            ]
        )
        assert rc == 2
        assert "needs --period" in capsys.readouterr().err

    def test_solve_by_registry_name(self, capsys):
        """Exact solvers are reachable through the same subcommand."""
        rc = main(
            [
                "solve",
                "--works", "5", "3", "8", "2",
                "--comms", "10", "4", "6", "2", "10",
                "--speeds", "2", "2", "2",
                "--solver", "hom-dp-period",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "hom-dp-period" in out and "exact" in out

    def test_solve_brute_force_honours_latency_bound(self, capsys):
        """An opposite-criterion bound is forwarded, not silently dropped."""
        args = [
            "solve",
            "--works", "5", "3", "8", "2",
            "--comms", "10", "4", "6", "2", "10",
            "--speeds", "4", "2", "1",
            "--solver", "BF-P",
        ]

        def objective_lines(text: str) -> list[str]:
            # wall time and mapping layout vary run to run; the objective
            # values are what the bound must change
            return [
                line for line in text.splitlines()
                if line.startswith(("period", "latency"))
            ]

        assert main(args) == 0
        unconstrained = objective_lines(capsys.readouterr().out)
        assert main(args + ["--latency", "7"]) == 0
        bounded = objective_lines(capsys.readouterr().out)
        # the latency bound excludes the unconstrained optimum (3.9, 9.85)
        # on this instance, forcing a different optimal mapping
        assert unconstrained != bounded

    def test_solve_rejects_same_criterion_bound_on_unconstrained_solver(
        self, capsys
    ):
        """--period with a min-period solver is an error, not silently dropped."""
        rc = main(
            [
                "solve",
                "--works", "5", "3", "8", "2",
                "--comms", "10", "4", "6", "2", "10",
                "--speeds", "2", "2", "2",
                "--solver", "hom-dp-period",
                "--period", "4",
            ]
        )
        assert rc == 2
        assert "--period does not apply" in capsys.readouterr().err

    def test_solve_rejects_unsupported_bound_cleanly(self, capsys):
        rc = main(
            [
                "solve",
                "--works", "5", "3",
                "--comms", "1", "1", "1",
                "--speeds", "4", "2",
                "--solver", "one-to-one-period",
                "--latency", "5",
            ]
        )
        assert rc == 2
        assert "does not take a latency bound" in capsys.readouterr().err

    def test_solve_unknown_solver_suggests(self, capsys):
        rc = main(
            [
                "solve",
                "--works", "5", "3",
                "--comms", "1", "1", "1",
                "--speeds", "4", "2",
                "--solver", "hom-dp-perod",
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "did you mean" in err and "hom-dp-period" in err

    def test_solve_all_runs_every_family(self, capsys):
        rc = main(
            [
                "solve",
                "--works", "5", "3", "8", "2",
                "--comms", "10", "4", "6", "2", "10",
                "--speeds", "4", "2", "1",
                "--solver", "all",
                "--period", "6",
                "--latency", "20",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        # one row per registered solver, every family represented
        for key in ("H1", "H6", "BM-LP", "BF-P", "O2O-P", "REP", "X1"):
            assert key in out
        assert "heuristic" in out and "exact" in out and "extension" in out
        # homogeneous-only DPs are skipped on this heterogeneous platform
        assert "skipped" in out

    def test_solve_exact_group_on_homogeneous_platform(self, capsys):
        rc = main(
            [
                "solve",
                "--works", "5", "3", "8", "2",
                "--comms", "10", "4", "6", "2", "10",
                "--speeds", "2", "2", "2",
                "--solver", "exact",
                "--period", "8",
                "--latency", "30",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "DP-P" in out and "BM-LP" in out
        assert "(requires identical processor speeds)" not in out


class TestSolversCommand:
    def test_lists_all_families(self, capsys):
        rc = main(["solvers"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("Sp mono P", "hom-dp-period", "greedy-replication"):
            assert name in out
        assert "capabilities" in out

    def test_family_filter(self, capsys):
        rc = main(["solvers", "--family", "exact"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "hom-dp-period" in out
        assert "Sp mono P" not in out

    def test_footer_names_the_compiled_engine(self, capsys):
        from repro.core.kernels import compiled

        if compiled.engine_functions() is None:
            pytest.skip(f"no compiled engine: {compiled.unavailable_reason()}")
        assert main(["solvers"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "kernels: compiled engine cc"

    def test_footer_names_the_numpy_fallback_and_its_reason(self, capsys):
        from tests.kernel_engine import engine_disabled

        with engine_disabled():
            assert main(["solvers"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == (
            "kernels: numpy fallback (cc: disabled via REPRO_KERNELS_DISABLE)"
        )


class TestParallelFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.workers == 1
        assert args.batch_size is None

    def test_workers_and_batch_size_parsed(self):
        args = build_parser().parse_args(
            ["sweep", "--workers", "4", "--batch-size", "8"]
        )
        assert args.workers == 4
        assert args.batch_size == 8

    def test_failure_command_has_parallel_flags(self):
        args = build_parser().parse_args(["failure", "--workers", "2"])
        assert args.workers == 2

    def test_sweep_output_identical_for_any_worker_count(self, capsys):
        base = [
            "sweep", "--family", "E1", "--stages", "6", "--processors", "5",
            "--instances", "3", "--thresholds", "3", "--seed", "1",
        ]
        assert main(base) == 0
        serial_out = capsys.readouterr().out
        assert main(base + ["--workers", "2", "--batch-size", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out


class TestExperimentCommands:
    def test_sweep_command(self, capsys):
        rc = main(
            [
                "sweep", "--family", "E1", "--stages", "6", "--processors", "5",
                "--instances", "3", "--thresholds", "3", "--seed", "1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Sp mono P" in out and "E1" in out

    def test_failure_command(self, capsys):
        rc = main(
            [
                "failure", "--family", "E2", "--stages", "5", "8",
                "--processors", "5", "--instances", "3", "--seed", "1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "H1" in out and "n=8" in out

    def test_ablation_command(self, capsys):
        rc = main(
            [
                "ablation", "--family", "E1", "--stages", "6", "--processors", "5",
                "--instances", "2", "--study", "selection-rule",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Ablation" in out

    def test_validate_command(self, capsys):
        rc = main(
            [
                "validate", "--family", "E1", "--stages", "5", "--processors", "4",
                "--instances", "2", "--datasets", "20",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "rel. error" in out

    def test_validate_with_registry_solver(self, capsys):
        rc = main(
            [
                "validate", "--family", "E1", "--stages", "5", "--processors", "4",
                "--instances", "2", "--datasets", "20",
                "--solver", "bitmask-dp-period-for-latency",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "bitmask-dp-period-for-latency" in out and "rel. error" in out

    def test_validate_rejects_group_selectors(self, capsys):
        rc = main(
            [
                "validate", "--family", "E1", "--stages", "5", "--processors", "4",
                "--instances", "2", "--solver", "heuristics",
            ]
        )
        assert rc == 2
        assert "single solver" in capsys.readouterr().err

    def test_validate_incompatible_solver_fails_cleanly(self, capsys):
        """A homogeneous-only solver on a heterogeneous stream: no traceback."""
        rc = main(
            [
                "validate", "--family", "E1", "--stages", "5", "--processors", "4",
                "--instances", "2", "--solver", "hom-dp-period",
            ]
        )
        assert rc == 2
        assert "identical processor speeds" in capsys.readouterr().err

    def test_validate_unknown_solver_rejected(self, capsys):
        rc = main(
            [
                "validate", "--family", "E1", "--stages", "5", "--processors", "4",
                "--instances", "2", "--solver", "nope",
            ]
        )
        assert rc == 2
        assert "unknown solver" in capsys.readouterr().err


class TestVersionFlag:
    def test_version_is_single_sourced(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_setup_py_reads_the_same_version(self):
        import re
        from pathlib import Path

        import repro

        # apply setup.py's exact textual pattern to the real __init__.py, so
        # a reformatting that would break `setup.py`'s _version() fails here
        init_text = (
            Path(repro.__file__)
        ).read_text(encoding="utf-8")
        match = re.search(r'^__version__ = "([^"]+)"$', init_text, re.MULTILINE)
        assert match is not None, "setup.py's version pattern no longer matches"
        assert match.group(1) == repro.__version__


class TestBatchCommand:
    _ARGS = [
        "batch", "--family", "E1", "--stages", "6", "--processors", "5",
        "--instances", "4", "--repeat", "2", "--period", "12",
        "--latency", "60",
    ]

    def test_batch_report_shape(self, capsys):
        rc = main(self._ARGS)
        captured = capsys.readouterr()
        assert rc == 0
        # 4 instances x 2 repeats x 6 heuristics: 48 task rows collapse onto
        # 24 unique (instance, solver) cells
        assert "tasks       : 48 requested, 24 unique after deduplication" in captured.out
        assert "solved 24 of 48 requested task(s) (24 deduplicated" in captured.err

    def test_batch_cold_vs_warm_cache_dir_byte_identical(self, tmp_path, capsys):
        args = self._ARGS + ["--cache-dir", str(tmp_path / "store")]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert cold == warm
        assert "instance" in cold and "period" in cold

    def test_batch_workers_byte_identical(self, capsys):
        assert main(self._ARGS) == 0
        serial = capsys.readouterr().out
        assert main(self._ARGS + ["--workers", "3"]) == 0
        pooled = capsys.readouterr().out
        assert serial == pooled

    def test_batch_skips_inapplicable_solvers(self, capsys):
        rc = main(
            [
                "batch", "--family", "E1", "--stages", "5", "--processors", "4",
                "--instances", "2", "--solver", "all", "--period", "12",
                "--latency", "60",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "skipping" in captured.err  # e.g. homogeneous-only DPs

    def test_batch_unknown_solver_rejected(self, capsys):
        rc = main(
            [
                "batch", "--family", "E1", "--stages", "5", "--processors", "4",
                "--instances", "2", "--solver", "nope",
            ]
        )
        assert rc == 2
        assert "unknown solver" in capsys.readouterr().err
