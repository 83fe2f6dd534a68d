"""Tests of the workload engine: journal resume, sinks, determinism."""

from __future__ import annotations

import json

import pytest

from repro.cache import SolveCache
from repro.core.exceptions import ConfigurationError
from repro.generators.experiments import experiment_config, generate_instances
from repro.scenarios.families import generate_scenarios
from repro.workloads import (
    JOURNAL_SCHEMA,
    CsvSink,
    JournalError,
    JsonlSink,
    differential_plan,
    execute_plan,
    expand_spec,
    load_journal,
    render_workload_report,
    solve_plan,
    spec_from_document,
    write_sinks,
)
from repro.workloads.sinks import CSV_COLUMNS


@pytest.fixture(scope="module")
def instances():
    config = experiment_config("E1", 6, 5, n_instances=5)
    return generate_instances(config, seed=7)


@pytest.fixture(scope="module")
def plan(instances):
    built, _ = solve_plan(instances, [("H1", 4.0), ("H4", 20.0)])
    return built


class TestExecution:
    def test_complete_run_covers_every_task(self, plan):
        run = execute_plan(plan)
        assert run.complete
        assert len(run.results) == len(plan.tasks)
        assert run.stats.n_executed == len(plan.tasks)

    def test_workers_byte_identical(self, plan):
        serial = execute_plan(plan)
        pooled = execute_plan(plan, workers=3, batch_size=2)
        for task in plan.tasks:
            assert (
                serial.result_for(task).identity()
                == pooled.result_for(task).identity()
            )
        assert render_workload_report(serial) == render_workload_report(pooled)

    def test_cache_makes_second_run_free(self, plan):
        cache = SolveCache()
        cold = execute_plan(plan, cache=cache)
        warm = execute_plan(plan, cache=cache)
        assert warm.stats.n_solved == 0
        assert warm.stats.n_cache_hits == len(plan.tasks)
        assert cache.hit_rate > 0.0
        assert render_workload_report(cold) == render_workload_report(warm)

    def test_max_tasks_defers_the_rest(self, plan):
        run = execute_plan(plan, max_tasks=3)
        assert not run.complete
        assert run.stats.n_executed == 3
        assert run.stats.n_deferred == len(plan.tasks) - 3
        assert "INCOMPLETE" in render_workload_report(run)


class TestJournalResume:
    def test_interrupted_then_resumed_is_byte_identical(self, plan, tmp_path):
        journal = tmp_path / "journal.jsonl"
        capped = execute_plan(plan, journal=journal, max_tasks=4)
        assert not capped.complete
        resumed = execute_plan(plan, journal=journal, resume=True)
        fresh = execute_plan(plan)
        assert resumed.complete
        assert resumed.stats.n_from_journal == 4
        assert resumed.stats.n_executed == len(plan.tasks) - 4
        assert render_workload_report(resumed) == render_workload_report(fresh)
        for task in plan.tasks:
            assert (
                resumed.result_for(task).identity()
                == fresh.result_for(task).identity()
            )

    def test_resumed_complete_run_executes_nothing(self, plan, tmp_path):
        journal = tmp_path / "journal.jsonl"
        execute_plan(plan, journal=journal)
        replay = execute_plan(plan, journal=journal, resume=True)
        assert replay.complete
        assert replay.stats.n_executed == 0
        assert replay.stats.n_from_journal == len(plan.tasks)

    def test_journal_of_a_different_plan_is_rejected(
        self, plan, instances, tmp_path
    ):
        journal = tmp_path / "journal.jsonl"
        execute_plan(plan, journal=journal)
        other, _ = solve_plan(instances, [("H1", 9.0)])
        with pytest.raises(JournalError, match="different plans"):
            execute_plan(other, journal=journal, resume=True)

    def test_truncated_trailing_line_is_tolerated(self, plan, tmp_path):
        journal = tmp_path / "journal.jsonl"
        execute_plan(plan, journal=journal)
        text = journal.read_text(encoding="utf-8")
        journal.write_text(text[:-40], encoding="utf-8")  # kill mid-line
        completed = load_journal(journal, plan)
        assert 0 < len(completed) < len(plan.tasks)
        resumed = execute_plan(plan, journal=journal, resume=True)
        assert resumed.complete
        assert render_workload_report(resumed) == render_workload_report(
            execute_plan(plan)
        )

    def test_resume_after_mid_line_crash_converges(self, plan, tmp_path):
        """The partial tail must be cut before appending: the first resume
        re-executes the lost task and later resumes replay everything —
        the journal never accretes merged/unparseable lines."""
        journal = tmp_path / "journal.jsonl"
        execute_plan(plan, journal=journal)
        data = journal.read_bytes()
        journal.write_bytes(data[:-40])  # no trailing newline
        first = execute_plan(plan, journal=journal, resume=True)
        assert first.complete and first.stats.n_executed == 1
        second = execute_plan(plan, journal=journal, resume=True)
        assert second.stats.n_executed == 0
        assert second.stats.n_from_journal == len(plan.tasks)
        assert len(load_journal(journal, plan)) == len(plan.tasks)

    def test_crash_inside_header_line_restarts_cleanly(self, plan, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text('{"schema":1,"kind":"workload-jo', encoding="utf-8")
        run = execute_plan(plan, journal=journal, resume=True)
        assert run.complete and run.stats.n_from_journal == 0
        replay = execute_plan(plan, journal=journal, resume=True)
        assert replay.stats.n_executed == 0

    def test_checkpoint_slicing_matches_unsliced_results(
        self, plan, tmp_path, monkeypatch
    ):
        """A tiny checkpoint interval (many slices per group) must not
        change any result or the journal's completeness."""
        from repro.workloads import engine as engine_module

        monkeypatch.setattr(engine_module, "_CHECKPOINT_INTERVAL", 2)
        journal = tmp_path / "journal.jsonl"
        sliced = execute_plan(plan, journal=journal)
        assert len(load_journal(journal, plan)) == len(plan.tasks)
        unsliced = execute_plan(plan)
        for task in plan.tasks:
            assert (
                sliced.result_for(task).identity()
                == unsliced.result_for(task).identity()
            )

    def test_checkpoints_split_one_large_instance_along_solvers(
        self, instances, tmp_path, monkeypatch
    ):
        """One instance asking six solvers 50 thresholds each (300 tasks)
        is flushed in chunks of at most ``_CHECKPOINT_INTERVAL`` tasks, and
        each (instance, solver) frontier group stays inside one chunk."""
        from repro.workloads import engine as engine_module

        interval = engine_module._CHECKPOINT_INTERVAL
        thresholds = [2.0 + 0.5 * step for step in range(50)]
        names = ["H1", "H2", "H3", "H4", "H5", "H6"]
        big, _ = solve_plan(
            instances[:1], [(name, t) for name in names for t in thresholds]
        )
        assert len(big.tasks) > interval
        calls: list[list[tuple[str, str]]] = []
        real = engine_module.solve_frontier_many

        def _recording(triples, **kwargs):
            calls.append([(pair, solver.name) for pair, solver, _ in triples])
            return real(triples, **kwargs)

        monkeypatch.setattr(engine_module, "solve_frontier_many", _recording)
        journal = tmp_path / "journal.jsonl"
        run = execute_plan(big, journal=journal)
        assert len(load_journal(journal, big)) == len(big.tasks)
        assert len(calls) >= 2
        assert all(len(call) <= interval for call in calls)
        owners: dict[str, int] = {}
        for index, call in enumerate(calls):
            for _, solver in call:
                assert owners.setdefault(solver, index) == index
        assert len(owners) == len(names)
        unsliced = execute_plan(big, frontier=False)
        for task in big.tasks:
            assert (
                run.result_for(task).identity()
                == unsliced.result_for(task).identity()
            )

    def test_oversized_frontier_group_is_sliced_at_the_interval(self):
        from repro.workloads.engine import _frontier_chunks

        class _Task:
            def __init__(self, instance_hash, solver):
                self.instance_hash, self.solver = instance_hash, solver

        tasks = [_Task("a", "H1") for _ in range(7)] + [_Task("a", "H2")] * 2
        chunks = _frontier_chunks(tasks, 3)
        assert [len(chunk) for chunk in chunks] == [3, 3, 3]
        assert [task.solver for task in chunks[-1]] == ["H1", "H2", "H2"]

    def test_without_resume_an_existing_journal_is_overwritten(
        self, plan, tmp_path
    ):
        journal = tmp_path / "journal.jsonl"
        execute_plan(plan, journal=journal, max_tasks=2)
        execute_plan(plan, journal=journal)  # fresh run: truncates
        lines = journal.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + len(plan.tasks)

    def test_corrupt_middle_line_is_an_error(self, plan, tmp_path):
        journal = tmp_path / "journal.jsonl"
        execute_plan(plan, journal=journal)
        lines = journal.read_text(encoding="utf-8").splitlines()
        lines[2] = "{corrupt"
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(JournalError, match="corrupt"):
            load_journal(journal, plan)

    def test_empty_journal_replays_as_nothing(self, plan, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_bytes(b"")
        assert load_journal(journal, plan) == {}

    def test_lone_truncated_header_replays_as_nothing(self, plan, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text('{"schema":1,"kind":"workload-jo', encoding="utf-8")
        assert load_journal(journal, plan) == {}

    def test_foreign_header_kind_is_rejected(self, plan, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text('{"kind":"something-else"}\n', encoding="utf-8")
        with pytest.raises(JournalError, match="not a workload journal"):
            load_journal(journal, plan)

    def test_unsupported_schema_is_rejected(self, plan, tmp_path):
        journal = tmp_path / "journal.jsonl"
        execute_plan(plan, journal=journal)
        lines = journal.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["schema"] = JOURNAL_SCHEMA + 1
        lines[0] = json.dumps(header)
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(JournalError, match="unsupported schema"):
            load_journal(journal, plan)

    def test_record_without_task_key_is_an_error(self, plan, tmp_path):
        journal = tmp_path / "journal.jsonl"
        execute_plan(plan, journal=journal)
        lines = journal.read_text(encoding="utf-8").splitlines()
        lines[1] = '{"kind":"solve"}'
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(JournalError, match="not a task record"):
            load_journal(journal, plan)


class TestTruncatedTailRepair:
    """``_repair_truncated_tail`` edge cases around the header line.

    A journal holding exactly one complete header and nothing else — the
    writer died right after the header's newline was lost, or never got to
    checkpoint a record — must keep its header: cutting it would silently
    restart the run on the next resume.
    """

    def test_empty_file_is_left_alone(self, tmp_path):
        from repro.workloads.engine import _repair_truncated_tail

        journal = tmp_path / "journal.jsonl"
        journal.write_bytes(b"")
        _repair_truncated_tail(journal)
        assert journal.read_bytes() == b""

    def test_complete_header_without_newline_is_preserved(self, plan, tmp_path):
        from repro.workloads.engine import _repair_truncated_tail

        journal = tmp_path / "journal.jsonl"
        header = json.dumps(
            {
                "schema": 1,
                "kind": "workload-journal",
                "plan": plan.digest,
                "spec": None,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        journal.write_text(header, encoding="utf-8")  # EOF, no newline
        _repair_truncated_tail(journal)
        assert journal.read_text(encoding="utf-8") == header + "\n"
        # end to end: the resumed run appends to the same journal instead of
        # restarting it, and a second resume replays everything
        execute_plan(plan, journal=journal, resume=True)
        replay = execute_plan(plan, journal=journal, resume=True)
        assert replay.stats.n_executed == 0
        assert replay.stats.n_from_journal == len(plan.tasks)

    def test_header_plus_partial_record_keeps_the_header(self, plan, tmp_path):
        from repro.workloads.engine import _repair_truncated_tail

        journal = tmp_path / "journal.jsonl"
        execute_plan(plan, journal=journal, max_tasks=1)
        lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
        journal.write_text(lines[0] + lines[1][:-25], encoding="utf-8")
        _repair_truncated_tail(journal)
        assert journal.read_text(encoding="utf-8") == lines[0]
        resumed = execute_plan(plan, journal=journal, resume=True)
        assert resumed.complete and resumed.stats.n_from_journal == 0

    def test_complete_record_without_newline_is_kept(self, plan, tmp_path):
        from repro.workloads.engine import _repair_truncated_tail

        journal = tmp_path / "journal.jsonl"
        execute_plan(plan, journal=journal, max_tasks=2)
        data = journal.read_bytes()
        journal.write_bytes(data[:-1])  # only the final newline was lost
        _repair_truncated_tail(journal)
        assert journal.read_bytes() == data
        resumed = execute_plan(plan, journal=journal, resume=True)
        assert resumed.stats.n_from_journal == 2


class TestTimeBudgetResume:
    """Wall-clock-budgeted tasks are non-replayable by construction."""

    CELLS = [("H1", 6.0), ("local-search-h1", 6.0, None, 0.02)]

    def test_budget_tasks_never_enter_the_journal(self, instances, tmp_path):
        built, _ = solve_plan(instances, self.CELLS)
        budget_tasks = [t for t in built.tasks if t.time_budget is not None]
        assert len(budget_tasks) == len(instances)
        journal = tmp_path / "journal.jsonl"
        first = execute_plan(built, journal=journal)
        assert first.complete
        text = journal.read_text(encoding="utf-8")
        for task in budget_tasks:
            assert task.digest not in text

    def test_resume_reexecutes_exactly_the_budget_tasks(
        self, instances, tmp_path
    ):
        built, _ = solve_plan(instances, self.CELLS)
        n_budget = sum(1 for t in built.tasks if t.time_budget is not None)
        journal = tmp_path / "journal.jsonl"
        execute_plan(built, journal=journal)
        resumed = execute_plan(built, journal=journal, resume=True)
        assert resumed.complete
        assert resumed.stats.n_from_journal == len(built.tasks) - n_budget
        assert resumed.stats.n_executed == n_budget

    def test_stale_budget_records_from_older_builds_are_skipped(
        self, instances, tmp_path
    ):
        """Defence in depth: a journal written by a build that *did*
        checkpoint budget-bearing results must not replay them."""
        from repro.workloads.engine import _journal_line

        built, _ = solve_plan(instances, self.CELLS)
        journal = tmp_path / "journal.jsonl"
        run = execute_plan(built, journal=journal)
        budget_task = next(t for t in built.tasks if t.time_budget is not None)
        with journal.open("a", encoding="utf-8") as handle:
            handle.write(_journal_line(budget_task, run.result_for(budget_task)))
        completed = load_journal(journal, built)
        assert budget_task.digest not in completed

    def test_cells_differing_only_in_budget_rejected(self, instances):
        """time_budget is outside the task digest, so two such cells would
        collide on one journal key while behaving differently."""
        with pytest.raises(ConfigurationError, match="time_budget"):
            solve_plan(
                instances,
                [
                    ("local-search-h1", 6.0, None, 0.02),
                    ("local-search-h1", 6.0, None, 0.05),
                ],
            )


class TestSinks:
    def test_jsonl_and_csv_rows(self, plan, tmp_path):
        run = execute_plan(plan)
        jsonl_path = tmp_path / "rows.jsonl"
        csv_path = tmp_path / "rows.csv"
        with JsonlSink(jsonl_path) as jsonl, CsvSink(csv_path) as csv_sink:
            write_sinks(run, [jsonl, csv_sink])
        rows = [
            json.loads(line)
            for line in jsonl_path.read_text(encoding="utf-8").splitlines()
        ]
        assert len(rows) == len(plan.tasks)
        assert all("wall_time" not in row and "cache_hit" not in row for row in rows)
        header, *data = csv_path.read_text(encoding="utf-8").splitlines()
        assert header == ",".join(CSV_COLUMNS)
        assert len(data) == len(plan.tasks)

    def test_sink_bytes_identical_after_resume(self, plan, tmp_path):
        journal = tmp_path / "journal.jsonl"
        execute_plan(plan, journal=journal, max_tasks=5)
        resumed = execute_plan(plan, journal=journal, resume=True)
        fresh = execute_plan(plan)
        resumed_path = tmp_path / "resumed.jsonl"
        fresh_path = tmp_path / "fresh.jsonl"
        with JsonlSink(resumed_path) as sink:
            write_sinks(resumed, [sink])
        with JsonlSink(fresh_path) as sink:
            write_sinks(fresh, [sink])
        assert resumed_path.read_bytes() == fresh_path.read_bytes()

    def test_csv_sink_rejects_differential_rows(self, tmp_path):
        scenarios = generate_scenarios(3, seed=0)
        plan = differential_plan(
            [(s.application, s.platform) for s in scenarios], n_datasets=4
        )
        run = execute_plan(plan)
        with pytest.raises(ConfigurationError, match="solve rows only"):
            with CsvSink(tmp_path / "rows.csv") as sink:
                write_sinks(run, [sink])


class TestDifferentialWorkloads:
    def test_fuzz_style_plan_resumes_byte_identically(self, tmp_path):
        scenarios = generate_scenarios(8, seed=1)
        pairs = [(s.application, s.platform) for s in scenarios]
        plan = differential_plan(pairs, n_datasets=4)
        journal = tmp_path / "journal.jsonl"
        capped = execute_plan(plan, journal=journal, max_tasks=3)
        assert not capped.complete
        resumed = execute_plan(plan, journal=journal, resume=True)
        fresh = execute_plan(plan)
        assert resumed.complete
        for task in plan.tasks:
            assert resumed.result_for(task) == fresh.result_for(task)
        assert render_workload_report(resumed) == render_workload_report(fresh)

    def test_differential_spec_expands_and_runs(self):
        spec = spec_from_document(
            {
                "kind": "differential",
                "source": {
                    "kind": "scenarios",
                    "count": 4,
                    "families": ["homogeneous-chain"],
                },
                "n_datasets": 4,
                "seed": 2,
            }
        )
        plan = expand_spec(spec)
        assert plan.kind == "differential"
        run = execute_plan(plan)
        assert run.complete
        assert "comparisons" in render_workload_report(run)


class TestCorpusSource:
    def test_corpus_spec_expands_and_runs_the_oracle(self):
        """Corpus fixtures include heterogeneous platforms, so the corpus
        source pairs naturally with the differential workload kind (the
        oracle gates solvers by platform class itself)."""
        spec = spec_from_document(
            {
                "kind": "differential",
                "source": {"kind": "corpus", "directory": "tests/corpus"},
                "n_datasets": 4,
            }
        )
        plan = expand_spec(spec)
        assert plan.n_instances >= 1
        assert execute_plan(plan).complete

    def test_missing_corpus_directory_is_an_error(self):
        spec = spec_from_document(
            {
                "source": {"kind": "corpus", "directory": "tests/no-such-corpus"},
                "solvers": ["H1"],
                "thresholds": [5.0],
            }
        )
        with pytest.raises(ConfigurationError, match="no instances"):
            expand_spec(spec)
