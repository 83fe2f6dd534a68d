"""The workload engine: execute a plan with checkpointing, resume and sinks.

:func:`execute_plan` is the one execution loop under every experiment,
sweep and fuzz run:

1. **journal replay** — with ``resume=True`` and an existing journal, tasks
   whose digests appear in the journal are *not* re-executed; their results
   are replayed from the byte-stable serialisation
   (:mod:`repro.core.serialization`), so a resumed run costs only the
   incomplete fraction;
2. **service execution** — incomplete solve tasks go through the batch
   solve service (:func:`repro.solvers.service.solve_frontier_many`, one
   call per checkpoint chunk), inheriting its dedupe / cache-probe /
   route / shard-misses pipeline and its determinism contract;
   differential tasks fan the oracle out over the process pool;
3. **checkpointing** — each completed task is appended to the JSONL journal
   (one line per task, keyed by task digest); execution is sliced so the
   journal is flushed at least every ``_CHECKPOINT_INTERVAL`` tasks, so an
   interrupted run loses at most the slice in flight — never a whole fuzz
   stream or sweep cell;
4. **deterministic reporting** — :func:`render_workload_report` and the
   sink rows (:mod:`repro.workloads.sinks`) are pure functions of
   (plan, solutions): no wall-clock data, no journal/cache statistics.  An
   interrupted-then-resumed run therefore produces a final report
   **byte-identical** to an uninterrupted one (CI's ``workload-smoke``
   target pins this).

The journal guards itself: its header records the plan digest, and a
journal written for a different plan is rejected instead of silently
replaying wrong results.  A truncated trailing line (the process died
mid-write) is ignored; everything before it is still valid.

**Sharding.** ``execute_plan(plan, shard=(i, n))`` executes only the tasks
:func:`~repro.workloads.plan.shard_tasks` assigns to shard ``i`` of ``n``
— a deterministic partition of the task list by content-addressed digest —
while journaling against the *full* plan digest.  Independently-run shard
journals (different processes, different hosts) are folded back into one
resumable journal by :func:`merge_journals`, and
``execute_plan(resume=True)`` on the merged journal replays straight into
the final report: a plan run whole and a plan run as ``n`` merged shards
produce byte-identical reports (CI's ``shard-smoke`` target pins this).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Iterable, Sequence

from ..core.exceptions import ConfigurationError, ReproError
from ..core.serialization import solve_result_from_dict, solve_result_to_dict
from ..solvers.base import SolveRequest, SolveResult
from ..solvers.service import solve_frontier_many, solve_many
from ..utils.parallel import parallel_map
from ..utils.shm import InstanceArena, resolve_instance
from ..utils.tables import format_table
from .plan import WorkloadPlan, WorkloadTask, shard_tasks
from .sinks import RunningAggregate, differential_row, solve_row

if TYPE_CHECKING:  # pragma: no cover - type-checking imports only
    from ..cache.store import SolveCache
    from ..scenarios.differential import DifferentialReport

__all__ = [
    "JOURNAL_SCHEMA",
    "JournalError",
    "MergeSummary",
    "WorkloadStats",
    "WorkloadRun",
    "load_journal",
    "merge_journals",
    "execute_plan",
    "write_sinks",
    "render_workload_report",
]

#: current journal line format version (unknown versions are rejected)
JOURNAL_SCHEMA = 1

#: journal checkpoint granularity: when a journal is attached, execution is
#: sliced so completed tasks are flushed at least this often, bounding what
#: an interruption can lose (results are byte-identical at any slicing)
_CHECKPOINT_INTERVAL = 256


class JournalError(ReproError):
    """A checkpoint journal cannot be used with the plan at hand."""


@dataclass(frozen=True)
class WorkloadStats:
    """How a run's tasks were answered (execution provenance, stderr-only)."""

    n_tasks: int
    n_from_journal: int
    n_executed: int
    n_deferred: int
    n_cache_hits: int = 0
    n_solved: int = 0
    #: incomplete tasks that belong to another shard of a ``shard=(i, n)``
    #: run (left for the sibling shards; merge the journals to collect them)
    n_out_of_shard: int = 0

    def describe(self) -> str:
        """One-line execution summary (never part of the final report)."""
        line = (
            f"workload tasks: {self.n_tasks} total, "
            f"{self.n_from_journal} replayed from journal, "
            f"{self.n_executed} executed "
            f"({self.n_cache_hits} cache hit(s), {self.n_solved} solved), "
            f"{self.n_deferred} deferred"
        )
        if self.n_out_of_shard:
            line += f", {self.n_out_of_shard} in other shards"
        return line


class WorkloadRun:
    """Outcome of :func:`execute_plan`: results keyed by task digest."""

    def __init__(
        self,
        plan: WorkloadPlan,
        results: dict[str, Any],
        stats: WorkloadStats,
    ) -> None:
        self.plan = plan
        self.results = results
        self.stats = stats

    @property
    def complete(self) -> bool:
        """Whether every plan task has a result (no cap, nothing deferred)."""
        return all(task.digest in self.results for task in self.plan.tasks)

    def result_for(self, task: WorkloadTask) -> Any:
        """The result of one task (KeyError when deferred by ``max_tasks``)."""
        return self.results[task.digest]

    def __repr__(self) -> str:
        return (
            f"WorkloadRun(tasks={len(self.plan.tasks)}, "
            f"completed={len(self.results)}, complete={self.complete})"
        )


# --------------------------------------------------------------------------- #
# journal serialisation
# --------------------------------------------------------------------------- #
def _report_to_document(report: "DifferentialReport") -> dict[str, Any]:
    return {
        "n_comparisons": int(report.n_comparisons),
        "failures": [
            {"check": failure.check, "detail": failure.detail}
            for failure in report.failures
        ],
    }


def _report_from_document(document: dict[str, Any]) -> "DifferentialReport":
    from ..scenarios.differential import CheckFailure, DifferentialReport

    return DifferentialReport(
        failures=tuple(
            CheckFailure(check=str(f["check"]), detail=str(f["detail"]))
            for f in document.get("failures", [])
        ),
        n_comparisons=int(document["n_comparisons"]),
    )


def _journal_line(task: WorkloadTask, result: Any) -> str:
    entry: dict[str, Any] = {"task": task.digest, "kind": task.kind}
    if task.kind == "solve":
        entry["result"] = solve_result_to_dict(result)
    else:
        entry["report"] = _report_to_document(result)
    return json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"


def _scan_journal(path: Path) -> tuple[dict[str, Any] | None, list[dict[str, Any]]]:
    """Parse one journal into (header, entries), tolerating a truncated tail.

    A final line that fails to parse is the writer's mid-append death and
    is dropped; corrupt content anywhere before it is an error.  An empty
    file, or a lone truncated header line, means the writer died before
    checkpointing anything: the header is ``None`` and there are no entries.
    """
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        return None, []
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        if "\n" not in text:
            return None, []
        raise JournalError(f"journal {path} has an unreadable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != "workload-journal":
        raise JournalError(
            f"journal {path} is not a workload journal (header kind "
            f"{header.get('kind') if isinstance(header, dict) else header!r})"
        )
    if header.get("schema") != JOURNAL_SCHEMA:
        raise JournalError(
            f"journal {path} has unsupported schema {header.get('schema')!r} "
            f"(expected {JOURNAL_SCHEMA}); it was written by an incompatible "
            "build — re-run it with this one"
        )
    entries: list[dict[str, Any]] = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines):
                break  # truncated tail: the writer was interrupted mid-line
            raise JournalError(f"journal {path} is corrupt at line {i}")
        if not isinstance(entry, dict) or "task" not in entry:
            raise JournalError(
                f"journal {path} line {i} is not a task record (no 'task' key)"
            )
        entries.append(entry)
    return header, entries


def load_journal(path: str | Path, plan: WorkloadPlan) -> dict[str, Any]:
    """Replay a journal's completed tasks (digest -> result).

    The header's plan digest must match ``plan`` — a journal belongs to
    exactly one plan.  A truncated trailing line is tolerated (the writer
    died mid-append); corrupt content before that is an error.  An empty
    journal, or one holding only a truncated header, replays as ``{}``.
    Entries for digests the plan does not contain are ignored defensively,
    and so are entries for tasks carrying a wall-clock ``time_budget`` —
    their results are machine-dependent, so a resumed run re-executes them
    instead of replaying a stale measurement (the engine does not write
    such records in the first place; this guards against journals from
    older builds).
    """
    path = Path(path)
    header, entries = _scan_journal(path)
    if header is None:
        return {}
    if header.get("plan") != plan.digest:
        raise JournalError(
            f"journal {path} was written for plan "
            f"{str(header.get('plan'))[:12]}..., not {plan.digest[:12]}...; "
            "refusing to replay results across different plans"
        )
    known = {task.digest: task for task in plan.tasks}
    completed: dict[str, Any] = {}
    for entry in entries:
        task = known.get(entry["task"])
        if task is None or task.time_budget is not None:
            continue
        if entry.get("kind") == "differential":
            completed[task.digest] = _report_from_document(entry["report"])
        else:
            completed[task.digest] = solve_result_from_dict(entry["result"])
    return completed


def _repair_truncated_tail(path: Path) -> None:
    """Cut a partial trailing line left by a writer that died mid-append.

    :func:`load_journal` already ignores such a tail when *reading*; before
    *appending* it must also be removed, or the next record would be written
    onto the same physical line and merge into unparseable garbage.

    A final line that parses as complete JSON only lost its newline (e.g. a
    journal holding exactly one complete header line and nothing else) —
    cutting it would throw the header away and silently restart the run, so
    it is kept and its newline restored instead.
    """
    data = path.read_bytes()
    if not data or data.endswith(b"\n"):
        return
    cut = data.rfind(b"\n") + 1
    try:
        json.loads(data[cut:])
    except json.JSONDecodeError:
        with path.open("r+b") as handle:
            handle.truncate(cut)
    else:
        with path.open("ab") as handle:
            handle.write(b"\n")


def _open_journal(
    path: Path, plan: WorkloadPlan, replaying: bool
) -> IO[str]:
    """Open the journal for appending (fresh files get the header line)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if replaying and path.exists():
        _repair_truncated_tail(path)
        if path.stat().st_size > 0:
            return path.open("a", encoding="utf-8")
    handle = path.open("w", encoding="utf-8")
    header = {
        "schema": JOURNAL_SCHEMA,
        "kind": "workload-journal",
        "plan": plan.digest,
        "spec": plan.spec.digest if plan.spec is not None else None,
    }
    handle.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
    handle.flush()
    return handle


# --------------------------------------------------------------------------- #
# journal merging (shard collection)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MergeSummary:
    """Outcome of :func:`merge_journals` (for reporting, not for identity)."""

    plan: str
    n_inputs: int
    n_records: int
    n_duplicates: int


def _record_identity(entry: dict[str, Any]) -> bytes:
    """Canonical bytes of a record with run provenance stripped.

    Two shards may legitimately have executed the same task (overlapping
    resumes, a re-run shard): their records agree on the solution but differ
    on ``wall_time`` / ``cache_hit`` / ``backend``.  Conflict detection must
    compare solutions, not provenance — exactly the
    :attr:`~repro.solvers.base.SolveResult.NONDETERMINISTIC_FIELDS`
    exclusion the determinism tests use.
    """
    document = dict(entry)
    result = document.get("result")
    if isinstance(result, dict):
        document["result"] = {
            key: value
            for key, value in result.items()
            if key not in SolveResult.NONDETERMINISTIC_FIELDS
        }
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()


def merge_journals(
    inputs: Sequence[str | Path], output: str | Path
) -> MergeSummary:
    """Merge shard journals of one plan into a single resumable journal.

    Every input must pin the same plan digest and the current journal
    schema; a truncated trailing line per shard is tolerated.  Records
    sharing a task digest must agree on the solution (run provenance such
    as ``wall_time`` aside) — overlapping-but-conflicting records raise
    :class:`JournalError` instead of silently picking one.  The merged
    journal lists records sorted by task digest under a fresh header, is
    written atomically, and replays through
    ``execute_plan(plan, journal=..., resume=True)`` exactly like a journal
    the engine wrote itself.
    """
    paths = [Path(path) for path in inputs]
    if not paths:
        raise ConfigurationError("merge_journals needs at least one input journal")
    reference_header: dict[str, Any] | None = None
    reference_path: Path | None = None
    merged: dict[str, tuple[bytes, dict[str, Any], Path]] = {}
    n_duplicates = 0
    for path in paths:
        header, entries = _scan_journal(path)
        if header is None:
            raise JournalError(
                f"journal {path} is empty or holds only a truncated header "
                "(the writer died before checkpointing anything), so it has "
                "nothing to merge; drop it from the input list"
            )
        if reference_header is None:
            reference_header, reference_path = header, path
        elif header.get("plan") != reference_header.get("plan"):
            raise JournalError(
                f"journal {path} pins plan "
                f"{str(header.get('plan'))[:12]}..., but {reference_path} "
                f"pins {str(reference_header.get('plan'))[:12]}...; shards "
                "of one run must share a single plan (was one shard run "
                "against a different spec or build?)"
            )
        for entry in entries:
            digest = str(entry["task"])
            identity = _record_identity(entry)
            seen = merged.get(digest)
            if seen is None:
                merged[digest] = (identity, entry, path)
            elif seen[0] != identity:
                raise JournalError(
                    f"conflicting records for task {digest[:12]}... in "
                    f"{seen[2]} and {path}: same task digest, different "
                    "solution payloads; one shard ran a different solver "
                    "build — re-run it and merge again"
                )
            else:
                n_duplicates += 1
    out = Path(output)
    out.parent.mkdir(parents=True, exist_ok=True)
    header_line = json.dumps(
        {
            "schema": JOURNAL_SCHEMA,
            "kind": "workload-journal",
            "plan": reference_header.get("plan"),
            "spec": reference_header.get("spec"),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    scratch = out.with_name(out.name + ".tmp")
    with scratch.open("w", encoding="utf-8") as handle:
        handle.write(header_line + "\n")
        for digest in sorted(merged):
            _, entry, _ = merged[digest]
            handle.write(
                json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
            )
    os.replace(scratch, out)
    return MergeSummary(
        plan=str(reference_header.get("plan")),
        n_inputs=len(paths),
        n_records=len(merged),
        n_duplicates=n_duplicates,
    )


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #
def _oracle_task(n_datasets: int, cache, item) -> "DifferentialReport":
    """One oracle run (module-level, pool-picklable).

    ``item`` is an ``(application, platform)`` pair or an arena
    :class:`~repro.utils.shm.InstanceRef` to one.
    """
    from ..scenarios.differential import differential_check

    app, platform = resolve_instance(item)
    return differential_check(app, platform, n_datasets=n_datasets, cache=cache)


def _task_request(plan: WorkloadPlan, task: WorkloadTask) -> SolveRequest:
    """The solver request a solve task encodes."""
    return plan.solvers[task.solver].default_request(
        period_bound=task.period_bound,
        latency_bound=task.latency_bound,
        max_steps=task.max_steps,
        time_budget=task.time_budget,
    )


def _frontier_chunks(
    tasks: Sequence[WorkloadTask], step: int
) -> list[list[WorkloadTask]]:
    """Slice solve tasks into checkpoint chunks of at most ``step`` tasks.

    A frontier group is one (instance, solver) pair, and splitting its
    thresholds across chunks would re-pay its frontier computation per chunk
    when no cache is attached, so chunks are packed group by group.  Only a
    group with more than ``step`` tasks is itself sliced at ``step``, so the
    journal is still flushed at least every ``step`` tasks.
    """
    groups: dict[tuple[str, str], list[WorkloadTask]] = {}
    for task in tasks:
        groups.setdefault((task.instance_hash, task.solver), []).append(task)
    chunks: list[list[WorkloadTask]] = []
    current: list[WorkloadTask] = []
    for group in groups.values():
        for start in range(0, len(group), step):
            piece = group[start : start + step]
            if current and len(current) + len(piece) > step:
                chunks.append(current)
                current = []
            current.extend(piece)
    if current:
        chunks.append(current)
    return chunks


def _request_chunks(
    tasks: Sequence[WorkloadTask], step: int
) -> list[list[WorkloadTask]]:
    """Slice solve tasks per (solver, request) group into checkpoint chunks."""
    groups: dict[tuple, list[WorkloadTask]] = {}
    for task in tasks:
        key = (
            task.solver,
            task.objective,
            task.period_bound,
            task.latency_bound,
            task.max_steps,
            task.time_budget,
        )
        groups.setdefault(key, []).append(task)
    return [
        group[start : start + step]
        for group in groups.values()
        for start in range(0, len(group), step)
    ]


def execute_plan(
    plan: WorkloadPlan,
    *,
    journal: str | Path | None = None,
    resume: bool = False,
    workers: int | None = None,
    batch_size: int | None = None,
    cache: "SolveCache | None" = None,
    max_tasks: int | None = None,
    shard: tuple[int, int] | None = None,
    frontier: bool = True,
) -> WorkloadRun:
    """Execute a plan's incomplete tasks; checkpoint and replay via ``journal``.

    Parameters
    ----------
    journal:
        Path of the JSONL checkpoint journal.  Without ``resume`` an
        existing file is overwritten (a fresh run); with ``resume`` its
        completed tasks are replayed and only the rest executes.
    resume:
        Replay an existing journal instead of starting fresh.  A journal
        written for a different plan is rejected (:class:`JournalError`).
    workers / batch_size:
        Process-pool knobs, forwarded to the solve service / oracle fan-out.
        Results are byte-identical at any value.
    cache:
        Optional :class:`~repro.cache.store.SolveCache`; solve groups probe
        it through the service, the oracle threads it into its per-solver
        runs.
    max_tasks:
        Execute at most this many incomplete tasks, then stop (the
        remaining tasks are *deferred*).  This is the deterministic
        "interrupt" used by the resume smoke tests: a capped run plus a
        resumed run equals one uninterrupted run.
    shard:
        ``(index, count)``: execute only the tasks
        :func:`~repro.workloads.plan.shard_tasks` assigns to shard
        ``index`` of ``count``; everything else is left for the sibling
        shards (counted as ``n_out_of_shard``).  The journal still pins
        the *full* plan digest, so independently-run shard journals merge
        via :func:`merge_journals` and replay into one complete run.
    frontier:
        Frontier routing (the default): each checkpoint chunk of solve
        tasks is one :func:`~repro.solvers.service.solve_frontier_many`
        call, which answers every instance asking a frontier-capable solver
        several thresholds from one frontier solve (the sweep
        amortisation).  Extracted results are bit-identical to the direct
        path, so reports and journals are unaffected.  ``False`` is the
        per-threshold reference path: one
        :func:`~repro.solvers.service.solve_many` call per (solver,
        request) group.
    """
    in_shard: set[str] | None = None
    if shard is not None:
        index, count = shard
        in_shard = {task.digest for task in shard_tasks(plan, index, count)}
    completed: dict[str, Any] = {}
    journal_path = None if journal is None else Path(journal)
    if journal_path is not None and resume and journal_path.exists():
        completed = load_journal(journal_path, plan)
    n_from_journal = len(completed)

    pending = [task for task in plan.tasks if task.digest not in completed]
    out_of_shard = 0
    if in_shard is not None:
        out_of_shard = sum(1 for task in pending if task.digest not in in_shard)
        pending = [task for task in pending if task.digest in in_shard]
    deferred = 0
    if max_tasks is not None and max_tasks < len(pending):
        deferred = len(pending) - max_tasks
        pending = pending[:max_tasks]

    n_cache_hits = 0
    n_solved = 0
    handle: IO[str] | None = None
    if journal_path is not None:
        handle = _open_journal(journal_path, plan, replaying=resume)
    try:
        # with a journal attached, large groups are executed in slices so
        # completed tasks reach the checkpoint at least every
        # _CHECKPOINT_INTERVAL tasks (an interruption loses one slice, not a
        # whole fuzz stream); results are byte-identical at any slicing
        solve_tasks = [task for task in pending if task.kind == "solve"]
        step = _CHECKPOINT_INTERVAL if handle is not None else max(1, len(solve_tasks))
        chunker = _frontier_chunks if frontier else _request_chunks
        for chunk in chunker(solve_tasks, step):
            pairs = [plan.pair_for(task.instance_hash) for task in chunk]
            if frontier:
                results, stats = solve_frontier_many(
                    [
                        (pair, plan.solvers[task.solver], _task_request(plan, task))
                        for pair, task in zip(pairs, chunk)
                    ],
                    workers=workers,
                    batch_size=batch_size,
                    cache=cache,
                )
            else:
                head = chunk[0]
                outcome = solve_many(
                    pairs,
                    [plan.solvers[head.solver]],
                    period_bound=head.period_bound,
                    latency_bound=head.latency_bound,
                    max_steps=head.max_steps,
                    time_budget=head.time_budget,
                    workers=workers,
                    batch_size=batch_size,
                    cache=cache,
                )
                results, stats = outcome.for_solver(0), outcome.stats
            n_cache_hits += stats.n_cache_hits
            n_solved += stats.n_solved
            for task, result in zip(chunk, results):
                completed[task.digest] = result
                # wall-clock-budgeted results are machine-dependent and
                # documented non-replayable: they never enter the journal,
                # so a resumed run re-executes them (and merged shard
                # journals never carry conflicting copies of them)
                if handle is not None and task.time_budget is None:
                    handle.write(_journal_line(task, result))
            if handle is not None:
                handle.flush()

        oracle_tasks = [task for task in pending if task.kind == "differential"]
        oracle_batches: dict[int, list[WorkloadTask]] = {}
        for task in oracle_tasks:
            oracle_batches.setdefault(task.n_datasets, []).append(task)
        for n_datasets, batch in oracle_batches.items():
            step = _CHECKPOINT_INTERVAL if handle is not None else len(batch)
            for start in range(0, len(batch), step):
                chunk = batch[start : start + step]
                pairs = [plan.pair_for(task.instance_hash) for task in chunk]
                arena = InstanceArena(pairs)
                reports = parallel_map(
                    partial(_oracle_task, n_datasets, cache),
                    [arena.ref(app, plat) for app, plat in pairs],
                    workers=workers,
                    batch_size=batch_size,
                    payload=arena.shipment(),
                )
                for task, report in zip(chunk, reports):
                    completed[task.digest] = report
                    if handle is not None:
                        handle.write(_journal_line(task, report))
                if handle is not None:
                    handle.flush()
    finally:
        if handle is not None:
            handle.close()

    stats = WorkloadStats(
        n_tasks=len(plan.tasks),
        n_from_journal=n_from_journal,
        n_executed=len(pending),
        n_deferred=deferred,
        n_cache_hits=n_cache_hits,
        n_solved=n_solved,
        n_out_of_shard=out_of_shard,
    )
    return WorkloadRun(plan, completed, stats)


# --------------------------------------------------------------------------- #
# sinks and reporting
# --------------------------------------------------------------------------- #
def write_sinks(run: WorkloadRun, sinks: Iterable[Any]) -> None:
    """Stream every completed task's row into the sinks, in plan order.

    Rows carry only deterministic solution data, so the sink files of a
    resumed complete run are byte-identical to an uninterrupted run's.
    """
    sinks = list(sinks)
    if not sinks:
        return
    for task in run.plan.tasks:
        result = run.results.get(task.digest)
        if result is None:
            continue
        row = (
            solve_row(task, result)
            if task.kind == "solve"
            else differential_row(task, result)
        )
        for sink in sinks:
            sink.write(row)


def _render_solve_body(run: WorkloadRun) -> list[str]:
    aggregate = RunningAggregate()
    for task in run.plan.tasks:
        result = run.results.get(task.digest)
        if result is not None:
            aggregate.add(task, result)
    table = format_table(
        ["solver", "threshold", "n", "feasible", "mean period", "mean latency"],
        aggregate.rows(),
        precision=6,
    )
    return ["", table]


def _render_differential_body(run: WorkloadRun) -> list[str]:
    n_comparisons = 0
    per_check: dict[str, int] = {}
    disagreeing: list[str] = []
    for task in run.plan.tasks:
        report = run.results.get(task.digest)
        if report is None:
            continue
        n_comparisons += report.n_comparisons
        if not report.ok:
            disagreeing.append(task.instance_hash[:12])
            for check in report.failed_checks():
                per_check[check] = per_check.get(check, 0) + 1
    lines = [
        "",
        f"comparisons   : {n_comparisons}",
        f"disagreements : {len(disagreeing)}",
    ]
    for check in sorted(per_check):
        lines.append(f"  {check}: {per_check[check]} instance(s)")
    if disagreeing:
        lines.append("disagreeing instances: " + ", ".join(sorted(disagreeing)))
    return lines


def render_workload_report(run: WorkloadRun) -> str:
    """Deterministic plain-text report of a run (identical after resume).

    A pure function of the plan and the completed solutions: no wall-clock
    data, no cache statistics, no journal provenance.  Incomplete (capped)
    runs aggregate what they have and say so.
    """
    plan = run.plan
    spec = plan.spec
    n_done = sum(1 for task in plan.tasks if task.digest in run.results)
    lines = [
        f"workload  : {spec.label if spec is not None else '(programmatic plan)'}"
        f" [{plan.kind}]",
        f"spec      : {spec.digest if spec is not None else '-'}",
        f"plan      : {plan.digest}",
        f"instances : {plan.n_instances} unique",
        f"tasks     : {n_done} of {len(plan.tasks)} completed",
    ]
    if plan.solvers:
        lines.insert(4, f"solvers   : {', '.join(sorted(plan.solvers))}")
    if not run.complete:
        lines.append(
            "INCOMPLETE: the run was capped before finishing; "
            "resume it to complete the remaining tasks"
        )
    if plan.kind == "differential":
        lines.extend(_render_differential_body(run))
    else:
        lines.extend(_render_solve_body(run))
    return "\n".join(lines)
