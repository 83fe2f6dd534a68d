"""Incremental move evaluation for the anytime local-search solvers.

A :class:`MappingState` is a mutable interval mapping plus the cached
per-interval cost entries ``(input, compute, output)`` — the exact terms
:func:`repro.core.costs.evaluate_batch` computes for each interval.  A move
(:class:`ShiftBoundary`, :class:`SwapProcessors`, :class:`ReassignProcessor`,
:class:`MergeIntervals`, :class:`SplitInterval`) rewrites a few intervals;
:func:`evaluate_move` recomputes only the entries those rewrites dirty (plus
their immediate neighbours on platforms with heterogeneous links, whose
bandwidths depend on the neighbouring processors) and re-aggregates period
and latency from the entry arrays.

Bit-exactness contract
----------------------
The period and latency of every candidate equal, to the last bit, what
:func:`~repro.core.costs.evaluate` and ``evaluate_batch([mapping])`` return
for the full mapping.  This holds because each entry is computed with the
same IEEE-754 operations the batch kernel applies element-wise
(zero-communication guards included), the period is an order-insensitive
max, and the latency is the left-to-right sum of ``input + compute``
contributions plus the last output that every evaluator of eq. (2) adds.
The property suites (``tests/test_local_search_properties.py``,
``tests/test_kernels_parity.py``) assert ``==``, not ``approx``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..core.application import PipelineApplication
from ..core.mapping import IntervalMapping
from ..core.platform import Platform

__all__ = [
    "MappingState",
    "Candidate",
    "Move",
    "ShiftBoundary",
    "SwapProcessors",
    "ReassignProcessor",
    "MergeIntervals",
    "SplitInterval",
    "moves_at_site",
    "enumerate_moves",
    "evaluate_move",
]

#: a segment replaces old intervals ``lo:hi`` with ``(start, end, proc)`` rows
Segment = tuple[int, int, list[tuple[int, int, int]]]


class MappingState:
    """Mutable mapping with per-interval cost entries kept incrementally.

    The entry lists ``inputs`` / ``computes`` / ``outputs`` always describe
    the current intervals; :meth:`apply` splices in a candidate's rows, so a
    move only ever pays for the intervals it touched, never a full
    re-evaluation.
    """

    def __init__(
        self,
        app: PipelineApplication,
        platform: Platform,
        mapping: IntervalMapping,
    ) -> None:
        self.app = app
        self.platform = platform
        self._comm = app.comm_sizes
        self._prefix = app.work_prefix
        self._speeds = platform.speeds
        self._comm_homog = platform.is_communication_homogeneous
        self._bmat = None if self._comm_homog else platform.bandwidth_matrix()
        self.starts = [iv.start for iv in mapping.intervals]
        self.ends = [iv.end for iv in mapping.intervals]
        self.procs = list(mapping.processors)
        self.inputs: list[float] = []
        self.computes: list[float] = []
        self.outputs: list[float] = []
        m = len(self.starts)
        for j in range(m):
            prev_proc = self.procs[j - 1] if j > 0 else None
            next_proc = self.procs[j + 1] if j < m - 1 else None
            i, c, o = self.entry(
                self.starts[j], self.ends[j], self.procs[j], prev_proc, next_proc
            )
            self.inputs.append(i)
            self.computes.append(c)
            self.outputs.append(o)
        self.free = sorted(set(range(platform.n_processors)) - set(self.procs))
        self.period, self.latency = _aggregate(self.inputs, self.computes, self.outputs)

    @property
    def n_intervals(self) -> int:
        return len(self.starts)

    def entry(
        self,
        start: int,
        end: int,
        proc: int,
        prev_proc: int | None,
        next_proc: int | None,
    ) -> tuple[float, float, float]:
        """One interval's (input, compute, output), evaluate_batch-identical.

        ``prev_proc`` / ``next_proc`` are the processors of the adjacent
        intervals (``None`` at the chain ends); on communication-homogeneous
        platforms they are ignored, exactly as in the batch kernel.
        """
        platform = self.platform
        delta_in = self._comm[start]
        delta_out = self._comm[end + 1]
        if start == 0:
            b_in = platform.input_bandwidth
        elif self._comm_homog:
            b_in = platform.uniform_bandwidth
        else:
            b_in = self._bmat[prev_proc, proc]
        if end == self.app.n_stages - 1:
            b_out = platform.output_bandwidth
        elif self._comm_homog:
            b_out = platform.uniform_bandwidth
        else:
            b_out = self._bmat[proc, next_proc]
        input_time = 0.0 if delta_in == 0.0 else delta_in / b_in
        output_time = 0.0 if delta_out == 0.0 else delta_out / b_out
        compute_time = (self._prefix[end + 1] - self._prefix[start]) / self._speeds[proc]
        return float(input_time), float(compute_time), float(output_time)

    def apply(self, candidate: "Candidate") -> None:
        """Commit an evaluated candidate, adopting its spliced arrays."""
        self.starts = candidate.starts
        self.ends = candidate.ends
        self.procs = candidate.procs
        self.inputs = candidate.inputs
        self.computes = candidate.computes
        self.outputs = candidate.outputs
        self.period = candidate.period
        self.latency = candidate.latency
        self.free = sorted(
            set(range(self.platform.n_processors)) - set(self.procs)
        )

    def to_mapping(self) -> IntervalMapping:
        return IntervalMapping.from_boundaries(
            self.ends[:-1], self.procs, self.app.n_stages
        )


def _aggregate(
    inputs: Sequence[float], computes: Sequence[float], outputs: Sequence[float]
) -> tuple[float, float]:
    """Period and latency from entry arrays, matching evaluate exactly.

    ``cycle = (input + compute) + output`` mirrors the batch kernel's
    left-associated sum, and the latency adds the ``input + compute``
    contributions left to right, then the last output.
    """
    period = float("-inf")
    latency = 0.0
    for i, c, o in zip(inputs, computes, outputs):
        contribution = i + c
        latency += contribution
        cycle = contribution + o
        if cycle > period:
            period = cycle
    return period, latency + outputs[-1]


@dataclass(frozen=True)
class Candidate:
    """A fully evaluated move: spliced arrays plus the resulting metrics."""

    move: "Move"
    starts: list[int]
    ends: list[int]
    procs: list[int]
    inputs: list[float]
    computes: list[float]
    outputs: list[float]
    period: float
    latency: float


# --------------------------------------------------------------------------- #
# move types
# --------------------------------------------------------------------------- #
class Move:
    """A local rewrite of a mapping, described by replacement segments."""

    def signature(self) -> tuple:  # pragma: no cover - overridden
        raise NotImplementedError

    def segments(self, state: MappingState) -> list[Segment]:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class ShiftBoundary(Move):
    """Move one stage across the boundary between intervals ``j`` and ``j+1``.

    ``direction`` +1 grows interval ``j`` by one stage (shrinking ``j+1``),
    -1 shrinks it; the donor interval must keep at least one stage.
    """

    j: int
    direction: int

    def signature(self) -> tuple:
        return ("shift", self.j, self.direction)

    def segments(self, state: MappingState) -> list[Segment]:
        j = self.j
        s1, e1, p1 = state.starts[j], state.ends[j], state.procs[j]
        s2, e2, p2 = state.starts[j + 1], state.ends[j + 1], state.procs[j + 1]
        if self.direction > 0:
            rows = [(s1, e1 + 1, p1), (s2 + 1, e2, p2)]
        else:
            rows = [(s1, e1 - 1, p1), (e1, e2, p2)]
        return [(j, j + 2, rows)]


@dataclass(frozen=True)
class SwapProcessors(Move):
    """Exchange the processors of intervals ``j`` and ``k`` (``j < k``)."""

    j: int
    k: int

    def signature(self) -> tuple:
        return ("swap", self.j, self.k)

    def segments(self, state: MappingState) -> list[Segment]:
        j, k = self.j, self.k
        row_j = (state.starts[j], state.ends[j], state.procs[k])
        row_k = (state.starts[k], state.ends[k], state.procs[j])
        return [(j, j + 1, [row_j]), (k, k + 1, [row_k])]


@dataclass(frozen=True)
class ReassignProcessor(Move):
    """Migrate interval ``j`` onto the currently unused processor ``proc``."""

    j: int
    proc: int

    def signature(self) -> tuple:
        return ("reassign", self.j, self.proc)

    def segments(self, state: MappingState) -> list[Segment]:
        j = self.j
        return [(j, j + 1, [(state.starts[j], state.ends[j], self.proc)])]


@dataclass(frozen=True)
class MergeIntervals(Move):
    """Fuse intervals ``j`` and ``j+1``, keeping the processor of one side.

    ``keep`` is 0 for the left interval's processor, 1 for the right's; the
    other processor becomes free for later splits and reassignments.
    """

    j: int
    keep: int

    def signature(self) -> tuple:
        return ("merge", self.j, self.keep)

    def segments(self, state: MappingState) -> list[Segment]:
        j = self.j
        proc = state.procs[j + self.keep]
        return [(j, j + 2, [(state.starts[j], state.ends[j + 1], proc)])]


@dataclass(frozen=True)
class SplitInterval(Move):
    """Cut interval ``j`` after stage ``cut``, placing a free processor.

    The free processor ``proc`` takes the left part when ``new_on_left`` is
    true, the right part otherwise; the original processor keeps the rest.
    """

    j: int
    cut: int
    proc: int
    new_on_left: bool

    def signature(self) -> tuple:
        return ("split", self.j, self.cut, self.proc, int(self.new_on_left))

    def segments(self, state: MappingState) -> list[Segment]:
        j = self.j
        s, e, old = state.starts[j], state.ends[j], state.procs[j]
        left_proc, right_proc = (
            (self.proc, old) if self.new_on_left else (old, self.proc)
        )
        rows = [(s, self.cut, left_proc), (self.cut + 1, e, right_proc)]
        return [(j, j + 1, rows)]


# --------------------------------------------------------------------------- #
# enumeration
# --------------------------------------------------------------------------- #
def moves_at_site(state: MappingState, j: int) -> list[Move]:
    """All candidate moves anchored at interval ``j``.

    The set only depends on the interval structure (boundaries, interval
    count) and the free-processor list — never on the current processor
    assignment — so a cached site list stays valid across any move that
    leaves those unchanged (see the invalidation rules in
    :mod:`repro.solvers.local_search`).
    """
    moves: list[Move] = []
    m = state.n_intervals
    if j < m - 1:
        if state.ends[j + 1] > state.starts[j + 1]:
            moves.append(ShiftBoundary(j, +1))
        if state.ends[j] > state.starts[j]:
            moves.append(ShiftBoundary(j, -1))
        moves.append(MergeIntervals(j, 0))
        moves.append(MergeIntervals(j, 1))
    for k in range(j + 1, m):
        moves.append(SwapProcessors(j, k))
    for proc in state.free:
        moves.append(ReassignProcessor(j, proc))
    for cut in range(state.starts[j], state.ends[j]):
        for proc in state.free:
            moves.append(SplitInterval(j, cut, proc, False))
            moves.append(SplitInterval(j, cut, proc, True))
    return moves


def enumerate_moves(state: MappingState) -> Iterator[Move]:
    """Every candidate move of the state, in deterministic site order."""
    for j in range(state.n_intervals):
        yield from moves_at_site(state, j)


# --------------------------------------------------------------------------- #
# evaluation
# --------------------------------------------------------------------------- #
def evaluate_move(state: MappingState, move: Move) -> Candidate:
    """Evaluate a move incrementally: splice, recompute dirty entries only.

    Copies the state's interval and entry arrays, applies the move's
    replacement segments, recomputes the entries of the replaced intervals
    (and of their immediate neighbours on platforms with heterogeneous
    links), and aggregates period and latency from the updated arrays.
    """
    segments = move.segments(state)
    starts = list(state.starts)
    ends = list(state.ends)
    procs = list(state.procs)
    inputs = list(state.inputs)
    computes = list(state.computes)
    outputs = list(state.outputs)
    dirty: set[int] = set()
    shift = 0
    for lo, hi, rows in segments:
        new_lo = lo + shift
        new_hi = lo + shift + len(rows)
        starts[new_lo : hi + shift] = [r[0] for r in rows]
        ends[new_lo : hi + shift] = [r[1] for r in rows]
        procs[new_lo : hi + shift] = [r[2] for r in rows]
        inputs[new_lo : hi + shift] = [0.0] * len(rows)
        computes[new_lo : hi + shift] = [0.0] * len(rows)
        outputs[new_lo : hi + shift] = [0.0] * len(rows)
        dirty.update(range(new_lo, new_hi))
        shift += len(rows) - (hi - lo)
    m = len(starts)
    if state._bmat is not None:
        # heterogeneous links: a neighbour's in/out bandwidth depends on the
        # processor next door, so the rows flanking each segment go stale too
        flanks = set()
        for d in dirty:
            if d > 0:
                flanks.add(d - 1)
            if d < m - 1:
                flanks.add(d + 1)
        dirty |= flanks
    for d in sorted(dirty):
        prev_proc = procs[d - 1] if d > 0 else None
        next_proc = procs[d + 1] if d < m - 1 else None
        inputs[d], computes[d], outputs[d] = state.entry(
            starts[d], ends[d], procs[d], prev_proc, next_proc
        )
    period, latency = _aggregate(inputs, computes, outputs)
    return Candidate(
        move=move,
        starts=starts,
        ends=ends,
        procs=procs,
        inputs=inputs,
        computes=computes,
        outputs=outputs,
        period=period,
        latency=latency,
    )
