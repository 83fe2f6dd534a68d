"""Shared splitting engine used by every heuristic of Section 4.

All six heuristics of the paper work on the same internal state:

* processors are sorted by non-increasing speed;
* initially the whole pipeline is mapped onto the fastest processor;
* at each step the interval of the *bottleneck* processor (largest cycle
  time) is split, handing part of it to the next fastest processor(s) not yet
  used;
* candidate splits are scored either by the **mono-criterion** rule (the new
  ``max`` cycle time of the touched processors) or by the **bi-criteria**
  rule (the ``Δlatency / Δperiod`` ratio), possibly under a latency cap.

The engine below maintains that state incrementally (cycle time and latency
contribution per interval) and evaluates *all* candidate cuts of a step with
vectorised NumPy computations, which keeps the experiment harness (hundreds of
thousands of heuristic runs for the figures) fast.

**Split tables.**  H4's latency bisection re-runs the same splitting loop up
to 26 times, and a sweep runs H1/H4–H6 at every threshold, so the same
two-way splits are asked for over and over under different latency caps.
The cap is only a filter: the first query of a split key ranks every
candidate that passes the improvement test, once (score, largest new cycle
time, new latency, orientation, cut), and every later query — whatever its
cap — returns the first ranked candidate whose new latency is within the
cap.  The key is the split geometry (interval bounds, current and new
processor, rule, improvement flag) plus the three state floats the ranking
is computed from (the interval's cycle time, the current latency, and the
latency without the interval), so a hit is bit-identical to re-ranking.
The rankings live in the instance's entry of an
:func:`~repro.core.tables.instance_tables` scope, keyed by the
(application, platform) object pair: :meth:`PipelineHeuristic.run
<repro.heuristics.base.PipelineHeuristic.run>` opens one per run, the batch
service opens one around each in-process dispatch and the differential
oracle one per instance, so every threshold and heuristic of an instance
shares its rankings until the call returns.  They are never attached to
the instance objects and never part of an identity or cache key.

The engine assumes a communication-homogeneous platform, as in the paper; the
fully heterogeneous extension lives in :mod:`repro.extensions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

import numpy as np

from ..core.application import PipelineApplication
from ..core.costs import interval_time_components
from ..core.exceptions import InvalidPlatformError
from ..core.mapping import Interval, IntervalMapping
from ..core.platform import Platform
from ..core.tables import tables_for

__all__ = [
    "SelectionRule",
    "SplitCandidate",
    "SplittingState",
]

_EPS = 1e-12


class SelectionRule:
    """Names of the two candidate-selection rules of the paper."""

    #: minimise ``max`` of the new cycle times (mono-criterion heuristics)
    MONO = "mono"
    #: minimise ``max_i Δlatency / Δperiod(i)`` (bi-criteria heuristics)
    RATIO = "ratio"


@dataclass(frozen=True)
class SplitCandidate:
    """One evaluated way of splitting the bottleneck interval.

    ``new_*`` fields describe the intervals replacing interval
    ``interval_index`` of the state; global metrics (``new_period``,
    ``new_latency``) account for the untouched intervals.
    """

    interval_index: int
    new_intervals: tuple[Interval, ...]
    new_processors: tuple[int, ...]
    new_cycles: tuple[float, ...]
    new_contributions: tuple[float, ...]
    new_period: float
    new_latency: float
    old_cycle: float
    old_latency: float
    score: float

    @property
    def local_max_cycle(self) -> float:
        """Largest cycle time among the intervals touched by the split."""
        return max(self.new_cycles)

    @property
    def delta_latency(self) -> float:
        """Latency increase caused by the split (usually non-negative)."""
        return self.new_latency - self.old_latency

    @property
    def improves_period(self) -> bool:
        """Whether the touched processors all beat the previous bottleneck."""
        return self.local_max_cycle < self.old_cycle - _EPS * (1.0 + self.old_cycle)


class _Ranking:
    """The candidates of one split that pass the improvement test, best first.

    Candidates are the (assignment, cut) pairs of the split, assignment-major.
    ``_order`` lists the kept ones in selection order — score, then largest
    new cycle time, then new latency, then assignment and cut order — and
    ``neg_floor[i]`` is minus the smallest new latency among ``_order[:i+1]``
    (non-decreasing), so the best candidate under a latency cap is entry
    ``i`` for the first ``i`` with ``-neg_floor[i] <= cap``: one binary
    search.  ``old_cycle`` / ``old_latency`` are the state floats the
    ranking was computed against; they are part of the table key.
    """

    __slots__ = (
        "old_cycle", "old_latency", "neg_floor", "_order", "_d", "_e", "_cuts",
        "_processors", "_cycles", "_contribs", "_local_max", "_new_latency",
        "_score", "_entries",
    )

    def __init__(
        self,
        d: int,
        e: int,
        cuts: np.ndarray,
        processors: list[tuple[int, ...]],
        cycles: list[tuple[np.ndarray, ...]],
        contribs: list[tuple[np.ndarray, ...]],
        rule: str,
        old_cycle: float,
        old_latency: float,
        base_latency: float,
        require_improvement: bool,
    ) -> None:
        """Rank the candidates of ``processors`` (one assignment each).

        ``cuts`` holds one row per cut position (``(n_parts - 1, n_cuts)``);
        ``cycles[a][k]`` / ``contribs[a][k]`` are the per-cut cycle times and
        latency contributions of part ``k`` under assignment ``a``.
        """
        n_parts = len(cycles[0])
        # (parts, candidates): assignment-major columns
        cycles_arr = np.array(cycles).transpose(1, 0, 2).reshape(n_parts, -1)
        contribs_arr = np.array(contribs).transpose(1, 0, 2).reshape(n_parts, -1)
        local_max = cycles_arr.max(axis=0)
        new_latency = base_latency + contribs_arr.sum(axis=0)
        improvement_margin = _EPS * (1.0 + old_cycle)
        if rule == SelectionRule.MONO:
            score = local_max
        elif rule == SelectionRule.RATIO:
            delta_lat = new_latency - old_latency
            delta_per = old_cycle - cycles_arr  # per part
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(
                    delta_per > improvement_margin,
                    delta_lat[np.newaxis, :] / delta_per,
                    np.inf,
                )
            score = ratios.max(axis=0)
        else:
            raise ValueError(f"unknown selection rule {rule!r}")
        if require_improvement:
            keep = np.flatnonzero(local_max < old_cycle - improvement_margin)
        else:
            keep = np.arange(local_max.size)
        # lexsort is stable: ties keep assignment-major, cut-minor order
        self._order = keep[
            np.lexsort((new_latency[keep], local_max[keep], score[keep]))
        ]
        self.neg_floor = -np.minimum.accumulate(new_latency[self._order])
        self.old_cycle = float(old_cycle)
        self.old_latency = float(old_latency)
        self._d, self._e, self._cuts = d, e, cuts
        self._processors = processors
        self._cycles, self._contribs = cycles_arr, contribs_arr
        self._local_max, self._new_latency, self._score = local_max, new_latency, score
        self._entries: dict[int, tuple] = {}

    def entry(self, i: int) -> tuple:
        """Fields of the ``i``-th ranked candidate (built once, then reused).

        ``(new_intervals, new_processors, new_cycles, new_contributions,
        local_max_cycle, new_latency, score)``.
        """
        found = self._entries.get(i)
        if found is None:
            f = int(self._order[i])
            assignment, c = divmod(f, self._cuts.shape[1])
            cuts = self._cuts[:, c].tolist()
            starts = [self._d] + [cut + 1 for cut in cuts]
            ends = cuts + [self._e]
            found = self._entries[i] = (
                tuple(Interval(a, b) for a, b in zip(starts, ends)),
                tuple(self._processors[assignment]),
                tuple(self._cycles[:, f].tolist()),
                tuple(self._contribs[:, f].tolist()),
                float(self._local_max[f]),
                float(self._new_latency[f]),
                float(self._score[f]),
            )
        return found


class SplittingState:
    """Mutable mapping state shared by the splitting/exploration heuristics."""

    def __init__(
        self,
        app: PipelineApplication,
        platform: Platform,
        processor_order: Sequence[int] | None = None,
    ) -> None:
        """Initialise the state with the whole pipeline on the first processor.

        ``processor_order`` overrides the order in which processors are
        consumed (default: non-increasing speed, as in the paper); it is used
        by the ablation study to quantify how much the speed sort matters.
        """
        if not platform.is_communication_homogeneous:
            raise InvalidPlatformError(
                "the Section 4 heuristics target communication-homogeneous "
                "platforms; use repro.extensions for heterogeneous links"
            )
        self.app = app
        self.platform = platform
        self._n = app.n_stages
        self._b = platform.uniform_bandwidth
        self._b_in = platform.input_bandwidth
        self._b_out = platform.output_bandwidth
        self._speeds = platform.speeds
        self._comm = app.comm_sizes
        self._prefix = app.work_prefix
        self._tail = float(self._comm[self._n]) / self._b_out

        if processor_order is None:
            order = platform.processors_by_speed(descending=True)
        else:
            order = [int(u) for u in processor_order]
            if sorted(order) != sorted(set(order)) or any(
                not 0 <= u < platform.n_processors for u in order
            ):
                raise InvalidPlatformError(
                    "processor_order must list distinct valid processor indices"
                )
        fastest = order[0]
        self.intervals: list[Interval] = [Interval(0, self._n - 1)]
        self.processors: list[int] = [fastest]
        self._unused: list[int] = list(order[1:])
        cycle, contrib = self._interval_metrics(0, self._n - 1, fastest)
        self._cycles: list[float] = [cycle]
        self._contribs: list[float] = [contrib]
        self._tables = tables_for(app, platform)

    # ------------------------------------------------------------------ #
    # metric helpers
    # ------------------------------------------------------------------ #
    def _interval_metrics(self, d: int, e: int, proc: int) -> tuple[float, float]:
        """Cycle time and latency contribution of interval ``[d, e]`` on ``proc``."""
        input_time, work_time, output_time = self._part_times(d, e, float(self._speeds[proc]))
        return float(input_time + work_time + output_time), float(input_time + work_time)

    def _part_times(
        self,
        starts: np.ndarray | int,
        ends: np.ndarray | int,
        speed: float = 1.0,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(input, compute, output) times of candidate parts, via the shared kernel.

        Thin wrapper over :func:`repro.core.costs.interval_time_components`
        with this state's platform constants bound; the candidate generators
        call it with ``speed=1.0`` to get raw work sums they then divide by
        each processor speed under consideration.
        """
        return interval_time_components(
            self._prefix,
            self._comm,
            starts,
            ends,
            speed,
            bandwidth=self._b,
            input_bandwidth=self._b_in,
            output_bandwidth=self._b_out,
            n_stages=self._n,
        )

    # ------------------------------------------------------------------ #
    # state queries
    # ------------------------------------------------------------------ #
    @property
    def n_intervals(self) -> int:
        return len(self.intervals)

    @property
    def period(self) -> float:
        """Current period (max cycle time over all intervals)."""
        return max(self._cycles)

    @property
    def latency(self) -> float:
        """Current latency (sum of contributions plus final output)."""
        return sum(self._contribs) + self._tail

    @property
    def bottleneck_index(self) -> int:
        """Index of the interval with the largest cycle time (ties: first)."""
        return int(np.argmax(self._cycles))

    def cycle(self, j: int) -> float:
        return self._cycles[j]

    def next_unused(self, count: int = 1) -> list[int]:
        """The next ``count`` fastest processors not yet enrolled (may be fewer)."""
        return list(self._unused[:count])

    @property
    def n_unused(self) -> int:
        return len(self._unused)

    def mapping(self) -> IntervalMapping:
        """Snapshot of the current state as an :class:`IntervalMapping`."""
        return IntervalMapping(list(self.intervals), list(self.processors))

    def point(self) -> tuple[float, float]:
        """Current ``(period, latency)`` objective point."""
        return (self.period, self.latency)

    # ------------------------------------------------------------------ #
    # candidate generation
    # ------------------------------------------------------------------ #
    def _other_max_cycle(self, j: int) -> float:
        return max(
            (c for k, c in enumerate(self._cycles) if k != j), default=0.0
        )

    def _base_latency_without(self, j: int) -> float:
        return sum(self._contribs) - self._contribs[j] + self._tail

    def _pick(
        self, ranking: _Ranking, j: int, latency_cap: float | None
    ) -> SplitCandidate | None:
        """The best ranked candidate whose new latency is within ``latency_cap``."""
        if latency_cap is None:
            i = 0
        else:
            cap = latency_cap * (1 + 1e-9) + 1e-12
            i = int(np.searchsorted(ranking.neg_floor, -cap))
        if i >= ranking.neg_floor.size:
            return None
        intervals, procs, cycles, contribs, local_max, new_latency, score = (
            ranking.entry(i)
        )
        return SplitCandidate(
            interval_index=j,
            new_intervals=intervals,
            new_processors=procs,
            new_cycles=cycles,
            new_contributions=contribs,
            new_period=float(max(self._other_max_cycle(j), local_max)),
            new_latency=new_latency,
            old_cycle=ranking.old_cycle,
            old_latency=ranking.old_latency,
            score=score,
        )

    def best_two_way_split(
        self,
        j: int,
        new_proc: int,
        rule: str = SelectionRule.MONO,
        latency_cap: float | None = None,
        require_improvement: bool = True,
    ) -> SplitCandidate | None:
        """Best way to split interval ``j`` between its processor and ``new_proc``.

        All cut positions and both orientations (first part kept on the
        current processor, or given to the new one) are evaluated; ``None`` is
        returned when the interval is a single stage or no candidate passes
        the filters (improvement / latency cap).  The candidates are ranked
        once per split key in the instance's
        :class:`~repro.core.tables.InstanceTables`; the latency cap only
        picks among them.
        """
        iv = self.intervals[j]
        d, e = iv.start, iv.end
        if e == d:
            return None
        proc_j = self.processors[j]
        old_cycle = self._cycles[j]
        old_latency = self.latency
        base_latency = self._base_latency_without(j)
        key = (
            d, e, proc_j, new_proc, rule, require_improvement,
            old_cycle, old_latency, base_latency,
        )
        ranking = self._tables.split_rankings.get(key)
        if ranking is None:
            s_j = float(self._speeds[proc_j])
            s_q = float(self._speeds[new_proc])
            cuts = np.arange(d, e)  # first part is [d, cut], second is [cut+1, e]
            # raw (input, work, output) times of both parts via the shared
            # kernel (speed=1.0 keeps the work sums undivided; ``mid`` is the
            # boundary communication, part-1 output and part-2 input alike)
            in1, w1, mid = self._part_times(np.full_like(cuts, d), cuts)
            _, w2, out2 = self._part_times(cuts + 1, np.full_like(cuts, e))
            processors, cycles, contribs = [], [], []
            for first_speed, second_speed, procs in (
                (s_j, s_q, (proc_j, new_proc)),
                (s_q, s_j, (new_proc, proc_j)),
            ):
                contrib1 = in1 + w1 / first_speed
                contrib2 = mid + w2 / second_speed
                processors.append(procs)
                cycles.append((contrib1 + mid, contrib2 + out2))
                contribs.append((contrib1, contrib2))
            ranking = self._tables.split_rankings[key] = _Ranking(
                d, e, cuts[np.newaxis, :], processors, cycles, contribs,
                rule, old_cycle, old_latency, base_latency, require_improvement,
            )
        return self._pick(ranking, j, latency_cap)

    def best_three_way_split(
        self,
        j: int,
        new_procs: Sequence[int],
        rule: str = SelectionRule.MONO,
        latency_cap: float | None = None,
        require_improvement: bool = True,
    ) -> SplitCandidate | None:
        """Best 3-way split of interval ``j`` using two additional processors.

        All pairs of cut positions and all ``3!`` assignments of the three
        parts to ``{current processor} ∪ new_procs`` are evaluated.  ``None``
        when the interval has fewer than three stages or no candidate passes
        the filters.  The candidates go through the same :class:`_Ranking`
        as :meth:`best_two_way_split` but are not tabled: they number
        ``O(n²)`` per key, and frontier solves already run H2/H3 once per
        instance.
        """
        if len(new_procs) != 2:
            raise ValueError("best_three_way_split needs exactly two new processors")
        iv = self.intervals[j]
        d, e = iv.start, iv.end
        if e - d < 2:
            return None
        proc_j = self.processors[j]
        procs_all = (proc_j, int(new_procs[0]), int(new_procs[1]))

        n_cut_positions = e - d  # cuts in [d, e-1]
        rel1, rel2 = np.triu_indices(n_cut_positions, k=1)
        cut1 = d + rel1
        cut2 = d + rel2

        # raw (input, work, output) times of the three parts (shared kernel;
        # the boundary communications mid12/mid23 are each shared by two parts)
        in1, w1, mid12 = self._part_times(np.full_like(cut1, d), cut1)
        _, w2, mid23 = self._part_times(cut1 + 1, cut2)
        _, w3, out3 = self._part_times(cut2 + 1, np.full_like(cut2, e))

        processors, cycles, contribs = [], [], []
        for perm in permutations(procs_all):
            s1, s2, s3 = (float(self._speeds[u]) for u in perm)
            contrib1 = in1 + w1 / s1
            contrib2 = mid12 + w2 / s2
            contrib3 = mid23 + w3 / s3
            processors.append(perm)
            cycles.append((contrib1 + mid12, contrib2 + mid23, contrib3 + out3))
            contribs.append((contrib1, contrib2, contrib3))
        ranking = _Ranking(
            d, e, np.vstack((cut1, cut2)), processors, cycles, contribs,
            rule, self._cycles[j], self.latency, self._base_latency_without(j),
            require_improvement,
        )
        return self._pick(ranking, j, latency_cap)

    # ------------------------------------------------------------------ #
    # state mutation
    # ------------------------------------------------------------------ #
    def apply(self, candidate: SplitCandidate) -> None:
        """Apply a split candidate, enrolling its new processors."""
        j = candidate.interval_index
        if not 0 <= j < self.n_intervals:
            raise ValueError(f"candidate refers to stale interval index {j}")
        self.intervals[j : j + 1] = list(candidate.new_intervals)
        self.processors[j : j + 1] = list(candidate.new_processors)
        self._cycles[j : j + 1] = list(candidate.new_cycles)
        self._contribs[j : j + 1] = list(candidate.new_contributions)
        used = set(candidate.new_processors)
        self._unused = [u for u in self._unused if u not in used]
