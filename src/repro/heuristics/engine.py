"""Shared splitting engine used by every heuristic of Section 4.

All six heuristics of the paper run the same loop:

* processors are sorted by non-increasing speed;
* initially the whole pipeline is mapped onto the fastest processor;
* at each step the interval of the *bottleneck* processor (largest cycle
  time) is split, handing part of it to the next fastest processor(s) not yet
  used — one for a 2-way split, two for a 3-way one;
* candidate splits are scored either by the **mono-criterion** rule (the new
  ``max`` cycle time of the touched processors) or by the **bi-criteria**
  rule (the ``Δlatency / Δperiod`` ratio), possibly under a latency cap.

The engine evaluates *all* candidate cuts of a step with vectorised NumPy
computations, which keeps the experiment harness (hundreds of thousands of
heuristic runs for the figures) fast.  A part's input and output times
depend only on its first and last stage, so each instance tables them once
(the boundary tables of :class:`_Instance`, built by the shared cost
kernel) and a ranking reads every part's terms from those tables and the
work prefix sums, without calling the kernel per split.

**Trajectory tries.**  Every heuristic is a walk from the initial mapping:
H1–H3 split until the period is reached, H4 runs up to 26 latency-capped
passes per threshold, H5/H6 split under the latency bound, and a sweep
runs each of them at every threshold.  A latency cap reaches the selection
only through the ranking index it picks (:meth:`_Ranking.index`), so from
a given state the next split depends on that index alone.
:func:`trajectory` hands out the root of one trie per (instance, selection
rule, split width, processor order): a :class:`TrajectoryNode` is the
immutable state after ``k`` splits, its children are keyed by the ranking
index, and its ranking and children are built on first visit.  Every
threshold of every heuristic, H4's bisection probes and the frontier's
exhaustion run (:mod:`repro.solvers.frontier`) walk the same nodes; only
the stop tests stay per query (:meth:`TrajectoryNode.walk`).  A node's
``(period, latency)`` is eqs. (1) and (2) of its mapping, added in
:func:`~repro.core.costs.evaluate`'s order, so the final result takes it
as it is.  The nodes reference neither their parent
nor the table entry that holds the trie, so the trie is cycle-free and is
freed with its scope.

**Split tables.**  The first visit of a 2-way split key ranks every
candidate that passes the improvement test, once (score, largest new cycle
time, new latency, orientation, cut), and every later query — whatever its
latency cap — takes the first ranked candidate whose new latency is within
the cap.  The key is the split geometry (interval bounds, processors,
rule) plus the three state floats the ranking is computed from (the
interval's cycle time, the current latency, and the latency without the
interval), so a hit is bit-identical to re-ranking; tries under other
processor orders share it.  A 3-way split has ``O(n²)`` candidates, and
the 3-way walks are uncapped, so only its best candidate is ever asked for:
its ranking selects that one candidate without sorting (the least score,
then the least largest new cycle time, then the least new latency, then the
first), is neither tabled nor kept, and its node keeps only that child.

Rankings and tries live in the instance's entry of an
:func:`~repro.core.tables.instance_tables` scope, keyed by the
(application, platform) object pair: :meth:`PipelineHeuristic.run
<repro.heuristics.base.PipelineHeuristic.run>` opens one per run, the batch
service opens one around each in-process dispatch and the differential
oracle one per instance, so every threshold and heuristic of an instance
shares them until the call returns.  They are never attached to the
instance objects and never part of an identity or cache key.

The engine assumes a communication-homogeneous platform, as in the paper; the
fully heterogeneous extension lives in :mod:`repro.extensions`.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import permutations
from typing import Sequence

import numpy as np

from ..core.application import PipelineApplication
from ..core.costs import interval_time_components
from ..core.exceptions import InvalidPlatformError
from ..core.mapping import Interval, IntervalMapping
from ..core.platform import Platform
from ..core.tables import tables_for
from .base import reached

__all__ = ["SelectionRule", "TrajectoryNode", "trajectory"]

_EPS = 1e-12


def _added(values: Sequence[float]) -> float:
    """``values`` added left to right, the order eq. (2) is added in by
    :func:`repro.core.costs.evaluate` — not ``sum()``, which compensates
    float rounding from Python 3.12 and so changes the last bits."""
    total = 0.0
    for value in values:
        total += value
    return total


class SelectionRule:
    """Names of the two candidate-selection rules of the paper."""

    #: minimise ``max`` of the new cycle times (mono-criterion heuristics)
    MONO = "mono"
    #: minimise ``max_i Δlatency / Δperiod(i)`` (bi-criteria heuristics)
    RATIO = "ratio"


#: the longest interval whose cut pairs are kept: the pairs of every
#: length up to it take 5.6 MB at most; a longer interval builds its own,
#: a small cost beside its ``O(length²)`` ranking
_CACHED_LENGTH = 128
_CUT_PAIRS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _cut_pairs(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Every 3-way cut pair of an interval ``[d, d + length]``, relative to ``d``.

    ``(first, second)`` with ``0 <= first < second < length``, in
    lexicographic order (the parts are ``[d, d + first]``,
    ``[d + first + 1, d + second]`` and ``[d + second + 1, d + length]``).
    The pairs depend on the length alone, so every instance shares the
    cached ones; they are read-only.
    """
    pairs = _CUT_PAIRS.get(length)
    if pairs is None:
        pairs = np.triu_indices(length, k=1)
        if length <= _CACHED_LENGTH:
            for cuts in pairs:
                cuts.setflags(write=False)
            _CUT_PAIRS[length] = pairs
    return pairs


#: per split width, ``(part rows, assignment columns)``: indexing a
#: ``(part, processor, cut)`` term array with them lists the parts' terms
#: under every assignment of the parts to the processors (``permutations``
#: order)
_ASSIGNMENTS = {
    width: (np.arange(width)[:, np.newaxis], np.array(list(permutations(range(width)))).T)
    for width in (2, 3)
}


class _Ranking:
    """The improving candidates of one split, best first.

    Splitting ``[d, e]`` into ``len(procs)`` parts on ``procs`` (the
    interval's own processor first, then the new ones): a candidate is an
    assignment of the parts to ``procs`` (``permutations`` order) and a cut
    tuple (lexicographic), assignment-major.  Only candidates whose largest
    new cycle time beats ``old_cycle`` are kept, in selection order: score,
    then largest new cycle time, then new latency, then assignment and cut
    order.  ``old_cycle`` (the interval's cycle time), ``old_latency`` (the
    state's latency) and ``base_latency`` (the latency without the
    interval) are the state floats the ranking is computed from.

    The terms of the parts are read from the instance's boundary tables
    (:attr:`_Instance.in_time`, :attr:`_Instance.out_time` and the work
    prefix sums): a 2-way split slices them, a 3-way one indexes them with
    the interval length's cached cut pairs.  Each (part, processor) term is
    computed once and then laid out under every assignment.

    A 2-way ranking lists every kept candidate: ``_order`` is the selection
    order and ``neg_floor[i]`` minus the smallest new latency among
    ``_order[:i+1]`` (non-decreasing), so the best candidate under a
    latency cap is entry ``i`` for the first ``i`` with ``-neg_floor[i] <=
    cap``: one binary search.  A 3-way ranking is only ever asked for its
    best candidate, so it selects that one without sorting: it keeps the
    candidates of least score, of those the ones of least largest new cycle
    time, then of least new latency, and takes the first.
    """

    __slots__ = ("neg_floor", "_order", "_d", "_e", "_cuts", "_n_cuts", "_processors",
                 "_cycles", "_contribs", "_entries")

    def __init__(
        self,
        inst: _Instance,
        d: int,
        e: int,
        procs: tuple[int, ...],
        rule: str,
        old_cycle: float,
        old_latency: float,
        base_latency: float,
    ) -> None:
        n_parts = len(procs)
        length = e - d
        # cut positions relative to d; a part after a cut starts at d + 1 + cut
        cuts = (slice(0, length),) if n_parts == 2 else _cut_pairs(length)
        n_cuts = length if n_parts == 2 else cuts[0].size
        # boundary terms of each part (speed 1: undivided work sums); a
        # boundary communication is the output of one part and, bit for
        # bit, the input of the next
        prefix = inst.prefix
        firsts = [prefix[d]] + [prefix[d + 1:][c] for c in cuts] + [prefix[e + 1]]
        inputs = [inst.in_time[d]] + [inst.in_time[d + 1:][c] for c in cuts]
        outputs = [inst.out_time[d:][c] for c in cuts] + [inst.out_time[e]]
        speeds = inst.speeds[list(procs)][:, np.newaxis]
        # (part, processor, cut) terms, each computed once
        contrib_terms = np.empty((n_parts, n_parts, n_cuts))
        cycle_terms = np.empty((n_parts, n_parts, n_cuts))
        for k in range(n_parts):
            contrib_terms[k] = inputs[k] + (firsts[k + 1] - firsts[k]) / speeds
            cycle_terms[k] = contrib_terms[k] + outputs[k]
        # (parts, candidates): assignment-major columns
        parts, assignments = _ASSIGNMENTS[n_parts]
        cycles_arr = cycle_terms[parts, assignments].reshape(n_parts, -1)
        contribs_arr = contrib_terms[parts, assignments].reshape(n_parts, -1)
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
        keep = np.flatnonzero(local_max < old_cycle - improvement_margin)
        if n_parts == 2:
            # lexsort is stable: ties keep assignment-major, cut-minor order
            self._order = keep[
                np.lexsort((new_latency[keep], local_max[keep], score[keep]))
            ]
        else:
            # the first entry of that order: keep the least of each key in
            # turn; ``keep`` is ascending, so its first survivor breaks ties
            for key in (score, local_max, new_latency):
                if keep.size <= 1:
                    break
                values = key[keep]
                keep = keep[values == values.min()]
            self._order = keep[:1]
        self.neg_floor = (-np.minimum.accumulate(new_latency[self._order])).tolist()
        self._d, self._e, self._cuts, self._n_cuts = d, e, cuts, n_cuts
        self._processors = list(permutations(procs))
        self._cycles, self._contribs = cycles_arr, contribs_arr
        self._entries: dict[int, tuple] = {}

    def index(self, limit: float | None) -> int:
        """Rank of the best candidate whose new latency is at most ``limit``.

        0 without a limit; ``len(neg_floor)`` when no candidate qualifies.
        """
        if limit is None:
            return 0
        return bisect_left(self.neg_floor, -limit)

    def entry(self, i: int) -> tuple:
        """The ``i``-th ranked candidate (built once, then reused).

        ``(new_intervals, new_processors, new_cycles, new_contributions)``.
        """
        found = self._entries.get(i)
        if found is None:
            f = int(self._order[i])
            assignment, c = divmod(f, self._n_cuts)
            if len(self._cuts) == 1:  # a 2-way split: the cut slice starts at 0
                cuts = [self._d + c]
            else:
                cuts = [self._d + int(cut[c]) for cut in self._cuts]
            starts = [self._d] + [cut + 1 for cut in cuts]
            ends = cuts + [self._e]
            found = self._entries[i] = (
                tuple(Interval(a, b) for a, b in zip(starts, ends)),
                self._processors[assignment],
                tuple(self._cycles[:, f].tolist()),
                tuple(self._contribs[:, f].tolist()),
            )
        return found


class _Instance:
    """The constants of one (application, platform) pair the engine reads.

    ``in_time[k]`` is the input time of a part that starts at stage ``k``
    and ``out_time[k]`` the output time of a part that ends at stage ``k``:
    the boundary tables, the kernel's own floats (one
    :func:`~repro.core.costs.interval_time_components` call over the
    single-stage parts).  With the work prefix sums they give every part's
    terms.  Holds no reference to a state, a trajectory or a table, so the
    tables and tries that keep it cannot form a reference cycle through it.
    """

    __slots__ = ("app", "platform", "n", "b", "b_in", "b_out", "speeds", "comm", "prefix",
                 "tail", "in_time", "out_time")

    def __init__(self, app: PipelineApplication, platform: Platform) -> None:
        if not platform.is_communication_homogeneous:
            raise InvalidPlatformError(
                "the Section 4 heuristics target communication-homogeneous "
                "platforms; use repro.extensions for heterogeneous links"
            )
        self.app = app
        self.platform = platform
        self.n = app.n_stages
        self.b = platform.uniform_bandwidth
        self.b_in = platform.input_bandwidth
        self.b_out = platform.output_bandwidth
        self.speeds = platform.speeds
        self.comm = app.comm_sizes
        self.prefix = app.work_prefix
        self.tail = float(self.comm[self.n]) / self.b_out
        stages = np.arange(self.n)
        self.in_time, _, self.out_time = self.part_times(stages, stages)

    def part_times(
        self,
        starts: np.ndarray | int,
        ends: np.ndarray | int,
        speed: float = 1.0,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(input, compute, output) times of candidate parts, via the shared kernel.

        Thin wrapper over :func:`repro.core.costs.interval_time_components`
        with the platform constants bound.  The boundary tables are built
        with it; the root's metrics (:meth:`interval_metrics`) read it
        directly.
        """
        return interval_time_components(
            self.prefix,
            self.comm,
            starts,
            ends,
            speed,
            bandwidth=self.b,
            input_bandwidth=self.b_in,
            output_bandwidth=self.b_out,
            n_stages=self.n,
        )

    def interval_metrics(self, d: int, e: int, proc: int) -> tuple[float, float]:
        """Cycle time and latency contribution of interval ``[d, e]`` on ``proc``."""
        input_time, work_time, output_time = self.part_times(d, e, float(self.speeds[proc]))
        return float(input_time + work_time + output_time), float(input_time + work_time)


class _Trie:
    """What the nodes of one trajectory trie share.

    The instance constants, the selection rule, the split width (parts per
    split: 2 or 3), and the instance's split rankings (the dict of its
    :class:`~repro.core.tables.InstanceTables`, not the entry itself, so no
    node reaches back to the entry that holds the trie).
    """

    __slots__ = ("inst", "rule", "width", "rankings")

    def __init__(
        self, inst: _Instance, rule: str, width: int, rankings: dict[tuple, _Ranking]
    ) -> None:
        self.inst = inst
        self.rule = rule
        self.width = width
        self.rankings = rankings


class TrajectoryNode:
    """One state of a splitting trajectory, shared by every walk through it.

    A node is the state after ``depth`` splits of the bottleneck interval:
    intervals, processors, cycle times, latency contributions, unused
    processors (in consumption order), the engine's ``(period, latency)``
    point and the history of points since the initial mapping.  It never
    changes once built.  Its split ranking (the bottleneck interval cut into
    ``width`` parts over its processor and the next ``width - 1`` unused
    ones) and its children are built on first visit.  A latency limit
    reaches the selection only through the ranking index
    :meth:`_Ranking.index` returns, so the children are keyed by that index:
    every walk that picks the same index from this state shares the child.

    Two-way rankings are tabled per split key and kept by the node.  A
    three-way split has ``O(n²)`` candidates and the 3-way walks are never
    capped, so its ranking selects only the best candidate, without
    sorting, and the node builds that one child and drops the ranking at
    once.

    Nodes hold no parent and no :class:`~repro.core.tables.InstanceTables`
    entry, so the trie is cycle-free and is freed as soon as its scope
    drops the entry.
    """

    __slots__ = (
        "intervals", "processors", "cycles", "contribs", "unused",
        "period", "latency", "history",
        "_trie", "_split", "_children", "_mapping", "__weakref__",
    )

    def __init__(
        self,
        trie: _Trie,
        intervals: tuple[Interval, ...],
        processors: tuple[int, ...],
        cycles: tuple[float, ...],
        contribs: tuple[float, ...],
        unused: tuple[int, ...],
        history: tuple[tuple[float, float], ...],
    ) -> None:
        self._trie = trie
        self.intervals = intervals
        self.processors = processors
        self.cycles = cycles
        self.contribs = contribs
        self.unused = unused
        self.period = max(cycles)
        self.latency = _added(contribs) + trie.inst.tail
        self.history = history + ((self.period, self.latency),)
        #: ``(bottleneck index, ranking)``; ``False`` when stalled, ``None`` unvisited
        self._split: tuple[int, _Ranking | None] | bool | None = None
        self._children: dict[int, TrajectoryNode] = {}
        self._mapping: IntervalMapping | None = None

    @property
    def depth(self) -> int:
        """Number of splits applied since the initial mapping."""
        return len(self.history) - 1

    def child(self, limit: float | None) -> "TrajectoryNode | None":
        """The state after the next split whose new latency is at most ``limit``.

        ``limit`` is a :func:`~repro.heuristics.base.stop_limit` value, or
        ``None`` for no latency cap (the only value a 3-way trie takes).
        ``None`` is returned when the walk stalls: too few unused
        processors, too few stages in the bottleneck interval, or no
        improving split within the limit.
        """
        split = self._split
        if split is None:
            split = self._split = self._rank()
        if split is False:
            return None
        j, ranking = split
        if ranking is None:  # a 3-way split, built by _rank
            if limit is not None:
                raise ValueError("3-way trajectories are walked without a latency limit")
            return self._children[0]
        i = ranking.index(limit)
        if i >= len(ranking.neg_floor):
            return None
        found = self._children.get(i)
        if found is None:
            found = self._children[i] = self._apply(j, ranking.entry(i))
        return found

    def walk(
        self, period_bound: float | None = None, limit: float | None = None
    ) -> "TrajectoryNode":
        """The node a walk from here under ``limit`` ends at.

        The walk takes :meth:`child` steps until the period meets
        ``period_bound`` (:func:`~repro.heuristics.base.reached`) or the
        walk stalls; without a bound it runs until it stalls.
        """
        node = self
        while period_bound is None or not reached(node.period, period_bound):
            child = node.child(limit)
            if child is None:
                break
            node = child
        return node

    def _rank(self) -> tuple[int, _Ranking | None] | bool:
        """``(bottleneck index, ranking)``; ``False`` when the walk stalls here.

        A 3-way node builds its child here and keeps no ranking (``None``).
        """
        trie = self._trie
        n_new = trie.width - 1
        if len(self.unused) < n_new:
            return False
        j = int(np.argmax(self.cycles))
        iv = self.intervals[j]
        if iv.end - iv.start < n_new:
            return False
        contribs = self.contribs
        # the split key: geometry plus the three state floats ranked against
        key = (
            iv.start, iv.end, (self.processors[j],) + self.unused[:n_new], trie.rule,
            self.cycles[j], self.latency, _added(contribs) - contribs[j] + trie.inst.tail,
        )
        if n_new == 1:
            ranking = trie.rankings.get(key)
            if ranking is None:
                ranking = trie.rankings[key] = _Ranking(trie.inst, *key)
            return j, ranking
        # a batch keeps its scope (and so this node) until it returns: an
        # O(n²) 3-way ranking must not live that long, and only index 0 is
        # ever asked for
        ranking = _Ranking(trie.inst, *key)
        if not ranking.neg_floor:
            return False
        self._children[0] = self._apply(j, ranking.entry(0))
        return j, None

    def _apply(self, j: int, entry: tuple) -> "TrajectoryNode":
        intervals, procs, cycles, contribs = entry
        used = set(procs)
        return TrajectoryNode(
            self._trie,
            self.intervals[:j] + intervals + self.intervals[j + 1:],
            self.processors[:j] + procs + self.processors[j + 1:],
            self.cycles[:j] + cycles + self.cycles[j + 1:],
            self.contribs[:j] + contribs + self.contribs[j + 1:],
            tuple(u for u in self.unused if u not in used),
            self.history,
        )

    def mapping(self) -> IntervalMapping:
        """The node's mapping (built once)."""
        if self._mapping is None:
            self._mapping = IntervalMapping(self.intervals, self.processors)
        return self._mapping


def trajectory(
    app: PipelineApplication,
    platform: Platform,
    rule: str,
    width: int = 2,
    order: tuple[int, ...] | None = None,
) -> TrajectoryNode:
    """The root of the instance's trajectory trie under ``rule`` and ``width``.

    ``width`` is the number of parts each split makes: 2 for the splitting
    heuristics, 3 for the 3-exploration ones.  ``order`` is the order in
    which processors are consumed, a permutation of the processor indices;
    ``None`` is the paper's non-increasing speed.  The root is the initial
    mapping (the whole pipeline on the first processor of the order).  It
    lives in the instance's :class:`~repro.core.tables.InstanceTables`
    entry under ``(rule, width, order)``, so every walk in one
    :func:`~repro.core.tables.instance_tables` scope shares its nodes.
    """
    tables = tables_for(app, platform)
    key = (rule, width, order)
    root = tables.trajectories.get(key)
    if root is None:
        inst = _Instance(app, platform)
        if order is None:
            order = tuple(platform.processors_by_speed(descending=True))
        cycle, contrib = inst.interval_metrics(0, inst.n - 1, order[0])
        root = tables.trajectories[key] = TrajectoryNode(
            _Trie(inst, rule, width, tables.split_rankings),
            (Interval(0, inst.n - 1),), (order[0],), (cycle,), (contrib,),
            tuple(order[1:]), (),
        )
    return root
