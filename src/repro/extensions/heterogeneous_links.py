"""Fully heterogeneous platforms (Section 7, future work).

The paper restricts its heuristics to communication-homogeneous platforms and
leaves fully heterogeneous platforms (per-link bandwidths) as future work.
The analytical cost model of :mod:`repro.core.costs` already supports
heterogeneous links — the input/output bandwidth of an interval is the one of
the link connecting it to the neighbouring interval's processor — so this
module only needs to provide a mapping heuristic that is *aware* of the
per-link bandwidths.

:class:`HeterogeneousSplittingPeriod` mirrors ``Sp mono P``: it repeatedly
splits the bottleneck interval and hands part of it to an unused processor,
but candidates are scored with the full cost model (which accounts for the
bandwidths of the links actually used) and every unused processor is
considered as the recipient, not only the next fastest one, because raw speed
is no longer a total order of desirability when links differ.

A split changes at most four interval terms: the two parts, and the link
term each neighbour shares with them.  Each candidate is scored from those
alone, through the cost model's own per-interval term function, with the
other intervals' terms kept from the previous step; the period is their
maximum and the latency is added left to right, in
:func:`~repro.core.costs.evaluate`'s order, so every score equals the full
evaluation of the candidate mapping bit for bit.
"""

from __future__ import annotations

from typing import ClassVar

from ..core.application import PipelineApplication
from ..core.costs import _interval_terms
from ..core.mapping import IntervalMapping
from ..core.platform import Platform
from ..heuristics.base import FixedPeriodHeuristic, HeuristicResult, reached

__all__ = ["HeterogeneousSplittingPeriod"]


class HeterogeneousSplittingPeriod(FixedPeriodHeuristic):
    """Splitting heuristic for fully heterogeneous platforms (fixed period).

    Works on any platform (on communication-homogeneous ones it behaves like a
    slightly more exhaustive ``Sp mono P``).  A step scores every (recipient,
    cut, orientation) candidate of the bottleneck interval, the recipients
    being the ``max_candidate_processors`` fastest unused processors.  Each
    score recomputes the two parts' terms and sums the latency tail to the
    right of the split, so a step costs ``O(r * l * m)`` for ``r``
    recipients, a bottleneck of ``l`` stages and ``m`` intervals; no
    candidate mapping is built, only the final one.
    """

    name: ClassVar[str] = "Hetero Sp P"
    key: ClassVar[str] = "X1"

    #: cap on the number of candidate recipient processors examined per step
    max_candidate_processors: ClassVar[int] = 16

    def _solve(
        self, app: PipelineApplication, platform: Platform, bound: float
    ) -> HeuristicResult:
        n = app.n_stages
        prefix = app.work_prefix.tolist()
        comm = app.comm_sizes.tolist()
        speed = platform.speeds.tolist()
        bw = platform.bandwidth_matrix().tolist()
        b_first, b_last = platform.input_bandwidth, platform.output_bandwidth

        def terms(start, end, u, pred, succ):
            """``(cycle, contribution, output)`` of ``[start, end]`` on ``u``."""
            return _interval_terms(
                comm[start],
                comm[end + 1],
                prefix[end + 1] - prefix[start],
                speed[u],
                b_first if pred is None else bw[pred][u],
                b_last if succ is None else bw[u][succ],
            )

        order = platform.processors_by_speed(descending=True)
        intervals = [(0, n - 1)]
        procs = [order[0]]
        cells = [terms(0, n - 1, order[0], None, None)]
        period = cells[0][0]
        latency = 0.0 + cells[0][1] + cells[0][2]
        history = [(period, latency)]

        while not reached(period, bound):
            unused = [u for u in order if u not in procs]
            if not unused:
                break
            unused = unused[: self.max_candidate_processors]
            m = len(cells)
            j = max(range(m), key=lambda k: cells[k][0])
            start, end = intervals[j]
            if start == end:
                break
            own = procs[j]
            pred = procs[j - 1] if j > 0 else None
            succ = procs[j + 1] if j + 1 < m else None
            # untouched intervals: their cycle maximum, the latency up to the
            # split, and the contributions after its right neighbour
            rest = max(
                (cell[0] for k, cell in enumerate(cells) if abs(k - j) > 1),
                default=float("-inf"),
            )
            head = 0.0
            for cell in cells[:j]:
                head += cell[1]
            tail = [cell[1] for cell in cells[j + 2:]]
            last_out = cells[-1][2]  # a split changes it only on the last interval
            no_cell = (float("-inf"), 0.0, 0.0)
            left_own = cells[j - 1] if pred is not None else no_cell
            right_own = cells[j + 1] if succ is not None else no_cell

            best = None
            for new in unused:
                # a neighbour's terms change only when its link now leads to ``new``
                left_new = right_new = no_cell
                if pred is not None:
                    left_new = terms(
                        *intervals[j - 1], pred, procs[j - 2] if j > 1 else None, new
                    )
                if succ is not None:
                    right_new = terms(
                        *intervals[j + 1], succ, new, procs[j + 2] if j + 2 < m else None
                    )
                for cut in range(start, end):
                    for pa, pb in ((own, new), (new, own)):
                        a = terms(start, cut, pa, pred, pb)
                        b = terms(cut + 1, end, pb, pa, succ)
                        left = left_new if pa == new else left_own
                        right = right_new if pb == new else right_own
                        cand_period = max(rest, left[0], a[0], b[0], right[0])
                        if cand_period >= period - 1e-12:
                            continue
                        if best is not None and cand_period > best[0]:
                            continue
                        cand_latency = head + a[1] + b[1]
                        if succ is None:
                            cand_latency += b[2]
                        else:
                            cand_latency += right[1]
                            for contribution in tail:
                                cand_latency += contribution
                            cand_latency += last_out
                        if best is None or (cand_period, cand_latency) < best[:2]:
                            best = (cand_period, cand_latency, cut, pa, pb, a, b, left, right)
            if best is None:
                break
            period, latency, cut, pa, pb, a, b, left, right = best
            if pred is not None:
                cells[j - 1] = left
            if succ is not None:
                cells[j + 1] = right
            intervals[j:j + 1] = [(start, cut), (cut + 1, end)]
            procs[j:j + 1] = [pa, pb]
            cells[j:j + 1] = [a, b]
            history.append((period, latency))

        return self._make_result(
            IntervalMapping(intervals, procs), (period, latency), bound,
            len(procs) - 1, history,
        )
