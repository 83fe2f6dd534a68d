"""A from-scratch reference of ``Hetero Sp P`` (X1), for its tests.

:class:`~repro.extensions.heterogeneous_links.HeterogeneousSplittingPeriod`
scores each split candidate from the few interval terms the split
touches.  This module keeps the plain loop that scoring must reproduce: it
builds every candidate mapping with ``IntervalMapping.replace`` and
evaluates it in full with :func:`~repro.core.costs.evaluate`, then keeps
the best by ``(period, latency)``, the earlier candidate first.  Candidates
come in the heuristic's order: recipient (unused processors by decreasing
speed, at most ``max_candidate_processors``), then cut, then orientation
(the bottleneck's own processor on the left part first).
"""

from __future__ import annotations

from repro.core.costs import evaluate, interval_cycle_time
from repro.core.mapping import IntervalMapping
from repro.extensions.heterogeneous_links import HeterogeneousSplittingPeriod
from repro.heuristics.base import HeuristicResult, reached


def bottleneck(app, platform, mapping: IntervalMapping) -> int:
    """Index of the interval with the largest cycle time (first on ties)."""
    m = mapping.n_intervals
    best, best_cycle = 0, float("-inf")
    for j, (interval, proc) in enumerate(mapping.items()):
        cycle = interval_cycle_time(
            app, platform, interval, proc,
            mapping.processor_of_interval(j - 1) if j > 0 else None,
            mapping.processor_of_interval(j + 1) if j < m - 1 else None,
        )
        if cycle > best_cycle:
            best, best_cycle = j, cycle
    return best


def reference_run(app, platform, bound: float) -> HeuristicResult:
    """X1 at period bound ``bound``, every candidate evaluated in full."""
    heuristic = HeterogeneousSplittingPeriod()
    order = platform.processors_by_speed(descending=True)
    mapping = IntervalMapping.single_processor(app.n_stages, order[0])
    used = {order[0]}
    current = evaluate(app, platform, mapping)
    history = [(current.period, current.latency)]
    n_splits = 0

    while not reached(current.period, bound):
        unused = [u for u in order if u not in used]
        if not unused:
            break
        unused = unused[: heuristic.max_candidate_processors]
        j = bottleneck(app, platform, mapping)
        interval = mapping.interval(j)
        if interval.n_stages < 2:
            break
        proc_j = mapping.processor_of_interval(j)

        best_mapping = best_eval = None
        for new_proc in unused:
            for cut in range(interval.start, interval.end):
                for procs in ((proc_j, new_proc), (new_proc, proc_j)):
                    candidate = mapping.replace(
                        j, [(interval.start, cut), (cut + 1, interval.end)], procs
                    )
                    cand_eval = evaluate(app, platform, candidate)
                    if cand_eval.period >= current.period - 1e-12:
                        continue
                    if best_eval is None or (cand_eval.period, cand_eval.latency) < (
                        best_eval.period, best_eval.latency
                    ):
                        best_mapping, best_eval = candidate, cand_eval
        if best_mapping is None:
            break
        mapping, current = best_mapping, best_eval
        used = set(mapping.used_processors)
        n_splits += 1
        history.append((current.period, current.latency))

    # ``current`` is a full ``evaluate`` of the final mapping
    return heuristic._make_result(
        mapping, (current.period, current.latency), bound, n_splits, history
    )
