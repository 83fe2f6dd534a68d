"""A from-scratch reference of the splitting step, for the engine's tests.

The engine (:mod:`repro.heuristics.engine`) ranks each split once, tables
the 2-way rankings and walks immutable trajectory-trie nodes.  This module
takes one step without any of that: it lists every candidate of a split
(each assignment of the parts to the processors, each cut tuple) with the
shared cost kernel (``engine._Instance.part_times``), filters and scores
them as Section 4 defines, and keeps the best by (score, largest new cycle
time, new latency), the earlier assignment and cut first
(:func:`lexsort_step` takes the same step with one full ``np.lexsort``
over every candidate).  A :class:`RefState` has the fields of a
:class:`~repro.heuristics.engine.TrajectoryNode`, so the selection reads
either, and :func:`state_fields` compares the two bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from repro.core.mapping import Interval, IntervalMapping
from repro.heuristics import SelectionRule, engine
from repro.heuristics.base import reached

_EPS = 1e-12


def _added(values) -> float:
    """Left-to-right sum, the order eq. (2) is added in."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class RefState:
    """A splitting state: the fields of a trajectory node, nothing shared."""

    intervals: tuple[Interval, ...]
    processors: tuple[int, ...]
    cycles: tuple[float, ...]
    contribs: tuple[float, ...]
    unused: tuple[int, ...]
    tail: float

    @property
    def period(self) -> float:
        return max(self.cycles)

    @property
    def latency(self) -> float:
        return _added(self.contribs) + self.tail

    def mapping(self) -> IntervalMapping:
        return IntervalMapping(list(self.intervals), list(self.processors))


def initial_state(app, platform, order=None) -> RefState:
    """The whole pipeline on the first processor of ``order`` (default: by speed)."""
    inst = engine._Instance(app, platform)
    order = platform.processors_by_speed(descending=True) if order is None else list(order)
    n = app.n_stages
    inp, work, out = inst.part_times(0, n - 1, float(inst.speeds[order[0]]))
    return RefState(
        (Interval(0, n - 1),), (order[0],), (float(inp + work + out),),
        (float(inp + work),), tuple(order[1:]), inst.tail,
    )


def reference_pieces(inst, state, j, new_procs) -> list[dict]:
    """Every candidate of splitting interval ``j`` over its processor and ``new_procs``.

    One piece per assignment of the parts to the processors (the interval's
    own processor first, then ``new_procs``, in ``permutations`` order), with
    one column per cut tuple (lexicographic).
    """
    iv = state.intervals[j]
    d, e = iv.start, iv.end
    cut_tuples = list(combinations(range(d, e), len(new_procs)))
    parts = []
    for k in range(len(new_procs) + 1):
        starts = np.array([d if k == 0 else cuts[k - 1] + 1 for cuts in cut_tuples])
        ends = np.array([e if k == len(new_procs) else cuts[k] for cuts in cut_tuples])
        parts.append(inst.part_times(starts, ends))

    def builder(idx):
        cuts = cut_tuples[idx]
        bounds = zip((d,) + tuple(c + 1 for c in cuts), cuts + (e,))
        return [Interval(a, b) for a, b in bounds]

    pieces = []
    for procs in permutations((state.processors[j],) + tuple(new_procs)):
        contribs = [
            entry + work / float(inst.speeds[u])
            for (entry, work, _), u in zip(parts, procs)
        ]
        pieces.append(
            {
                "cycles": [c + out for c, (_, _, out) in zip(contribs, parts)],
                "contribs": contribs,
                "processors": procs,
                "interval_builder": builder,
            }
        )
    return pieces


def _base_latency(inst, state, j) -> float:
    return _added(state.contribs) - state.contribs[j] + inst.tail


def _scored(inst, state, j, cycles, contribs, rule):
    """``(improving, score, largest new cycle, new latency)`` of candidate columns.

    ``cycles`` and ``contribs`` hold one row per part and one column per
    candidate; ``improving`` masks the candidates whose largest new cycle
    time beats the interval's.
    """
    old_cycle = state.cycles[j]
    improvement_margin = _EPS * (1.0 + old_cycle)
    local_max = cycles.max(axis=0)
    new_latency = _base_latency(inst, state, j) + contribs.sum(axis=0)
    if rule == SelectionRule.MONO:
        score = local_max
    else:
        delta_lat = new_latency - state.latency
        delta_per = old_cycle - cycles
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(
                delta_per > improvement_margin,
                delta_lat[np.newaxis, :] / delta_per,
                np.inf,
            )
        score = ratios.max(axis=0)
    return local_max < old_cycle - improvement_margin, score, local_max, new_latency


def reference_select(inst, state, j, pieces, rule, latency_cap):
    """The best improving candidate within ``latency_cap`` (one query, no reuse).

    ``latency_cap`` is a raw bound (``None``: no cap); the feasibility
    tolerance is applied here.  Returns ``(intervals, processors, cycles,
    contribs)`` of the chosen candidate, or ``None``.
    """
    best = None
    best_rank = None
    cap = None
    if latency_cap is not None:
        cap = latency_cap * (1 + 1e-9) + 1e-12

    for piece in pieces:
        cycles = np.vstack(piece["cycles"])
        contribs = np.vstack(piece["contribs"])
        mask, score, local_max, new_latency = _scored(inst, state, j, cycles, contribs, rule)
        if cap is not None:
            mask &= new_latency <= cap
        if not mask.any():
            continue

        candidate_indices = np.nonzero(mask)[0]
        sub_rank = np.lexsort(
            (
                new_latency[candidate_indices],
                local_max[candidate_indices],
                score[candidate_indices],
            )
        )
        idx = int(candidate_indices[sub_rank[0]])
        rank = (float(score[idx]), float(local_max[idx]), float(new_latency[idx]))
        if best_rank is None or rank < best_rank:
            best = (
                tuple(piece["interval_builder"](idx)),
                tuple(piece["processors"]),
                tuple(float(cycles[k, idx]) for k in range(cycles.shape[0])),
                tuple(float(contribs[k, idx]) for k in range(contribs.shape[0])),
            )
            best_rank = rank
    return best


def _stepped(inst, state, j, chosen) -> RefState:
    """``state`` with interval ``j`` replaced by the ``chosen`` candidate."""
    intervals, procs, cycles, contribs = chosen
    return RefState(
        state.intervals[:j] + intervals + state.intervals[j + 1:],
        state.processors[:j] + procs + state.processors[j + 1:],
        state.cycles[:j] + cycles + state.cycles[j + 1:],
        state.contribs[:j] + contribs + state.contribs[j + 1:],
        tuple(u for u in state.unused if u not in procs),
        inst.tail,
    )


def lexsort_step(inst, state, rule, width) -> RefState | None:
    """The next split by one full ``np.lexsort`` over every candidate at once.

    All pieces' columns side by side (assignment-major, cut-minor), the
    improving ones sorted stably by (score, largest new cycle time, new
    latency): the first entry is the split.  ``None`` when the walk stalls.
    """
    j = int(np.argmax(state.cycles))
    iv = state.intervals[j]
    if len(state.unused) < width - 1 or iv.end - iv.start < width - 1:
        return None
    pieces = reference_pieces(inst, state, j, state.unused[: width - 1])
    cycles = np.hstack([np.vstack(piece["cycles"]) for piece in pieces])
    contribs = np.hstack([np.vstack(piece["contribs"]) for piece in pieces])
    mask, score, local_max, new_latency = _scored(inst, state, j, cycles, contribs, rule)
    keep = np.flatnonzero(mask)
    if not keep.size:
        return None
    f = int(keep[np.lexsort((new_latency[keep], local_max[keep], score[keep]))[0]])
    piece, c = divmod(f, cycles.shape[1] // len(pieces))
    return _stepped(inst, state, j, (
        tuple(pieces[piece]["interval_builder"](c)),
        tuple(pieces[piece]["processors"]),
        tuple(cycles[:, f].tolist()),
        tuple(contribs[:, f].tolist()),
    ))


def candidate_latencies(inst, state, width) -> list[float]:
    """Sorted new latencies of the improving candidates of the bottleneck split."""
    j = int(np.argmax(state.cycles))
    if len(state.unused) < width - 1:
        return []
    iv = state.intervals[j]
    if iv.end - iv.start < width - 1:
        return []
    out = set()
    base = _base_latency(inst, state, j)
    margin = _EPS * (1.0 + state.cycles[j])
    for piece in reference_pieces(inst, state, j, state.unused[: width - 1]):
        local_max = np.vstack(piece["cycles"]).max(axis=0)
        latency = base + np.vstack(piece["contribs"]).sum(axis=0)
        out.update(latency[local_max < state.cycles[j] - margin].tolist())
    return sorted(out)


def reference_step(inst, state, rule, width, latency_cap) -> RefState | None:
    """The state after the next split, as Section 4 defines it (``None``: stalled).

    The bottleneck interval (largest cycle time, first on ties) is cut into
    ``width`` parts over its processor and the next ``width - 1`` unused ones.
    """
    if len(state.unused) < width - 1:
        return None
    j = int(np.argmax(state.cycles))
    iv = state.intervals[j]
    if iv.end - iv.start < width - 1:
        return None
    new_procs = state.unused[: width - 1]
    chosen = reference_select(
        inst, state, j, reference_pieces(inst, state, j, new_procs), rule, latency_cap
    )
    if chosen is None:
        return None
    return _stepped(inst, state, j, chosen)


def reference_walk(app, platform, rule, width, period_bound, latency_cap, visit=None):
    """Split until the period meets ``period_bound`` (``None``: never) or the walk stalls.

    Returns ``(state, n_splits, history)``; ``visit`` is called on every
    state the walk reaches, the initial one included.
    """
    inst = engine._Instance(app, platform)
    state = initial_state(app, platform)
    if visit is not None:
        visit(state)
    history = [(state.period, state.latency)]
    while period_bound is None or not reached(state.period, period_bound):
        step = reference_step(inst, state, rule, width, latency_cap)
        if step is None:
            break
        state = step
        if visit is not None:
            visit(state)
        history.append((state.period, state.latency))
    return state, len(history) - 1, history


def state_fields(state) -> dict | None:
    """The state's fields as exact reprs (bitwise float equality); ``None`` stays."""
    if state is None:
        return None
    names = ("intervals", "processors", "cycles", "contribs", "unused", "period", "latency")
    return {name: repr(getattr(state, name)) for name in names}
