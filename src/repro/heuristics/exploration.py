"""3-Exploration heuristics: ``H2 3-Explo-mono`` and ``H3 3-Explo-bi``.

At each step the interval of the bottleneck processor is split into *three*
parts; two of them are handed to the next **pair** of fastest unused
processors while the third stays on the bottleneck processor.  All cut-pair
positions and all ``3!`` part-to-processor assignments are explored:

* **3-Explo mono** (H2, fixed period) keeps the candidate minimising
  ``max(period(j), period(j'), period(j''))``;
* **3-Explo bi** (H3, fixed period) keeps the candidate minimising
  ``max_{i in {j, j', j''}} Δlatency / Δperiod(i)``.

The 3-exploration heuristics only ever perform genuine three-way splits: when
fewer than two unused processors remain, when the bottleneck interval has
fewer than three stages, or when no three-way split improves on the current
bottleneck (e.g. because the next pair of processors contains a slow one),
they stop.  This matches the paper's observations — with few processors the
3-exploration heuristics stall early and exhibit the largest failure
thresholds of Table 1, while with ``p = 100`` they become competitive because
fast processor pairs remain available much longer.

Both walk a 3-way trajectory trie of the instance
(:func:`~repro.heuristics.engine.trajectory` with ``width=3``) until the
period is reached or the walk stalls, like H1 on the 2-way one.
"""

from __future__ import annotations

from typing import ClassVar

from .engine import SelectionRule
from .splitting import FixedPeriodWalk

__all__ = ["ThreeExploMono", "ThreeExploBi"]


class ThreeExploMono(FixedPeriodWalk):
    """``H2 3-Explo mono`` — mono-criterion 3-way exploration, fixed period."""

    name: ClassVar[str] = "3-Explo mono"
    key: ClassVar[str] = "H2"
    rule: ClassVar[str] = SelectionRule.MONO
    width: ClassVar[int] = 3


class ThreeExploBi(FixedPeriodWalk):
    """``H3 3-Explo bi`` — bi-criteria 3-way exploration, fixed period."""

    name: ClassVar[str] = "3-Explo bi"
    key: ClassVar[str] = "H3"
    rule: ClassVar[str] = SelectionRule.RATIO
    width: ClassVar[int] = 3
