"""Test helpers that choose which kernels serve the solvers.

The kernel dispatch (:mod:`repro.core.kernels`) picks the compiled engine
whenever this host built and validated it, and numpy otherwise.  Tests
compare the two by running a block with the engine switched off, exactly
as on a host without a C compiler, and compare both against the scalar
reference loops by substituting them for the table kernels.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator
from unittest import mock

from repro.core import kernels
from repro.core.kernels import compiled, reference

_DISABLE = "REPRO_KERNELS_DISABLE"


@contextmanager
def engine_disabled() -> Iterator[None]:
    """Run the block on the numpy kernels: ``REPRO_KERNELS_DISABLE`` set.

    The engine verdict is re-taken on entry and on exit, and pool workers
    forked inside the block inherit the variable, so they run numpy too.
    """
    previous = os.environ.get(_DISABLE)
    os.environ[_DISABLE] = "all"
    compiled.reset()
    try:
        yield
    finally:
        if previous is None:
            del os.environ[_DISABLE]
        else:
            os.environ[_DISABLE] = previous
        compiled.reset()


@contextmanager
def scalar_tables() -> Iterator[None]:
    """Serve the homogeneous DP solvers with the scalar reference tables."""
    with mock.patch.object(
        kernels, "min_period_tables", reference.min_period_tables_scalar
    ), mock.patch.object(
        kernels, "min_latency_tables", reference.min_latency_tables_scalar
    ):
        yield
