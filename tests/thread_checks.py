"""A check of the thread contract shared by the tests: that a stage's items run on as many
threads at once as it may use."""

from __future__ import annotations

import itertools
import threading


def meeting(parties: int):
    """A callable whose first `parties` calls wait for each other, so they return only if
    that many threads run them at once."""
    barrier, calls = threading.Barrier(parties, timeout=5), itertools.count()

    def meet() -> None:
        if next(calls) < parties:
            barrier.wait()

    return meet
