"""Progress lines for long computations, paced by wall time."""

from __future__ import annotations

import logging
import time

# seconds of wall time between two progress lines
_PROGRESS_SECONDS = 10.0


class Progress:
    """Logs work done, and its rate, every ``_PROGRESS_SECONDS`` of wall time.

    A line reads ``<what> at <done>[ of <total>] <unit>, <rate> <unit>/s``,
    then ``detail()``'s text and the seed, when given.  Each call reads the
    clock once, so callers call it once per chunk, block or fixed count of
    rounds.  Lines go to ``log`` at info level.
    """

    def __init__(self, log: logging.Logger, what: str, unit: str = "rounds",
                 total: int | None = None, seed: int | None = None, detail=None):
        self.log, self.what, self.unit, self.detail = log, what, unit, detail
        self.of = "" if total is None else f" of {total}"
        self.tail = "" if seed is None else f" (seed {seed})"
        self.started = time.monotonic()
        self.due = self.started + _PROGRESS_SECONDS

    def __call__(self, done: int) -> None:
        now = time.monotonic()
        if now >= self.due:
            self.log.info("%s at %d%s %s, %.1f %s/s%s%s", self.what, done, self.of,
                          self.unit, done / (now - self.started), self.unit,
                          self.detail() if self.detail else "", self.tail)
            self.due = now + _PROGRESS_SECONDS
