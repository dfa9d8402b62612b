"""Injectable wall-clock seam for supervision code.

Deterministic packages (``repro.net``, ``repro.sim``, ...) may not call
``time.time``/``time.monotonic`` directly — the D101 lint rule rejects
it, because wall-clock reads are how nondeterminism sneaks into
simulation results.  Supervision, however, is *about* wall-clock time:
barrier deadlines, watchdog deadlines, retry backoff.

This module is the sanctioned seam between the two worlds.  Supervision
code calls :func:`monotonic`/:func:`sleep` here; the values never feed
into simulation state, only into *when to give up waiting* decisions,
which cannot change a deterministic result — they can only replace an
unbounded hang with a structured failure.
"""

import time

__all__ = ["monotonic", "sleep"]


def monotonic() -> float:
    """A monotonic wall-clock reading, for deadlines and backoff."""

    return time.monotonic()


def sleep(seconds: float) -> None:
    """Sleep for ``seconds`` of wall time (stalls, backoff, pacing)."""

    time.sleep(seconds)
