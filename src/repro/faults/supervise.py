"""Supervisor: the one loop that waits on child processes.

Every execution layer that hands work to another process — the worker
pool (:mod:`repro.faults.pool`, which the grid engine and the service
both run cells on) and the shard coordinator (:mod:`repro.net.shard`) —
needs the same three answers about a child it is waiting for: *did it
say something, did it die, or has it been silent too long?*  This module
is the only place that question is asked.  A :class:`Supervisor` owns
*child process + duplex pipe* pairs and classifies every wake-up of its
single :meth:`Supervisor.wait` as

* ``"message"`` — a frame arrived on the child's pipe (payload: the
  frame);
* ``"exited"`` — the pipe hit EOF or the process sentinel fired
  (payload: the exit code, read *after* the child was reaped, so it is
  always an int — negative for a signal);
* ``"deadline"`` — the child's armed deadline passed with neither.

Mechanism only: what a silent or dead child *costs* (a retry, a
restart) is decided by the client from :mod:`repro.faults.policy`.  All
wall-clock reads go through :mod:`repro.faults.clock`.  Several threads
may wait at once, each on its own children.
"""

import gc
import multiprocessing
import traceback
from multiprocessing import connection as _mpconn
from multiprocessing import util as _mputil
from typing import Callable, List, Optional, Sequence, Tuple

from repro.faults import clock
from repro.faults.inject import apply_cell_fault

__all__ = ["Child", "Supervisor", "default_start_method", "task_worker"]

#: Seconds a child that closed its pipe gets to finish exiting on its
#: own before it is killed (so a reap never blocks on a lingerer).
REAP_GRACE = 5.0


def default_start_method() -> str:
    """Prefer fork (milliseconds per child) where the platform has it;
    fall back to spawn.  Every supervised target is a module-level
    function and every task travels as a pickle, so the choice only
    affects start-up cost, which dominates small grids."""
    return ("fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")


def task_worker(conn, runner: Callable) -> None:
    """A pool worker's loop: recv ``(payload, fault)`` -> apply the fault
    -> reply ``("ok", runner(payload))`` or ``("err", traceback_text)``.
    Module-level so fork and spawn can both target it; it ends when the
    supervisor's end of the pipe closes."""
    while True:
        try:
            payload, fault = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            # Supervisor gone, or ^C reached the whole process group:
            # an idle worker leaves quietly, its supervisor cleans up.
            return
        apply_cell_fault(fault)
        try:
            reply = ("ok", runner(payload))
        except BaseException:
            reply = ("err", traceback.format_exc())
        try:
            conn.send(reply)
        except (OSError, ValueError):
            return


def _child_main(parent_end, child_end, target: Callable, args) -> None:
    """Entry point of every supervised child.

    A forked child inherits the supervisor's end of its own pipe; held
    open, it would hide the EOF that tells an orphan its supervisor is
    gone (``task_worker`` and the shard worker both exit on that EOF).

    Before the target runs, the heap the child inherited (fork) or
    imported (spawn) moves to the collector's permanent generation: it
    is long-lived state that no per-cell pass should walk again (the
    README's "Memory management" has the measurement).  ``gc.freeze()``
    takes constant time and touches almost no inherited page.  Only
    children freeze: the library never freezes its caller's heap.
    """
    parent_end.close()
    gc.freeze()
    target(child_end, *args)


class Child:
    """One supervised process, its pipe, and its silence deadline."""

    __slots__ = ("process", "conn", "deadline")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        #: Monotonic time after which :meth:`Supervisor.wait` reports
        #: ``"deadline"``; ``None`` waits forever.
        self.deadline: Optional[float] = None

    def arm(self, timeout: Optional[float]) -> None:
        """(Re)start the silence budget: ``timeout`` seconds from now."""
        self.deadline = (clock.monotonic() + timeout
                         if timeout is not None else None)


def _reap(process) -> int:
    """Join ``process`` (killing a lingerer) and return its exit code."""
    process.join(REAP_GRACE)
    if process.exitcode is None:
        process.kill()
        process.join()
    return process.exitcode


def _dispose(child: Child, kill: bool) -> int:
    """Close ``child``'s pipe and reap it; returns the exit code."""
    if kill:
        child.process.kill()
    child.conn.close()
    return _reap(child.process)


def _kill_all(children: List[Child]) -> None:
    while children:
        _dispose(children.pop(), kill=True)


class Supervisor:
    """Spawns ``target(conn, *args)`` children and waits on them.

    Children are ordinary (never daemonic) processes, so a child may
    supervise children of its own — a grid worker running a sharded
    cell — and reaping them is this class's job, not the interpreter's.
    """

    def __init__(self, ctx, target: Callable, name: str) -> None:
        self._ctx = ctx
        self._target = target
        self._name = name
        self._spawned = 0
        #: Every child spawned and not yet discarded.
        self.children: List[Child] = []
        # A supervisor dropped without close() (or still open at
        # interpreter exit, where multiprocessing *joins* non-daemonic
        # children) must not leave processes behind or hang the exit.
        _mputil.Finalize(self, _kill_all, args=(self.children,),
                         exitpriority=10)

    def spawn(self, *args) -> Child:
        """Start ``target(child_end, *args)``; returns its handle."""
        parent_end, child_end = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_child_main,
            args=(parent_end, child_end, self._target, args),
            name=f"{self._name}-{self._spawned}")
        self._spawned += 1
        process.start()
        child_end.close()
        child = Child(process, parent_end)
        self.children.append(child)
        return child

    def wait(self, children: Sequence[Child], timeout: Optional[float] = None,
             ) -> List[Tuple[Child, str, object]]:
        """Block until a child speaks, dies or passes its deadline.

        Returns ``(child, kind, payload)`` events in ``children`` order
        (see the module docstring for the kinds); empty when ``timeout``
        seconds pass first.  Pipes *and* sentinels are watched: a pipe
        alone stays open while a grandchild still holds the dead
        child's end, and a sentinel alone would drop the frames a child
        sent just before exiting.
        """
        now = clock.monotonic()
        deadlines = [c.deadline for c in children if c.deadline is not None]
        if deadlines:
            until = max(0.0, min(deadlines) - now)
            timeout = until if timeout is None else min(timeout, until)
        waitables = [child.conn for child in children]
        waitables.extend(child.process.sentinel for child in children)
        ready = set(_mpconn.wait(waitables, timeout))
        now = clock.monotonic()
        events: List[Tuple[Child, str, object]] = []
        for child in children:
            if child.conn in ready:
                try:
                    frame = child.conn.recv()
                except (EOFError, OSError):
                    pass  # EOF: the child is gone (or going)
                else:
                    events.append((child, "message", frame))
                    continue
            elif child.process.sentinel not in ready:
                if child.deadline is not None and now >= child.deadline:
                    events.append((child, "deadline", None))
                continue
            events.append((child, "exited", _reap(child.process)))
        return events

    def kill(self, child: Child) -> None:
        """Signal only — safe from any thread: the thread blocked in
        :meth:`wait` on this child sees ``"exited"`` and discards it."""
        child.process.kill()

    def discard(self, child: Child, kill: bool = False) -> int:
        """Forget ``child``, close its pipe, reap it; returns the exit
        code.  ``kill=True`` does not wait for it to leave by itself."""
        if child in self.children:
            self.children.remove(child)
        return _dispose(child, kill)

    def close(self) -> None:
        """Kill and reap every child that is still around."""
        _kill_all(self.children)
