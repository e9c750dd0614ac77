"""Run the parts of a scan at the same time, one forked child each.

Only a scan of several parts imports this module.  The children are made by
os.fork alone: a spawned child would import numpy and the package again,
about 0.1 s each, a quarter of a density scan to 1e8, and multiprocessing
would cost 7-14 ms to import for the two children it would start.  A child
shares the parent's pages and touches only its own part, so the peak memory
is that of one child.  It sends its pickled result, or its exception,
through a pipe and ends with os._exit, so it runs none of the parent's
clean-up.  It also reads a lifeline pipe whose writing end only the parent
holds, and exits at its end of file, when the parent is gone.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
import threading
from typing import Callable

from .errors import WorkerError


def run_parts(fn: Callable, parts: list[tuple]) -> list:
    """[fn(*part) for part in parts], each part in its own forked child, all
    at the same time.  A child hands back its result, or its exception to be
    raised here, through a pipe.  The pipes are read as they become ready, so
    the first failure is raised at once, whichever part it is.  The children
    are always reaped, and sent SIGTERM first when anything fails.
    """
    lifeline, lifeline_end = os.pipe()
    running = set()  # the children not yet reaped
    pending = {}  # the reading end of a pipe -> (part index, pid), until read
    ready = select.poll()
    try:
        for i, part in enumerate(parts):
            receive, send = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(receive)
                os.close(send)
                raise
            if pid == 0:
                _run_child(fn, part, send, lifeline, unused=(receive, lifeline_end))
            os.close(send)
            running.add(pid)
            pending[receive] = (i, pid)
            ready.register(receive, select.POLLIN)
        results = [None] * len(parts)
        while pending:
            for receive, _ in ready.poll():
                ready.unregister(receive)
                i, pid = pending.pop(receive)
                with open(receive, "rb") as pipe:
                    data = pipe.read()
                if not data:
                    running.remove(pid)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    names = {s.value: s.name for s in signal.Signals}  # 9: "SIGKILL"
                    name = names.get(-code, f"signal {-code}")
                    how = f"was killed by {name}" if code < 0 else f"exited with code {code}"
                    raise WorkerError(f"scan worker {pid} {how} before it sent its part")
                ok, value = pickle.loads(data)
                if not ok:
                    raise value
                results[i] = value
        return results
    except BaseException:
        for pid in running:
            os.kill(pid, signal.SIGTERM)  # not reaped yet, so still this child's pid
        raise
    finally:
        for receive in pending:
            os.close(receive)
        for pid in running:
            os.waitpid(pid, 0)
        os.close(lifeline)
        os.close(lifeline_end)


def _run_child(fn: Callable, args: tuple, send: int, lifeline: int, unused) -> None:
    """In a child of run_parts, close the parent's descriptors unused, write
    the pickle of (True, fn(*args)), or of (False, exception), to the pipe
    send, and end the process: with code 0 once it is written, else 1 after
    printing why."""
    code = 1
    try:
        for fd in unused:
            os.close(fd)
        threading.Thread(target=_exit_with_parent, args=(lifeline,), daemon=True).start()
        try:
            message = (True, fn(*args))
        except BaseException as exc:  # the parent re-raises it
            message = (False, exc)
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)  # all or nothing
        with open(send, "wb") as out:
            out.write(data)
        code = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(code)


def _exit_with_parent(lifeline: int) -> None:
    """End a child of run_parts as soon as its parent is gone: a parent killed
    by a signal it cannot handle never gets to terminate it.  Nothing is
    written to the lifeline, so the read returns only at its end of file."""
    os.read(lifeline, 1)
    os._exit(1)
