"""Run the parts of a scan at the same time, one forked child each.

Only a scan of several parts imports this module, so no other command pays
for multiprocessing.  The children are forked, not spawned: a spawned child
would import numpy and the package again, about 0.1 s each, a quarter of a
density scan to 1e8.  The parent only waits, so the peak memory is that of
one child, which holds just the pages it touches and its own part.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
from typing import Callable


def run_parts(fn: Callable, parts: list[tuple]) -> list:
    """[fn(*part) for part in parts], each part in its own forked child, all
    at the same time.  A child hands back its result, or its exception to be
    raised here, through a pipe.  The children are always reaped, and
    terminated first when anything fails.
    """
    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for part in parts:
            receive, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_result, args=(send, fn, part), daemon=True)
            try:
                child.start()
            finally:
                send.close()  # the child's copy stays open until it exits
            children.append((child, receive))
        results = []
        for child, receive in children:
            try:
                ok, value = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"scan worker {child.pid} exited with code {child.exitcode} "
                    "before it sent its part"
                ) from None
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receive in children:
            receive.close()
            child.join()


def _send_result(conn, fn: Callable, args: tuple) -> None:
    """Run fn(*args) in a child of run_parts and send (True, result), or
    (False, exception)."""
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    try:
        message = (True, fn(*args))
    except BaseException as exc:  # the parent re-raises it
        message = (False, exc)
    conn.send(message)
    conn.close()


def _exit_with_parent() -> None:
    """End a child of run_parts as soon as its parent is gone: a parent killed
    by a signal it cannot handle never gets to terminate it."""
    multiprocessing.connection.wait([multiprocessing.parent_process().sentinel])
    os._exit(1)
