"""The one SQLite connection policy: open, busy timeout, lock retry.

The artifact store, the run ledger and the service's job queue each
own a SQLite file with its own schema and migration, but they open
and contend for it the same way: :func:`connect` sets the one
``busy_timeout`` (and the ``mode=ro`` URI for read-only pool-worker
connections), and :func:`retry_locked` absorbs what outlasts it.

SQLite serializes writers per database file: when a second connection
holds the write lock past ``busy_timeout``, the losing connection
raises ``sqlite3.OperationalError: database is locked``.  Under the
campaign *service* several threads (and concurrent ``report`` / CLI
invocations) share the ledger and artifact-store files, so a raw
locked error can no longer be allowed to propagate: the artifact
store would degrade to cold, and a ledger write would be lost
outright.

:func:`retry_locked` wraps one write transaction in a bounded
exponential-backoff loop.  It retries *only* lock/busy contention —
every other ``OperationalError`` (disk full, malformed database, bad
SQL) still raises on the first attempt — and it re-raises the final
lock error once the attempt cap is reached, so a wedged database never
turns into an unbounded stall.  Callers observe retries through the
``on_retry`` callback (wired to the ``store.lock_retries`` /
``ledger.lock_retries`` counters).

The wrapped operation must be *idempotent as a transaction*: it is
re-invoked from scratch on retry, so it should contain exactly one
``BEGIN``-to-``COMMIT`` unit (e.g. a ``with conn:`` block), never half
of one.
"""

from __future__ import annotations

import sqlite3
import time
from typing import Callable, TypeVar

T = TypeVar("T")

#: default attempt cap; total worst-case sleep at the default base
#: delay is 0.05 * (1+2+4+8+16) = 1.55s
DEFAULT_ATTEMPTS = 6
DEFAULT_BASE_DELAY = 0.05


def connect(
    path: str, *, read_only: bool = False, check_same_thread: bool = True
) -> sqlite3.Connection:
    """Open ``path`` with the shared 5 s busy timeout (the first line
    of defense against concurrent writers; :func:`retry_locked` is the
    bounded second).  ``read_only`` opens it through a ``mode=ro`` URI,
    so the file must already exist."""
    if read_only:
        conn = sqlite3.connect(
            f"file:{path}?mode=ro", uri=True,
            check_same_thread=check_same_thread,
        )
    else:
        conn = sqlite3.connect(path, check_same_thread=check_same_thread)
    conn.execute("PRAGMA busy_timeout = 5000")
    return conn


def is_locked_error(error: BaseException) -> bool:
    """Whether ``error`` is SQLite lock/busy contention (retriable),
    as opposed to a structural failure (not retriable)."""
    if not isinstance(error, sqlite3.OperationalError):
        return False
    message = str(error).lower()
    return "locked" in message or "busy" in message


def retry_locked(
    operation: Callable[[], T],
    *,
    attempts: int = DEFAULT_ATTEMPTS,
    base_delay: float = DEFAULT_BASE_DELAY,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Callable[[int], None] | None = None,
) -> T:
    """Run ``operation()``, retrying ``database is locked`` errors with
    exponential backoff; give up (re-raise) after ``attempts`` tries.

    ``on_retry(attempt)`` is called before each backoff sleep with the
    zero-based attempt number that just failed.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    for attempt in range(attempts):
        try:
            return operation()
        except sqlite3.OperationalError as error:
            if not is_locked_error(error) or attempt == attempts - 1:
                raise
            if on_retry is not None:
                on_retry(attempt)
            sleep(base_delay * (2**attempt))
    raise AssertionError("unreachable")  # pragma: no cover
