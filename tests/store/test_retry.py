"""The bounded busy-retry helper shared by every SQLite writer."""

from __future__ import annotations

import sqlite3

import pytest

from repro.store.sqlite import (
    DEFAULT_ATTEMPTS,
    is_locked_error,
    retry_locked,
)


def _locked_error() -> sqlite3.OperationalError:
    return sqlite3.OperationalError("database is locked")


class TestIsLockedError:
    def test_locked_message_matches(self):
        assert is_locked_error(_locked_error())

    def test_busy_message_matches(self):
        assert is_locked_error(sqlite3.OperationalError("database is busy"))

    def test_other_operational_errors_do_not(self):
        assert not is_locked_error(
            sqlite3.OperationalError("no such table: jobs")
        )

    def test_non_sqlite_errors_do_not(self):
        assert not is_locked_error(RuntimeError("database is locked"))


class TestRetryLocked:
    def test_success_passes_through(self):
        assert retry_locked(lambda: 42) == 42

    def test_retries_until_unlock(self):
        calls = []
        sleeps = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise _locked_error()
            return "ok"

        assert retry_locked(flaky, sleep=sleeps.append) == "ok"
        assert len(calls) == 3
        # exponential: base * 2^0, base * 2^1
        assert sleeps == [0.05, 0.1]

    def test_gives_up_after_attempts(self):
        calls = []

        def always_locked():
            calls.append(1)
            raise _locked_error()

        with pytest.raises(sqlite3.OperationalError, match="locked"):
            retry_locked(always_locked, sleep=lambda _: None)
        assert len(calls) == DEFAULT_ATTEMPTS

    def test_non_lock_errors_raise_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise sqlite3.OperationalError("no such table")

        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            retry_locked(broken, sleep=lambda _: None)
        assert len(calls) == 1

    def test_on_retry_sees_each_attempt(self):
        seen = []
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise _locked_error()
            return None

        retry_locked(
            flaky, sleep=lambda _: None, on_retry=seen.append
        )
        assert seen == [0, 1]

    def test_attempts_below_one_rejected(self):
        with pytest.raises(ValueError):
            retry_locked(lambda: 1, attempts=0)


def test_real_contention_is_absorbed(tmp_path):
    """Two connections to one file: a held write lock really produces
    'database is locked', and the helper rides it out."""
    path = str(tmp_path / "contended.sqlite")
    writer = sqlite3.connect(path)
    writer.execute("CREATE TABLE t (x)")
    writer.commit()
    other = sqlite3.connect(path, timeout=0)
    writer.execute("BEGIN IMMEDIATE")
    writer.execute("INSERT INTO t VALUES (1)")

    released = []

    def release_then_sleep(_delay):
        if not released:
            writer.commit()
            released.append(True)

    def insert():
        with other:
            other.execute("INSERT INTO t VALUES (2)")

    retry_locked(insert, sleep=release_then_sleep)
    assert other.execute("SELECT COUNT(*) FROM t").fetchone()[0] == 2
    writer.close()
    other.close()
