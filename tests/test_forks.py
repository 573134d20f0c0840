"""forks.Child: what its parent reads back, and that nothing outlives it."""

import os
import signal
import tempfile
import time

import pytest

from relaxns import forks
from relaxns.errors import FieldError
from relaxns.forks import Child, record


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def joined(body, *args):
    """Child(body, *args).join(), the child then closed."""
    child = Child(body, *args)
    try:
        return child.join()
    finally:
        child.close()


def test_a_body_that_returns_gives_its_records_in_order():
    def body(out, first, count):
        for index in range(count):
            out.write(record(index, first + index))

    assert joined(body, 10, 3) == ([(0, 10), (1, 11), (2, 12)], "exited with status 0")
    assert_no_child_left()


def test_a_body_that_raises_gives_its_exception_after_its_records():
    def body(out):
        out.write(record(0, "done"))
        raise FieldError("gamma", "gamma must be > 1")

    records, how = joined(body)
    assert how == "exited with status 1"
    assert records[0] == (0, "done")
    ((index, exc),) = records[1:]
    assert (index, type(exc), str(exc), exc.field) == (None, FieldError, "gamma must be > 1", "gamma")
    assert_no_child_left()


def test_an_exception_that_will_not_pickle_arrives_as_its_text():
    class Local(Exception):  # a local class: pickle cannot find it by name
        pass

    def body(out):
        raise Local("not picklable")

    ((index, exc),) = joined(body)[0]
    assert (index, type(exc), str(exc)) == (None, RuntimeError, "Local: not picklable")
    assert_no_child_left()


def test_a_child_killed_by_a_signal_gives_no_records_and_names_it():
    def body(out):
        os.kill(os.getpid(), signal.SIGKILL)

    assert joined(body) == ([], f"was killed by signal {int(signal.SIGKILL)}")
    assert_no_child_left()


def test_close_kills_and_reaps_a_running_child_and_closes_its_file():
    child = Child(lambda out: time.sleep(60))
    t0 = time.perf_counter()
    child.close()
    assert time.perf_counter() - t0 < 30
    assert child.pid is None and child.out.closed
    assert_no_child_left()


def test_a_failed_fork_propagates_and_closes_the_file(monkeypatch):
    opened, real = [], tempfile.TemporaryFile

    def temporary_file():
        opened.append(real())
        return opened[-1]

    def fork():
        raise OSError("no fork")

    monkeypatch.setattr(forks.tempfile, "TemporaryFile", temporary_file)
    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(OSError, match="^no fork$"):
        Child(lambda out: None)
    assert len(opened) == 1 and opened[0].closed
