"""fork_map: results in item order, a worker's exception or death raised in the
caller, every worker reaped, and inline running wherever it must not fork."""

import os
import signal
import time

import pytest

from cascademine import util
from cascademine.errors import DataError
from cascademine.util import WorkerTraceback, fork_map


@pytest.fixture(autouse=True)
def deadline():
    """A fork_map that hangs fails its test instead of stalling the run."""
    def expire(signum, frame):
        raise TimeoutError("fork_map took more than 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def cpus(monkeypatch, n: int) -> None:
    """Make fork_map see ``n`` CPUs, whatever the host has: forking works on one."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_children() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Picky(Exception):
    """An exception that unpickling cannot rebuild: its __init__ takes two values."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@pytest.mark.parametrize("n", [2, 3])
def test_results_in_item_order(monkeypatch, n):
    cpus(monkeypatch, n)
    results = fork_map(lambda i: (i * i, os.getpid()), range(7))
    assert [square for square, _ in results] == [i * i for i in range(7)]
    pids = [pid for _, pid in results]
    assert len(set(pids)) == n and pids[-1] == os.getpid()  # this process ran the last share
    assert fork_map(lambda i: i, []) == []
    assert_no_children()


@pytest.mark.parametrize("error", [DataError, ValueError])
def test_worker_exception_keeps_type_and_message(monkeypatch, error):
    cpus(monkeypatch, 2)
    parent = os.getpid()

    def parse(i):
        if os.getpid() != parent:
            raise error(f"item {i} is bad")
        return i

    with pytest.raises(error, match="^item 0 is bad$") as info:
        fork_map(parse, range(4))
    assert isinstance(info.value.__cause__, WorkerTraceback)
    assert "in parse" in str(info.value.__cause__)
    assert_no_children()


def test_exception_that_cannot_be_rebuilt_names_its_type(monkeypatch):
    cpus(monkeypatch, 2)
    parent = os.getpid()

    def fn(i):
        if os.getpid() != parent:
            raise Picky("odd value", i)

    with pytest.raises(RuntimeError, match="^Picky: odd value at 0$"):
        fork_map(fn, range(2))
    assert_no_children()


@pytest.mark.parametrize("die, code", [(lambda: os._exit(1), 1),
                                       (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)])
def test_worker_that_dies_raises(monkeypatch, die, code):
    cpus(monkeypatch, 2)
    parent = os.getpid()

    def fn(i):
        if os.getpid() != parent:
            die()
        return i

    with pytest.raises(RuntimeError, match=f"exited with {code} before sending its results"):
        fork_map(fn, range(2))
    assert_no_children()


def test_worker_that_dies_mid_reply_raises(monkeypatch):
    cpus(monkeypatch, 2)
    parent = os.getpid()

    class HalfReply:
        """The worker's reply pipe, opened by its fd: writes half the reply, then dies."""

        def __init__(self, fd, mode):
            self.fd = fd

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def write(self, data):
            os.write(self.fd, data[:len(data) // 2])
            os._exit(1)

    def fn(i):
        if os.getpid() != parent:
            util.open = HalfReply  # in the worker's copy of the module alone
        return list(range(1000))

    with pytest.raises(RuntimeError, match="exited with 1 before sending its results"):
        fork_map(fn, range(2))
    assert not hasattr(util, "open")
    assert_no_children()


def test_error_in_own_share_stops_and_reaps_workers(monkeypatch):
    cpus(monkeypatch, 2)
    parent = os.getpid()

    def fn(i):
        if os.getpid() == parent:
            raise DataError("own share")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(DataError, match="own share"):
        fork_map(fn, range(2))
    assert time.monotonic() - start < 10  # the sleeping worker was killed, not awaited
    assert_no_children()


def test_one_cpu_runs_inline(monkeypatch):
    def no_fork():
        raise AssertionError("fork_map forked")

    monkeypatch.setattr(os, "fork", no_fork)
    cpus(monkeypatch, 1)
    assert fork_map(lambda i: (i, os.getpid()), range(3)) == [(i, os.getpid()) for i in range(3)]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert fork_map(lambda i: i + 1, range(3)) == [1, 2, 3]


def test_nested_call_in_worker_runs_inline(monkeypatch):
    cpus(monkeypatch, 2)

    def fn(i):
        return os.getpid(), fork_map(lambda j: os.getpid(), range(2))

    (worker, inner), (own, own_inner) = fork_map(fn, range(2))
    assert worker != os.getpid() and inner == [worker, worker]
    assert own == os.getpid() and len(set(own_inner)) == 2  # not in a worker: it forks
    assert_no_children()
