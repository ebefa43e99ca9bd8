"""fork_map: items dealt from a shared queue, results in item order, a worker's
exception or death raised in the caller, every worker reaped, and inline
running wherever it must not fork."""

import os
import signal
import time
from collections import Counter

import pytest

from cascademine import util
from cascademine.errors import DataError
from cascademine.util import WorkerTraceback, fork_map
from conftest import wait_for


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


def barrier(path, n: int):
    """What an item calls first: it records its process in ``path`` and waits
    until ``n`` processes have. Each of them then takes an item before any
    item ends; without it this process could take every item from the queue
    before a worker starts."""
    def arrive():
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        wait_for(lambda: len(set(path.read_text().split())) >= n)
    return arrive


@pytest.mark.parametrize("n", [2, 3])
def test_results_in_item_order(monkeypatch, tmp_path, n):
    cpus(monkeypatch, n)
    arrive = barrier(tmp_path / "ran", n)
    results = fork_map(lambda i: (arrive(), i * i, os.getpid())[1:], range(7))
    assert [square for square, _ in results] == [i * i for i in range(7)]
    pids = [pid for _, pid in results]
    assert len(set(pids)) == n and os.getpid() in pids  # each of the n processes ran an item
    # every item ran exactly once, in the process that returned its result
    assert Counter(map(int, (tmp_path / "ran").read_text().split())) == Counter(pids)
    assert fork_map(lambda i: i, []) == []
    assert_no_children()


def test_free_process_takes_more_items(monkeypatch, tmp_path):
    # this process's item waits until the worker has run the other five, and
    # the worker's items wait until this process has taken one
    cpus(monkeypatch, 2)
    parent, taken, log = os.getpid(), tmp_path / "taken", tmp_path / "log"

    def fn(i):
        if os.getpid() == parent:
            taken.touch()
            wait_for(lambda: log.exists() and len(log.read_text().split()) == 5)
        else:
            wait_for(taken.exists)
            with open(log, "a") as fh:
                fh.write(f"{i}\n")
        return os.getpid()

    pids = fork_map(fn, range(6))
    assert pids.count(parent) == 1 and len(set(pids)) == 2
    assert sorted(map(int, log.read_text().split())) == [i for i, pid in enumerate(pids)
                                                         if pid != parent]
    assert_no_children()


@pytest.mark.parametrize("n", [2, 3])
def test_more_items_than_the_queue_pipe_holds(monkeypatch, n):
    # 70,000 four-byte item numbers would not fit in a 64 KiB pipe
    cpus(monkeypatch, n)
    assert fork_map(lambda i: 3 * i, range(70_000)) == [3 * i for i in range(70_000)]
    assert_no_children()


# In the failure tests below each process takes one of two items, so one is
# always a worker's; where the message names the item, both items are 0.


@pytest.mark.parametrize("error", [DataError, ValueError])
def test_worker_exception_keeps_type_and_message(monkeypatch, tmp_path, error):
    cpus(monkeypatch, 2)
    parent, arrive = os.getpid(), barrier(tmp_path / "ran", 2)

    def parse(i):
        arrive()
        if os.getpid() != parent:
            raise error(f"item {i} is bad")
        return i

    with pytest.raises(error, match="^item 0 is bad$") as info:
        fork_map(parse, [0, 0])
    assert isinstance(info.value.__cause__, WorkerTraceback)
    assert "in parse" in str(info.value.__cause__)
    assert_no_children()


def test_exception_that_cannot_be_rebuilt_names_its_type(monkeypatch, tmp_path):
    cpus(monkeypatch, 2)
    parent, arrive = os.getpid(), barrier(tmp_path / "ran", 2)

    def fn(i):
        arrive()
        if os.getpid() != parent:
            raise Picky("odd value", i)

    with pytest.raises(RuntimeError, match="^Picky: odd value at 0$"):
        fork_map(fn, [0, 0])
    assert_no_children()


@pytest.mark.parametrize("die, code", [(lambda: os._exit(1), 1),
                                       (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)])
def test_worker_that_dies_raises(monkeypatch, tmp_path, die, code):
    cpus(monkeypatch, 2)
    parent, arrive = os.getpid(), barrier(tmp_path / "ran", 2)

    def fn(i):
        arrive()
        if os.getpid() != parent:
            die()
        return i

    with pytest.raises(RuntimeError, match=f"exited with {code} before sending its results"):
        fork_map(fn, range(2))
    assert_no_children()


def test_worker_that_dies_mid_reply_raises(monkeypatch, tmp_path):
    cpus(monkeypatch, 2)
    parent, arrive = os.getpid(), barrier(tmp_path / "ran", 2)

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
        arrive()
        if os.getpid() != parent:
            util.open = HalfReply  # in the worker's copy of the module alone
        return list(range(1000))

    with pytest.raises(RuntimeError, match="exited with 1 before sending its results"):
        fork_map(fn, range(2))
    assert not hasattr(util, "open")
    assert_no_children()


def test_error_in_own_share_stops_and_reaps_workers(monkeypatch, tmp_path):
    cpus(monkeypatch, 2)
    parent, arrive = os.getpid(), barrier(tmp_path / "ran", 2)

    def fn(i):
        arrive()
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


def test_nested_call_in_worker_runs_inline(monkeypatch, tmp_path):
    cpus(monkeypatch, 2)
    parent, arrive = os.getpid(), barrier(tmp_path / "ran", 2)
    # the nested call in this process forks: each of its two processes takes an item
    arrive_inner = barrier(tmp_path / "inner", 2)

    def fn(i):
        arrive()
        inner = (lambda j: (arrive_inner(), os.getpid())[1]) if os.getpid() == parent \
            else (lambda j: os.getpid())
        return os.getpid(), fork_map(inner, range(2))

    results = fork_map(fn, range(2))
    [(worker, inner)] = [result for result in results if result[0] != parent]
    [(own, own_inner)] = [result for result in results if result[0] == parent]
    assert worker != os.getpid() and inner == [worker, worker]
    assert own == os.getpid() and len(set(own_inner)) == 2  # not in a worker: it forks
    assert_no_children()
