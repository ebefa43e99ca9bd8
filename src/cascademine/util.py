"""Small shared helpers: rank statistics, deterministic seed derivation, a
fork-based parallel map, and the output formats every stage writes through.

Every CSV export goes through :func:`write_csv` (UTF-8, standard minimal
quoting, so a city named "Saint Louis, MO" or "Montréal" round-trips), every
JSON report through :func:`write_json`, every pickled stage cache through
:func:`save_cache`, which :func:`load_cache` reads back, and every columnar
stage cache (an ``.npz`` of plain arrays) through :func:`save_arrays`, which
:func:`load_arrays` reads back. Two formats of their own stay with their
modules: the cascade JSONL export and DOT exports.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import pickle
import zipfile
from typing import Callable, Iterable, Sequence

import numpy as np

from cascademine.errors import DataError


def nearest_rank(sorted_values: Sequence, percentile: float):
    """Nearest-rank percentile: the value at position ceil(p/100 * n), 1-indexed,
    of an ascending-sorted sample."""
    if len(sorted_values) == 0:
        raise ValueError("nearest_rank needs at least one value")
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    rank = math.ceil(percentile / 100.0 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def ascending_names(names) -> bool:
    """Whether ``names`` is a list of strings in strictly ascending order."""
    return (isinstance(names, list) and all(isinstance(n, str) for n in names)
            and all(a < b for a, b in zip(names, names[1:])))


def substream_seed(global_seed: int, *names: str) -> int:
    """Derive a named RNG substream from one global seed.

    Hash-based so that changing the seed of one stage (e.g. the learner) never
    perturbs the draws of another (e.g. short-cascade downsampling).
    """
    h = hashlib.sha256()
    h.update(str(int(global_seed)).encode("ascii"))
    for name in names:
        h.update(b"\x00")
        h.update(str(name).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


_in_worker = False  # set in a fork_map worker, where a nested fork_map runs inline


class WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a fork_map worker,
    chained as the cause of that exception when it is raised again."""


def _serve(fn: Callable, share: list, fd: int) -> None:
    """A fork_map worker: run ``share``, pickle the outcome to ``fd`` and leave
    through ``os._exit``, so no handler or buffer of the parent's runs here."""
    global _in_worker
    code = 1
    try:
        _in_worker = True
        try:
            reply = (True, [fn(item) for item in share], "")
        except BaseException as exc:  # any failure, interrupts too, goes to the parent
            import traceback  # worker only: the import is not paid on every run

            reply = (False, exc, traceback.format_exc())
        try:
            data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
            if not reply[0]:
                pickle.loads(data)  # an exception the parent cannot rebuild
        except Exception as exc:
            what = exc if reply[0] else reply[1]
            data = pickle.dumps((False, RuntimeError(f"{type(what).__name__}: {what}"),
                                 reply[2]), pickle.HIGHEST_PROTOCOL)
        with open(fd, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def fork_map(fn: Callable, items: Iterable) -> list:
    """``[fn(item) for item in items]``, with the items shared out over the CPUs
    of this process's affinity mask.

    Each worker is a plain ``os.fork`` of this process, so ``fn`` may be a
    closure and sees the caller's state as it was at the call; what ``fn``
    changes there is lost. Results, and an exception with its type and
    message, come back pickled over a pipe. The items go out in contiguous
    shares, one per CPU but never more than there are items, and this process
    runs the last share itself. A worker that dies without a result raises
    RuntimeError; every worker is reaped before this returns or raises. With
    one CPU, no ``fork`` or ``sched_getaffinity``, or inside a worker, it runs
    inline. A fork copies only the calling thread, so call this where no
    other thread holds a lock that ``fn`` needs; numpy's OpenBLAS thread
    pool handles fork itself.
    """
    items = list(items)
    affinity = getattr(os, "sched_getaffinity", None)
    n = 1 if _in_worker or affinity is None or not hasattr(os, "fork") else \
        min(len(affinity(0)), len(items))
    if n <= 1:
        return [fn(item) for item in items]
    shares = [items[len(items) * k // n:len(items) * (k + 1) // n] for k in range(n)]
    pending = {}  # worker pid -> read end of its pipe, until it is reaped
    try:
        for share in shares[:-1]:
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, share, w)
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(w)
            pending[pid] = r
        own = [fn(item) for item in shares[-1]]
        results = []
        for pid in list(pending):
            # unpickled straight from the pipe, with no copy of the reply's bytes;
            # they are bytes that this program's worker wrote
            with open(pending[pid], "rb", closefd=False) as fh:
                try:
                    reply = pickle.load(fh)
                except _UNPICKLING_ERRORS:  # the worker died before or while replying
                    reply = None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(pending.pop(pid))
            if code != 0 or reply is None:
                raise RuntimeError(f"fork_map worker {pid} exited with {code} "
                                   "before sending its results")
            ok, value, tb = reply
            if not ok:
                raise value from WorkerTraceback(tb)
            results += value
        return results + own
    finally:  # an error here or in a worker: stop and reap the rest
        if pending:
            import signal  # on failure only: start-up does not pay for the import
        for pid, r in pending.items():
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """UTF-8 CSV, minimal quoting, "\\n" line ends; ``None`` is an empty field."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, doc) -> None:
    """Indented, key-sorted JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_cache(path, fmt: str, version: int, **payload) -> None:
    """Pickle ``payload`` in the ``{"format", "version"}`` envelope of :func:`load_cache`."""
    with open(path, "wb") as fh:
        pickle.dump({"format": fmt, "version": version, **payload}, fh, protocol=4)


# pickle.load on damaged, truncated or foreign bytes: its documented errors,
# plus TypeError and ValueError from malformed opcode arguments.
_UNPICKLING_ERRORS = (pickle.UnpicklingError, AttributeError, EOFError, ImportError,
                      IndexError, TypeError, ValueError)


def load_cache(path, fmt: str, version: int, stage: str) -> dict:
    """Unpickle a ``{"format": fmt, "version": version, ...}`` stage cache.

    A damaged file, another format or another version raises DataError
    naming ``stage`` as the one to rerun.
    """
    rerun = f"rerun '{stage}'"
    with open(path, "rb") as fh:
        try:
            payload = pickle.load(fh)
        except _UNPICKLING_ERRORS as exc:
            raise DataError(f"unreadable {stage} cache {path} ({exc!r}); {rerun}") from exc
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise DataError(f"not a {stage} cache: {path}; {rerun}")
    if payload.get("version") != version:
        raise DataError(f"unsupported {stage} cache version {payload.get('version')!r} "
                        f"in {path}; {rerun}")
    return payload


def save_arrays(path, fmt: str, version: int, **arrays) -> None:
    """``np.savez`` of ``arrays`` plus the ``format``/``version`` entries of
    :func:`load_arrays`; it dates every zip entry 1980-01-01, so equal arrays
    give equal bytes whenever they are written."""
    with open(path, "wb") as fh:
        np.savez(fh, format=np.array(fmt), version=np.array(version, dtype=np.int64), **arrays)


def load_arrays(path, fmt: str, version: int, stage: str) -> dict[str, np.ndarray]:
    """Every array of a :func:`save_arrays` cache, read without unpickling.

    A damaged file, an object array, another format or another version
    raises DataError naming ``stage`` as the one to rerun.
    """
    rerun = f"rerun '{stage}'"
    try:
        with np.load(path, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
    # np.load yields an ndarray, not a context manager, for a bare .npy file
    except (OSError, EOFError, ValueError, zipfile.BadZipFile, AttributeError,
            TypeError) as exc:
        raise DataError(f"unreadable {stage} cache {path} ({exc!r}); {rerun}") from exc
    if "format" not in arrays or arrays["format"].tolist() != fmt:
        raise DataError(f"not a {stage} cache: {path}; {rerun}")
    found = arrays["version"].tolist() if "version" in arrays else None
    if found != version:
        raise DataError(f"unsupported {stage} cache version {found!r} in {path}; {rerun}")
    return arrays
