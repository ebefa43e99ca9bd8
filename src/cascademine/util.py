"""Small shared helpers: rank statistics, deterministic seed derivation, and
the output formats every stage writes through.

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
import pickle
import zipfile
from typing import Iterable, Sequence

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


# pickle.load on damaged or foreign bytes: its documented errors, plus TypeError
# and ValueError from malformed opcode arguments.
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
