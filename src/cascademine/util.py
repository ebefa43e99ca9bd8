"""Small shared helpers: rank statistics, deterministic seed derivation and
versioned cache loading."""

from __future__ import annotations

import hashlib
import math
import pickle
from typing import Sequence

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
