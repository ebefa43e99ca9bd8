"""Run configuration: one dataclass, loadable from a key=value file.

The config file is plain text, one ``key = value`` per line, ``#`` comments
allowed; keys match the RunConfig field names. Command-line flags override
file values, and every stage reads only from the resulting RunConfig so a run
is reproducible from (input files, config, seed) alone.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from cascademine.errors import ConfigError


@dataclass
class RunConfig:
    # dataset inputs
    business_path: str | None = None
    user_path: str | None = None
    review_path: str | None = None
    tip_path: str | None = None
    cache_dir: str = "cache"
    # cascade construction
    window_days: int | None = None  # None = unlimited influence window
    # census
    census_max_rank: int = 10
    node_cap: int = 10
    purity_samples: int = 50
    # stats
    top_k_longest: int = 3
    # labeling / features
    k: int = 5
    percentile: float = 90.0
    min_big_cascades: int = 50
    # learners
    n_trees: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    min_leaf: int = 5
    l1: float = 1e-4
    l2: float = 1e-3
    logreg_epochs: int = 500
    folds: int = 5
    # global
    seed: int = 0

    def validate(self) -> None:
        if self.window_days is not None and self.window_days <= 0:
            raise ConfigError("window_days must be positive when set")
        for name in ("census_max_rank", "node_cap", "purity_samples", "top_k_longest",
                     "max_depth", "min_leaf", "logreg_epochs"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.k < 2:
            raise ConfigError("k must be at least 2")
        if not 50.0 < self.percentile < 100.0:
            raise ConfigError("percentile must lie in (50, 100)")
        if self.min_big_cascades < 1:
            raise ConfigError("min_big_cascades must be at least 1")
        if self.folds < 2:
            raise ConfigError("folds must be at least 2")
        if self.n_trees < 0:
            raise ConfigError("n_trees must be nonnegative")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError("learning_rate must be in (0, 1]")
        # written so that NaN fails too: every comparison with NaN is false
        if not (0.0 <= self.l1 < math.inf and 0.0 <= self.l2 < math.inf):
            raise ConfigError("penalties l1 and l2 must be finite and nonnegative")

    def cache_path(self, name: str) -> Path:
        return Path(self.cache_dir) / name


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def parse_value(key: str, raw: str):
    """A config file's or a flag's text for field ``key``, typed as the field is."""
    ftype = _FIELD_TYPES[key]
    raw = raw.strip()
    if raw.lower() in ("none", ""):
        if not ftype.endswith("| None"):
            raise ConfigError(f"{key}: a value is required, got {raw!r}")
        return None
    if ftype in ("int", "int | None"):
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected integer, got {raw!r}") from exc
    if ftype == "float":
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected number, got {raw!r}") from exc
    return raw


def load_config_file(path) -> dict:
    """Parse a key=value config file into a dict of typed values."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = parse_value(key, raw)
    return values


def build_config(file_path=None, overrides: dict | None = None) -> RunConfig:
    """Merge defaults, config file, and flag overrides (flags win, ``None`` too)."""
    values = {}
    if file_path is not None:
        values.update(load_config_file(file_path))
    values.update(overrides or {})
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    cfg.validate()
    return cfg
