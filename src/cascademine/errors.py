"""Exceptions shared across pipeline stages, mapped to CLI exit codes."""


class ConfigError(Exception):
    """Bad configuration value or unparseable config file (exit code 1)."""


class MissingStageError(Exception):
    """A required upstream stage cache is absent (exit code 2)."""

    def __init__(self, stage: str, path):
        super().__init__(f"missing output of stage '{stage}': {path} (run '{stage}' first)")


class DataError(Exception):
    """Input data unusable: missing file, zero valid records, etc. (exit code 3)."""
