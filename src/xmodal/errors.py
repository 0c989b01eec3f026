"""Exceptions shared across modules, mapped to CLI exit codes in cli.py."""


class ConfigError(ValueError):
    """Bad or unknown configuration key/value (exit code 2)."""


class FormatError(ValueError):
    """Malformed file content: PPM, EMB1, corpus, checkpoint (exit code 3)."""


class MissingDependencyError(RuntimeError):
    """A required prerequisite checkpoint is absent (exit code 4)."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss (exit code 5).

    `last_good` holds the (name, array) pairs of the last finite-loss
    parameters, or None when no snapshot applies.
    """

    def __init__(self, message: str, last_good=None):
        super().__init__(message)
        self.last_good = last_good
