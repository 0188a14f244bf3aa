"""Shared exception types.  Each carries the process exit code used by the CLI."""


class LsrigidError(Exception):
    exit_code = 1


class ValidationError(LsrigidError):
    """A structure, graph or config failed validation.  May carry a counterexample."""

    exit_code = 2

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


class ResourceCapError(LsrigidError):
    """An enumeration would exceed the configured object cap."""

    exit_code = 3

    def __init__(self, message, requested=None, cap=None):
        super().__init__(message)
        self.requested = requested
        self.cap = cap


class NotFoundError(LsrigidError):
    """A bounded search (loop representative, witness occurrence) ran out of horizon."""

    exit_code = 4

    def __init__(self, message, horizon=None):
        super().__init__(message)
        self.horizon = horizon


class ConvergenceError(LsrigidError):
    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class StageError(LsrigidError):
    """Pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage, cause):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
        self.exit_code = getattr(cause, "exit_code", 1)
