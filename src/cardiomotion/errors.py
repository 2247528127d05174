"""Shared exception types.

The two that carry fields pickle by those fields, so that an error raised
in a worker process reaches its parent with the same message and fields.
"""


class IntegrationDivergedError(RuntimeError):
    """A time integration produced non-finite values.

    Carries the zero-based step index at which divergence was detected.
    """

    def __init__(self, step: int, what: str = "integration"):
        self.step = step
        self.what = what
        super().__init__(f"{what} diverged (non-finite values) at step {step}")

    def __reduce__(self):
        return type(self), (self.step, self.what)


class ContainerFormatError(ValueError):
    """A container file is malformed.  Carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        self.message = message
        self.offset = offset
        super().__init__(f"{message} (at byte offset {offset})")

    def __reduce__(self):
        return type(self), (self.message, self.offset)


class ConfigError(ValueError):
    """A configuration document is invalid (unknown key, bad value)."""
