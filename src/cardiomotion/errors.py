"""Shared exception types."""


class IntegrationDivergedError(RuntimeError):
    """A time integration produced non-finite values.

    Carries the zero-based step index at which divergence was detected.
    """

    def __init__(self, step: int, what: str = "integration"):
        self.step = step
        super().__init__(f"{what} diverged (non-finite values) at step {step}")


class ContainerFormatError(ValueError):
    """A container file is malformed.  Carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at byte offset {offset})")


class ConfigError(ValueError):
    """A configuration document is invalid (unknown key, bad value)."""
