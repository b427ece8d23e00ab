"""Exception types shared across the package."""

__all__ = [
    "CrossbatchError",
    "InsufficientSamples",
    "DimensionMismatch",
    "ShapeMismatch",
    "InvalidConfig",
    "NonFiniteInput",
    "FormatError",
    "NonFiniteLoss",
]


class CrossbatchError(Exception):
    """Base class for all errors raised by this package."""


class InsufficientSamples(CrossbatchError):
    """An operation needed more rows than it was given."""


class DimensionMismatch(CrossbatchError):
    """Embedding dimensions of two inputs disagree."""


class ShapeMismatch(CrossbatchError):
    """An array has the wrong shape for the requested operation."""


class InvalidConfig(CrossbatchError):
    """A configuration value violates its documented range."""


class NonFiniteInput(CrossbatchError):
    """Input data contains NaN or infinity."""


class FormatError(CrossbatchError):
    """A file failed to parse. Carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class NonFiniteLoss(CrossbatchError):
    """Training produced a NaN or infinite loss. Carries the step index."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step
