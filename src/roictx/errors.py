"""Exception types shared across the package."""


class RoictxError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(RoictxError, ValueError):
    """Tensor extents are invalid or inconsistent with an operation."""


class FormatError(RoictxError, ValueError):
    """A serialized file (FTEN, RoI CSV, JSON report) is malformed."""


class DegenerateBoxError(RoictxError, ValueError):
    """A box is unusable: zero-size reference, or RoI outside the map."""


class NumericError(RoictxError, ArithmeticError):
    """A computation produced a non-finite value."""


class TrainingError(RoictxError, RuntimeError):
    """Training diverged (non-finite loss or scorer)."""
