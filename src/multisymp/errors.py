"""Exception types shared across the toolkit."""

__all__ = [
    "ZeroSectionError",
    "OrientationError",
    "UnsupportedDegreeError",
    "DegenerateCellError",
    "InversionError",
    "NotInImageError",
]


class ZeroSectionError(ValueError):
    """Raised when an operation that is undefined on the zero section receives y = 0."""


class OrientationError(ValueError):
    """Raised when a p-vector lies outside the chart of a Lagrangian (its chart coordinate not positive)."""


class UnsupportedDegreeError(ValueError):
    """Raised when decomposability is requested for a degree we do not implement."""


class DegenerateCellError(RuntimeError):
    """Raised when a grid cell has a rank-deficient tangent frame (zero p-vector)."""

    def __init__(self, cell, message=None):
        self.cell = tuple(cell)
        super().__init__(message or f"degenerate cell {self.cell}: tangent p-vector vanishes")


class InversionError(RuntimeError):
    """Raised when the fiberwise gradient map cannot be inverted numerically."""


class NotInImageError(InversionError):
    """Raised when the target covector is not in the image of the gradient map."""
