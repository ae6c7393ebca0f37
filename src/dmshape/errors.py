"""Exception hierarchy shared by all dmshape modules."""


class DmShapeError(Exception):
    """Base class for all dmshape errors."""


class RateInfeasibleError(DmShapeError):
    """The requested (n, k) cannot be realised by the scheme."""


class BinomialBudgetError(RateInfeasibleError):
    """Exact counts that need more binomial work than one pass may spend."""


class ConstructionBugError(DmShapeError):
    """An internal consistency check failed while building a scheme; leaf
    is the stored index of the leaf at fault, or None."""

    def __init__(self, message: str, leaf: int | None = None):
        super().__init__(message)
        self.leaf = leaf


class DegeneratePmfError(DmShapeError):
    """A PMF with zero second moment (or otherwise unusable) was supplied."""


class ModelDomainError(DmShapeError):
    """SNR model evaluated outside its physical domain."""


class CalibrationError(DmShapeError):
    """SNR model calibration failed (singular system or unphysical result)."""


class DecodeError(DmShapeError):
    """A sequence or index cannot be decoded against the given scheme."""


class SchemeFileError(DmShapeError):
    """A scheme file or configuration file could not be parsed."""
