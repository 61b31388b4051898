"""Exception types shared across the package."""

from __future__ import annotations


class FusionError(Exception):
    """Base class for all errors raised by this package."""


class InvalidRank(FusionError):
    """Rank outside the allowed range for the requested family."""


class AlgebraMismatch(FusionError):
    """A weight has the wrong number of labels for its algebra."""


class NotARoot(FusionError):
    """A weight was required to be a root of the algebra but is not."""


class LevelTooSmall(FusionError):
    """The level is below the domain floor of the requested quantity."""


class LevelMismatch(FusionError):
    """An affine weight's labels, weighted by the comarks, do not sum to its level."""


class NoClosedForm(FusionError):
    """No closed-form tadpole polynomial exists for this algebra."""
