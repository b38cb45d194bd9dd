"""Exception hierarchy. Everything user-facing derives from StreamError."""


class StreamError(Exception):
    pass


class UnknownPoint(StreamError, KeyError):
    """A point name outside the relevant carrier or point set."""

    def __str__(self):
        return Exception.__str__(self)


class CarrierMismatch(StreamError):
    """Operands whose carriers or spaces were required to agree do not."""


class InvalidPreorder(StreamError):
    """Pair data that is not reflexive and transitive where required."""


class MissingPoint(StreamError):
    """A table that fails to cover every point of the space."""


class NotMinimal(StreamError):
    """A minimal-open table violating nesting; carries the offending pair."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class InvalidPartition(StreamError):
    """Classes that are empty, overlapping, or fail to cover the points."""


class NotOpen(StreamError):
    """A point set that is not open in the relevant topology."""


class NotContinuous(StreamError):
    """A point map whose preimages of opens are not all open."""


class NotStreamMap(StreamError):
    """A continuous map that fails to preserve some open's order."""


class NotAntisymmetric(StreamError):
    """A preorder required to be a partial order is not."""


class NotRelated(StreamError):
    """A witness requested for a pair that the order does not relate."""


class NotACover(StreamError):
    """Chart family that fails to cover the space."""


class ChartNotPartialOrder(StreamError):
    """An atlas chart whose order is not a partial order."""


class IncompatibleCharts(StreamError):
    """Atlas charts that disagree on a shared minimal open."""


class IllTypedDiagram(StreamError):
    """Diagram arrows whose endpoints or maps do not type-check."""


class FormatError(StreamError):
    """Malformed interchange data."""


class InvalidSize(StreamError, ValueError):
    """A model size outside the range the model is defined for."""
