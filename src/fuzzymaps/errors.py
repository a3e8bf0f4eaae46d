"""Exception hierarchy shared across the package."""


class FuzzyMapsError(Exception):
    """Base class for every error raised by this package."""


class PartitionError(FuzzyMapsError, ValueError):
    pass


class EmptyPartition(PartitionError):
    pass


class NonPositiveBlock(PartitionError):
    pass


class CutOutOfRange(PartitionError):
    pass


class DuplicateCut(PartitionError):
    pass


class BlockIndexOutOfRange(FuzzyMapsError, IndexError):
    pass


class DimensionMismatch(FuzzyMapsError, ValueError):
    pass


class IndexOutOfRange(FuzzyMapsError, IndexError):
    pass


class StepLimitExceeded(FuzzyMapsError, RuntimeError):
    """The iteration cap was hit before a seed-side state recurred.

    Every run recurs eventually, but a side of n binary nodes has 2^n
    states, so on a large model a run may not recur within any practical
    cap.  This is an outcome of the model, not a fault: raise ``max_steps``
    (``--max-steps`` on the command line) to run longer.
    """


class StateSpaceTooLarge(FuzzyMapsError, ValueError):
    pass


class UnknownLabel(FuzzyMapsError, ValueError):
    pass


class WrongSide(FuzzyMapsError, ValueError):
    pass


class UnknownFixture(FuzzyMapsError, KeyError):
    pass


class ModelSyntaxError(FuzzyMapsError, ValueError):
    """The document is not even well-formed JSON."""


class ModelSchemaError(FuzzyMapsError, ValueError):
    """The document is JSON but its shape does not match the format."""


class ModelValidationError(FuzzyMapsError, ValueError):
    """The document parses but the model it describes is inconsistent."""
