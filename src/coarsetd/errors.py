"""Exception types shared across the package."""


class CoarseTDError(Exception):
    """Base class for all errors raised by this package."""


class EmptySetError(CoarseTDError):
    """An operation received an empty vertex set or an empty graph."""


class TooLargeError(CoarseTDError):
    """Input exceeds the configured cap of an exact solver."""

    def __init__(self, size, cap, what="input"):
        super().__init__(f"{what} has size {size}, exceeding the exact-solver cap {cap}")
        self.size = size
        self.cap = cap
        self.what = what


class MalformedDecompositionError(CoarseTDError):
    """Structural defect in a decomposition: bad node ids, non-tree shape, etc."""


class InvalidDecompositionError(CoarseTDError):
    """A decomposition failed validation against its host graph."""


class DisconnectedError(CoarseTDError):
    """The operation requires connected input graphs."""


class NotWithinError(CoarseTDError):
    """No quasi-isometry constant up to the given maximum works."""

    def __init__(self, qmax):
        super().__init__(f"no constant q <= {qmax} satisfies the quasi-isometry conditions")
        self.qmax = qmax


class CompositionMismatchError(CoarseTDError):
    """Two maps cannot be composed because the middle graphs differ."""


class InvalidMapError(CoarseTDError):
    """A vertex map is not total on its source or maps outside its target."""


class InvalidPartitionError(CoarseTDError):
    """Parts must be non-empty, pairwise disjoint, covering, and connected."""


class BudgetExceededError(CoarseTDError):
    """The achieved partition diameter exceeds the caller's budget."""

    def __init__(self, achieved, budget):
        super().__init__(f"achieved max weak diameter {achieved} exceeds budget {budget}")
        self.achieved = achieved
        self.budget = budget


class PreconditionError(CoarseTDError):
    """A documented operation precondition does not hold."""


class InvalidParamsError(CoarseTDError):
    """Bad parameters for a corpus generator."""


class ParseError(CoarseTDError):
    """Malformed input file."""

    def __init__(self, line, message):
        if line is None:
            super().__init__(message)
        else:
            super().__init__(f"line {line}: {message}")
        self.line = line
