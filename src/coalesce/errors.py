"""Exception types shared across the library."""


class CoalesceError(Exception):
    """Base class for all errors raised by this package."""


class MalformedRational(CoalesceError):
    """Not an exact rational: text that is not an integer or p/q, or a
    matrix entry that is neither an int nor a Fraction."""


class EntryOutOfRange(CoalesceError):
    """A probability entry fell outside [0, 1]."""


class RowSumNotOne(CoalesceError):
    """A matrix row does not sum exactly to one. Carries the 1-based row."""

    def __init__(self, row: int, total):
        self.row = row
        self.total = total
        super().__init__(f"row {row} sums to {total}, expected 1")


class NonSquare(CoalesceError):
    """Matrix rows have inconsistent length or row/column counts differ."""


class NotIrreducible(CoalesceError):
    """Operation requires an irreducible transition matrix."""


class NotDoublyStochastic(CoalesceError):
    """Operation requires a doubly stochastic matrix."""


class DimensionMismatch(CoalesceError):
    """Objects refer to state spaces of different sizes."""


class NotationError(CoalesceError):
    """Malformed map-function or partition notation."""


class CouplingFormatError(CoalesceError):
    """A coupling file violated the JSON schema or its invariants."""


class SupportTooLarge(CoalesceError):
    """Expanding a support would exceed the configured cap."""


class ClosureTooLarge(CoalesceError):
    """A closure walk exceeded its cap: partition pullbacks for the orbit of
    close (and limiting_partitions), state pairs for the coalescence number."""


class NotADivisor(CoalesceError):
    """Requested block count does not divide the number of states."""


class BlockConditionsFail(CoalesceError):
    """Partition is not lumpable or its block matrix is not doubly stochastic;
    lumped is the NotLumpable certificate or that matrix."""

    def __init__(self, message: str, lumped):
        self.lumped = lumped
        super().__init__(message)


class TooManyStates(CoalesceError):
    """State count exceeds what this operation is willing to render."""


class BudgetExceeded(CoalesceError):
    """Exhaustive enumeration would exceed the configured subset cap."""


class InvalidOption(CoalesceError):
    """A command-line option value lies outside the range it accepts."""


class NotText(CoalesceError):
    """An input file is not UTF-8 text."""
