"""Exception types raised across the package."""


class ShamansError(Exception):
    """Base class for all package-specific errors."""


class SingularSystem(ShamansError):
    """A symmetric factorization hit a pivot too small to trust.

    Raised only by densela.spd_factor, on a (numerically) rank-deficient
    support; ``matrices`` lists the singular positions of a stack.
    """

    def __init__(self, message, matrices=None):
        super().__init__(message)
        self.matrices = matrices


class IterationLimit(ShamansError):
    """The active-set solver exceeded its pivot budget.

    ``row`` is the right-hand side's row in the solver's block and
    ``column`` its data column, where the caller knows it.
    """

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class DimensionMismatch(ShamansError):
    """Operand shapes are incompatible."""


class ZeroColumnInDictionary(ShamansError):
    """The dictionary contains an all-zero column."""


class ZeroDataMatrix(ShamansError):
    """Metrics were requested for an all-zero data matrix."""


class MissingZeroEntry(ShamansError):
    """A regularization path lacks its leading zero-solution entry."""


class ShapeMismatch(ShamansError):
    """Image dimensions do not match the number of matrix columns."""


class CsvError(ShamansError):
    """Base class for matrix-file parsing errors; carries file position."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ParseError(CsvError):
    """A token could not be parsed as a real number."""


class RaggedRows(CsvError):
    """Rows of a matrix file have differing lengths."""


class NonFiniteEntry(CsvError):
    """A matrix entry is NaN or infinite."""


class NegativeEntry(CsvError):
    """A matrix entry is negative; input data must be nonnegative."""
