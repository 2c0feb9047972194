"""Exception taxonomy shared across the package.

The package raises one exception type per kind of ``error: <kind>:``
line that the CLI prints:

    ValidationError     validation   exit 2   bad input: shapes, ranges,
                                              grids, malformed files or configs
    DegenerateFitError  degenerate   exit 3   empty retained spectrum,
                                              exhausted degrees of freedom,
                                              zero normalizer

A finer failure kind, should one be needed, is an attribute of the one
type, not a subclass.
"""


class FunregError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FunregError):
    """Bad user input: shapes, ranges, grids, malformed files or configs."""


class DegenerateFitError(FunregError):
    """The requested computation is mathematically degenerate.

    Raised when the threshold removes every eigenvalue, when degrees of freedom
    are exhausted (d_n >= n, or n - 1 in a centered fit), or when a fixed
    predictor is orthogonal to the retained eigenspace (zero normalizer).
    """
