"""Exception types shared across the package."""


class CmselectError(Exception):
    """Base class for all package-specific errors."""


class DegenerateColumn(CmselectError):
    """A moment column has zero sample variance, so studentization is undefined."""

    def __init__(self, column: int, message: str | None = None):
        self.column = column
        super().__init__(message or f"column {column} has zero sample variance")


class NotPositiveDefinite(CmselectError):
    """A matrix required to be positive definite failed its Cholesky factorization."""


class SingularCovariance(CmselectError):
    """The (adjusted) covariance sub-block is numerically singular."""


class QPNoConvergence(CmselectError):
    """The nonnegative-orthant quadratic program exceeded its iteration cap."""


class NoConvergence(CmselectError):
    """An iterative solver exceeded its iteration cap with residual above tolerance."""


class DomainError(CmselectError):
    """An argument lies outside the mathematical domain of the requested operation."""


class MissingTable(CmselectError):
    """A procedure requiring external lookup tables was invoked without them."""


class MissingBaseline(CmselectError):
    """A correction was requested before its baseline quantity was computed."""


class TooManyDegenerate(CmselectError):
    """More than the tolerated share of bootstrap replicates were degenerate."""

    def __init__(self, skipped: int, total: int):
        self.skipped = skipped
        self.total = total
        super().__init__(f"{skipped} of {total} bootstrap replicates had a degenerate column")


class CsvFormatError(CmselectError):
    """A CSV input could not be parsed; row and column identify the offender."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        self.row = row
        self.column = column
        super().__init__(message)
