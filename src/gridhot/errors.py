"""Exception types shared across the package, and the check run by validated records."""

from __future__ import annotations


class Checked:
    """Mixin that runs ``_check()`` on every new instance of a named tuple.

    List it ahead of the NamedTuple base that holds the fields.
    ``_make``, and so ``_replace``, go through the same check.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class GridhotError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GridhotError):
    """A line or document failed to parse.

    Carries the file path and, for line-oriented inputs, the 1-based line
    number of the offending record.
    """

    def __init__(self, message: str, path=None, line_no: int | None = None):
        self.path = path
        self.line_no = line_no
        where = ""
        if path is not None:
            where = str(path) if line_no is None else f"{path}:{line_no}"
            where = f" ({where})"
        super().__init__(f"{message}{where}")


class UnreadableInputError(GridhotError):
    """An input file is not UTF-8 text or not a whole gzip stream."""


class UnsupportedGeometryError(ParseError):
    """A grid feature uses a geometry type other than Polygon."""


class DomainError(GridhotError):
    """A precondition on input data or parameters was violated."""


class EmptyInputError(DomainError):
    """An operation that needs data received an empty aggregate."""


class CalibrationError(DomainError):
    """The requested hotspot count cannot be reached for this data."""

    def __init__(self, message: str, max_achievable: int):
        self.max_achievable = max_achievable
        super().__init__(message)


class WorkerError(GridhotError):
    """A forked worker stopped before it delivered its share of a computation."""


class ConvergenceError(GridhotError):
    """An iterative solver did not converge within its iteration budget."""

    def __init__(self, message: str, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(message)
