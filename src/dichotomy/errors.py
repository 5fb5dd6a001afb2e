"""Exception hierarchy for the dichotomy package."""


class DichotomyError(Exception):
    """Base class for all errors raised by this package."""


class IndexOrderError(DichotomyError):
    """A pair (m, n) or triplet (m, n, p) violates the required ordering."""


class OutOfRangeError(DichotomyError):
    """A coefficient A(n) was requested outside the declared index range."""


class DenseOverflowError(DichotomyError):
    """A dense evolution product left the double-precision range.

    Systems with extreme growth must be declared in diagonal closed form,
    where all magnitudes stay in the log domain.
    """


class LogOverflowError(DichotomyError):
    """A log-magnitude of a diagonal product left the double-precision range."""


class InvalidProjectionError(DichotomyError):
    """A projection matrix has a non-finite entry or is not idempotent."""


class IncompatibleProjectionError(DichotomyError):
    """The projection family does not commute with the dynamics on the window."""


class DegenerateRangeError(DichotomyError):
    """A restricted extreme was requested over a trivial subspace."""


class InvalidCertificateError(DichotomyError):
    """Certificate constants violate the invariants of their kind."""


class EmptyFeasibleSetError(DichotomyError):
    """No grid point satisfies the requested admissibility constraints."""


class NoDecayCertificateError(DichotomyError):
    """Tail accounting needs a decay certificate with rate above the weight."""


class DecayGapError(DichotomyError):
    """Constant mapping requires d strictly below the certificate rate alpha."""


class InvalidConstantsError(DichotomyError):
    """Summation-criterion constants violate an admissibility gate."""


class ScheduleOutOfRangeError(DichotomyError):
    """A witness schedule produced an index pair outside the scanned range."""


class UnknownExampleError(DichotomyError):
    """No built-in example with the requested name."""


class ParamOutOfRangeError(DichotomyError):
    """A built-in example parameter lies outside its admissible range."""


class ConfigError(DichotomyError):
    """A configuration file or CLI argument could not be interpreted."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if field is not None:
            prefix += f"field {field!r}: "
        super().__init__(prefix + message)
