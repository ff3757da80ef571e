"""Exception hierarchy.

``DataError`` covers everything a malformed dataset or assignment can
trigger; ``EstimationError`` covers numeric failures on well-formed input.
The CLI maps the two families to distinct exit statuses.
"""


class PairClusterError(Exception):
    """Base class for all package errors."""


class DataError(PairClusterError, ValueError):
    """Invalid dataset, assignment, or input file."""


class EmptyInput(DataError):
    """No data rows were supplied."""


class NonBinaryTreatment(DataError):
    """A treatment value is outside {0, 1}."""


class MixedTreatmentWithinUnit(DataError):
    """Rows of a single randomization unit disagree on treatment."""


class DegeneratePair(DataError):
    """A pair/stratum has no within-block treatment contrast."""


class NotPaired(DataError):
    """An operation requiring exactly two units per pair saw another count."""


class StratumTooSmall(DataError):
    """A stratum has fewer than two randomization units."""


class AssignmentMismatch(DataError):
    """An Assignment does not cover exactly the units of the dataset."""


class ParseError(DataError):
    """A CSV file could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EstimationError(PairClusterError, ValueError):
    """Numeric failure during estimation or inference."""


class NoVariationInTreatment(EstimationError):
    """All observations share one treatment status."""


class ZeroVariance(EstimationError):
    """A variance estimate is zero (or negative); the t-statistic is undefined."""


class ReplicationError(PairClusterError, RuntimeError):
    """A Monte Carlo replication failed; carries the replication index."""

    def __init__(self, index, cause):
        self.index = index
        self.cause = cause
        super().__init__(f"replication {index} failed: {cause}")

    def __reduce__(self):
        # Rebuilt from both fields, so the error survives the trip back from a worker.
        return type(self), (self.index, self.cause)
