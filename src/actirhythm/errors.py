"""Exception hierarchy.

DataError subclasses indicate problems with user-supplied data and map to
exit code 2 in the CLI; UsageError maps to exit code 1; anything else is an
internal error (exit 3). NumericFailure (the fitter breaking down on one
subject's data) is a DataError, so the per-subject loop skips that subject
rather than abort the cohort.
"""


class ActirhythmError(Exception):
    pass


class UsageError(ActirhythmError):
    pass


class DataError(ActirhythmError):
    pass


# ingest
class MalformedRow(DataError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class NonMonotonicTime(DataError):
    pass


class IrregularEpoch(DataError):
    pass


class NegativeCount(DataError):
    pass


class IncompatibleEpoch(DataError):
    pass


class DuplicateSubject(DataError):
    pass


class UnknownGroup(DataError):
    pass


class InvalidSpec(DataError):
    pass


# preprocess
class NotMinuteEpoch(DataError):
    pass


class InsufficientData(DataError):
    pass


class CountOverflow(DataError):
    pass


class IncompleteDays(DataError):
    pass


# features
class BothZero(DataError):
    pass


# nls
class NumericFailure(DataError):
    pass


class RankDeficient(NumericFailure):
    pass


class NonFiniteResidual(NumericFailure):
    pass


class SingularNormalMatrix(NumericFailure):
    pass


# report
class MisalignedSeries(DataError):
    pass


class TooFewGroups(InsufficientData):
    """Fewer than two groups survived a run; ``skipped`` holds the
    (subject_id, group, reason) rows of the subjects that did not."""

    def __init__(self, skipped):
        self.skipped = skipped
        super().__init__("fewer than 2 groups survived preprocessing")
