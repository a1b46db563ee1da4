"""Exception hierarchy shared by all bdspace modules."""


class BDSpaceError(Exception):
    """Base class for all library errors."""


class InputError(BDSpaceError):
    """An input file, option value or chain description is malformed."""


class InvariantViolation(BDSpaceError):
    """A stored record breaks an invariant its construction established."""


def require(ok, message):
    """Raise InvariantViolation(message) unless ok; python -O keeps it."""
    if not ok:
        raise InvariantViolation(message)


# -- schedules ---------------------------------------------------------------

class ScheduleViolation(BDSpaceError):
    """Parameter lists satisfy neither the admissible nor the toy invariants."""


class IndexOutOfSchedule(BDSpaceError):
    """A weight index j exceeds the length of the schedule."""


# -- registry ----------------------------------------------------------------

class UnknownGamma(BDSpaceError):
    """Reference to an element id that was never interned."""


class AgeOverflow(BDSpaceError):
    """A chain grew past the age cap n_j for its weight."""


class WeightMismatch(BDSpaceError):
    """Type-2 element whose weight differs from its predecessor's."""


class OddWeightRuleViolation(BDSpaceError):
    """An odd-weight element breaks the coding rules for its payload."""


class SupportOutOfWindow(BDSpaceError):
    """Payload support leaves the window Gamma_{rank-1} \\ Gamma_cut."""


class StageOverflow(BDSpaceError):
    """An operation needs a stage that was never materialized."""


class BaseHasNoAnalysis(BDSpaceError):
    """Evaluation analyses exist for Type1/Type2 elements only."""


# -- generation --------------------------------------------------------------

class NetTooLarge(BDSpaceError):
    """Net enumeration exceeds the configured cap."""


class CombinatorialBlowup(BDSpaceError):
    """Stage generation exceeds the element cap; the message names the
    family being emitted."""


class CutTooSmall(BDSpaceError):
    """First cut of a forged chain is below the weight index bound."""


# -- norms / analysis --------------------------------------------------------

class EmptySupport(BDSpaceError):
    """A vector with empty support where a nonzero one is required."""


class BruteForceCapExceeded(BDSpaceError):
    """A brute-force enumeration requested above its cap."""


class NotBlockSequence(BDSpaceError):
    """Ranges are not successive disjoint rank intervals."""


class NotSkippedBlock(BDSpaceError):
    """Consecutive ranges leave no gap to place a cut."""


class SearchExhausted(BDSpaceError):
    """A constructive search ran out of candidates at the current stage."""


class AnnihilatorMissing(BDSpaceError):
    """No net functional annihilating the given block could be found."""


class NotCertifiedRIS(BDSpaceError):
    """A construction requires a certificate that did not pass."""
