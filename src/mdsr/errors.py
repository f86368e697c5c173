"""Exception hierarchy shared by all mdsr modules."""


class MdsrError(Exception):
    """Base class for all library errors."""


class ValidationError(MdsrError):
    """Input data violates an invariant."""


class CycleDetected(ValidationError):
    """Order pairs imply v > v after transitive closure."""


class DuplicateContradiction(ValidationError):
    """Both (a, b) and (b, a) were supplied as order pairs."""


class SizeMismatch(ValidationError):
    """Two tuple-sets of different cardinality were compared."""


class SelfInclusion(ValidationError):
    """A tuple-set offered to an agent contains that agent."""


class UnacceptableSet(ValidationError):
    """A tuple-set outside the agent's acceptable sets was used."""


class InsufficientAgents(ValidationError):
    """Not enough agents remain to form a tuple-set."""


class TooLarge(MdsrError):
    """An enumeration guard was exceeded."""


class NotStrictOrder(MdsrError):
    """The master poset is not a total order."""


class IncompletePreferences(MdsrError):
    """A solver that needs complete preferences got an incomplete instance."""


class PreconditionViolated(MdsrError):
    """A solver was called outside its guaranteed parameter range."""


class CertificateFailure(MdsrError):
    """An internal certificate check failed; indicates a bug."""


class MalformedFormula(ValidationError):
    """A 1-in-3 formula violates its occurrence or clause constraints."""


class InvalidAssignment(ValidationError):
    """A truth assignment does not satisfy exactly one literal per clause."""


class NotWellFormed(MdsrError):
    """A matching is inconsistent with the structure of a reduction."""


class MalformedSmti(ValidationError):
    """A marriage instance violates its master-list constraints."""


class NotPerfect(ValidationError):
    """A marriage matching leaves some agent unmatched."""


class NotStable(ValidationError):
    """A marriage matching admits a blocking pair."""


class BudgetExceeded(MdsrError):
    """No agent subset within the deletion budget works."""


class ParseError(MdsrError):
    """A document or formula could not be parsed."""
