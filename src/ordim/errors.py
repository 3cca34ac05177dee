"""Exception hierarchy shared by all modules."""


class OrdimError(Exception):
    """Base class for all library errors."""


class CycleError(OrdimError):
    """The input relation contains a directed cycle of distinct elements."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"relation has a cycle: {self.cycle}")


class AxiomViolation(OrdimError):
    """A set family failed one of the three convex geometry axioms.

    axiom is one of 'base', 'intersection', 'extension'; witness is the
    offending set (or pair of sets) in 1-based element notation.
    """

    def __init__(self, axiom, witness, message=None):
        self.axiom = axiom
        self.witness = witness
        super().__init__(message or f"{axiom} axiom violated, witness: {witness}")


class GroundMismatch(OrdimError):
    """Operands live on different ground sets."""


class ParamRange(OrdimError):
    """A constructor parameter is outside its documented range."""


class MalformedCertificate(OrdimError):
    """A certificate does not have the shape the verifier expects."""


class BudgetExceeded(OrdimError):
    """A solver ran out of search nodes.

    Carries the best bounds known at the point of interruption.
    """

    def __init__(self, message, lower=None, upper=None, partial=None):
        self.lower = lower
        self.upper = upper
        self.partial = partial
        super().__init__(message)


class TooManyExtensions(OrdimError):
    """The linear-extension machinery would exceed its size cap."""


class NotDistinguishing(OrdimError):
    """The sequence fails the distinguishing condition for P(k,n)."""


class InvalidRealizer(OrdimError):
    """A realizer passed as input does not verify."""


class MaxTriesExceeded(OrdimError):
    """The randomized builder gave up after the configured retries."""
