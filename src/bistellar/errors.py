"""Exception hierarchy for the bistellar library."""


class BistellarError(Exception):
    """Base class for all library errors."""


class DuplicateVertexInFacet(BistellarError):
    pass


class FacetContainment(BistellarError):
    pass


class SimplexNotInComplex(BistellarError):
    pass


class NotPseudomanifold(BistellarError):
    pass


class NonOrientable(BistellarError):
    pass


class InvalidMove(BistellarError):
    pass


class SphereCheckFailed(BistellarError):
    pass


class DimensionTooSmall(BistellarError):
    pass


class BudgetExhausted(BistellarError):
    """Raised when a reduction search ran out of budget.

    Carries the best partial state reached so the caller can diagnose or resume.
    """

    def __init__(self, message, best_state=None, moves_done=None):
        super().__init__(message)
        self.best_state = best_state
        self.moves_done = moves_done


class NotClosedManifold(BistellarError):
    pass


class NotClosedCycle(BistellarError):
    pass


class NotACycle(BistellarError):
    pass


class NotApplicable(BistellarError):
    """Commutation-cycle preconditions fail for the requested pair."""


class ClosureFailure(BistellarError):
    pass


class UnrecognizedConfiguration(BistellarError):
    """A candidate cycle matches none of the catalogued local configurations."""


class InvalidParams(BistellarError):
    pass


class DecompositionStuck(BistellarError):
    """No catalogued elementary cycle applies to the residual chain.

    Indicates a classification gap; ``residual`` carries the stuck chain for
    diagnosis.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
