"""Exception hierarchy for the bistellar library."""

from contextlib import contextmanager


class BistellarError(Exception):
    """Base class for all library errors."""

    def diagnostics(self) -> dict:
        """JSON-ready details beyond the message, for error reports."""
        return {}


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

    def diagnostics(self) -> dict:
        out = {}
        if self.moves_done is not None:
            out["moves_done"] = [{"sigma": list(s), "tau": list(t)} for s, t in self.moves_done]
        if self.best_state is not None:
            out["best_state_vertices"] = len(self.best_state.vertices)
        return out


class NotClosedManifold(BistellarError):
    pass


class NotACycle(BistellarError):
    pass


class NotApplicable(BistellarError):
    """Commutation-cycle preconditions fail for the requested pair."""


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

    def diagnostics(self) -> dict:
        return {} if self.residual is None else {"residual": self.residual.to_json()}


class MalformedInput(BistellarError):
    """An input file or document does not parse."""


@contextmanager
def parsing(source: str):
    """Turn a parse failure of ``source`` inside the block into MalformedInput;
    a zero denominator is one."""
    try:
        yield
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise MalformedInput(f"{source}: {exc}") from exc
