"""Exception types shared across the package."""


class BraidsubError(Exception):
    """Base class for errors raised by this package."""


class ParseError(BraidsubError, ValueError):
    """Malformed word, template, or presentation text."""


class CyclicSubstitution(BraidsubError):
    """A replacement word mentions the symbol being replaced."""


class BadRank(BraidsubError):
    """Group rank outside the supported range."""


class EmptyWindow(BraidsubError):
    """Integer window [lo, hi] with lo > hi."""


class WindowTooNarrow(BraidsubError):
    """Window admits no instance of a required template."""


class ForeignSymbol(BraidsubError):
    """A word mentions symbols outside the expected alphabet."""


class NotInKernel(BraidsubError):
    """Input word does not lie in the derived subgroup."""


class NotSolvable(BraidsubError):
    """A relator cannot be solved for the requested generator."""


class ScriptPreconditionFailed(BraidsubError):
    """A preset simplification script met an unexpected presentation."""


class ParametricInput(BraidsubError):
    """A concrete-only operation received a parametric object."""


class ShapeMismatch(BraidsubError):
    """Presentation does not have the shape the operation expects."""


class NotConverged(BraidsubError):
    """A normalisation did not reach its fixpoint within its bound."""
