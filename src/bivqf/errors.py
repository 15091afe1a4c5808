"""Exception hierarchy for the bivqf package."""


class BivqfError(Exception):
    """Base class for all package errors."""


class DomainError(BivqfError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConvergenceError(BivqfError, RuntimeError):
    """An iterative scheme hit its iteration cap before converging."""


class QuadratureError(ConvergenceError):
    """A fixed Gauss rule gave up past MAX_RULE_NODES nodes short of the tolerance."""


class BracketError(ConvergenceError):
    """A root could not be bracketed within the allowed search range."""


class InfeasibleRegionError(BivqfError, ValueError):
    """Fitted parameters fall outside the existence region of the family."""


class SingularSystemError(BivqfError, ValueError):
    """The moment-matching system is singular for the given ratios."""


class DivergentMomentError(BivqfError, ValueError):
    """A requested moment does not exist for the given parameters."""


class UnsupportedCaseError(BivqfError, ValueError):
    """The catalog entry does not provide the requested closed form."""


class InsufficientDataError(BivqfError, ValueError):
    """Not enough observations for the requested estimator."""


class ParseError(BivqfError, ValueError):
    """Input data could not be parsed."""
