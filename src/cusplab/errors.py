"""Exception types shared across the package."""


class CusplabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CusplabError, ValueError):
    """A parameter lies outside its mathematical domain."""


class ConfigError(CusplabError, ValueError):
    """A configuration file or dictionary is malformed or inconsistent."""


class NumericalDegeneracyError(CusplabError, RuntimeError):
    """A computation degenerated numerically (underflow, empty posterior, ...)."""


class ConditionViolationError(CusplabError, RuntimeError):
    """A structural assumption fails (non-unique minimizer, non-positive curvature)."""


class ExperimentError(CusplabError, RuntimeError):
    """A Monte Carlo run failed a built-in sanity rule."""


class StoppedError(CusplabError, RuntimeError):
    """A computation was stopped on request before it finished."""
