"""Exception types shared across the simulator."""


class ConfigError(ValueError):
    """A configuration file or parameter set violates an invariant."""


class FitError(RuntimeError):
    """A regression cannot be performed on the data provided."""


class ConvergenceError(ArithmeticError):
    """An iterative solver hit its iteration cap before converging."""
