"""Exception types shared across the library."""


class SeqjdeError(Exception):
    """Base class for all library errors.

    ``exit_code`` is the command line's exit code for the error and its
    subclasses: 2, a config error, unless a subclass says otherwise.
    """

    exit_code = 2


class ConfigError(SeqjdeError):
    """An input, from a config value to a channel file, is malformed or violates a precondition."""


class QuadratureNonConvergence(SeqjdeError):
    """Adaptive quadrature did not reach its tolerance, or its value is impossible.

    Impossible means below G's infinite-energy limit, a lower bound of the
    integral over any region, by more than the error allowance.
    """

    exit_code = 3


class NumericalError(SeqjdeError):
    """A numerical result cannot be computed or trusted.

    Raised where a bracketing or bisection search fails to converge, where a
    margin root or G is not finite, where an energy lies outside the log
    domain of the margin equation, and where C is too small for its target to
    determine a threshold.
    """

    exit_code = 3


class HorizonExhausted(SeqjdeError):
    """The running channel energy never crossed the threshold within the horizon.

    Signals that the realized gain path carried too little energy for the
    configured ``t_max``; the infinite-energy assumption on the channel
    process does not hold at this horizon.
    """

    exit_code = 4

    def __init__(self, message: str, t: int, U: float, gamma: float):
        super().__init__(message)
        self.t = t
        self.U = U
        self.gamma = gamma
