"""Exception types shared across the library."""


class SeqjdeError(Exception):
    """Base class for all library errors."""


class InvalidCosts(SeqjdeError):
    """Cost weights make the decision problem degenerate (c0 = 0, or c1 = ce = 0)."""


class InfeasibleConstraint(SeqjdeError):
    """The combined-cost constraint level is not a positive finite number."""


class QuadratureNonConvergence(SeqjdeError):
    """Adaptive quadrature exhausted its refinement budget before reaching tolerance."""


class NumericalError(SeqjdeError):
    """A numerical result cannot be computed or trusted.

    Raised where a bracketing or bisection search fails to converge, where a
    margin root or G is not finite, where an energy lies outside the log
    domain of the margin equation, and where C is too small for its target to
    determine a threshold.
    """


class ChannelFileError(SeqjdeError):
    """A channel file is missing, unparseable, or too short."""


class HorizonExhausted(SeqjdeError):
    """The running channel energy never crossed the threshold within the horizon.

    Signals that the realized gain path carried too little energy for the
    configured ``t_max``; the infinite-energy assumption on the channel
    process does not hold at this horizon.
    """

    def __init__(self, message: str, t: int, U: float, gamma: float):
        super().__init__(message)
        self.t = t
        self.U = U
        self.gamma = gamma
