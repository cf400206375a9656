"""The checked inputs shared by all other modules: parameters, cost weights, channel models
and one run's scenario, each a ``Record``.  NumPy-free, so a config is checked before any
array module loads.

The observation model is ``y_t = x * h_t + w_t`` with ``w_t ~ N(0, sigma^2)``;
under the alternative the amplitude follows the Gaussian prior
``x ~ N(mu_x, sigma_x^2)``, under the null ``x = 0``.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import Union


class Hypothesis(enum.Enum):
    H0 = 0
    H1 = 1


def is_finite_real(v) -> bool:
    """True for a finite int or float; bools are not numbers here."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def quoted(value) -> str:
    """``repr(value)`` for a one-line error message, cut to 60 characters and a marker."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


def check_int(name: str, v, low: int, size: bool = False) -> None:
    """ValueError unless ``v`` is an int, not a bool, with ``v >= low``; a ``size``
    must also be a number of doubles whose bytes NumPy can address."""
    if isinstance(v, bool) or not isinstance(v, int) or v < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {quoted(v)}")
    if size and v > sys.maxsize // 8:
        raise ValueError(f"{name} is a size too large to allocate, got {quoted(v)}")


class Record:
    """A checked input: a frozen record whose fields are its class's annotations.

    A subclass's annotations, in order, follow its base's fields, and a class attribute of
    the same name is a field's default.  ``__init__`` binds its arguments as the signature
    ``(self, field, ..., field=default)`` would, with the same TypeErrors, and then runs
    ``__post_init__``, the subclass's checks.  An instance cannot be changed; it is equal
    only to an instance of its own class with equal fields, and its hash and repr are
    those of a frozen dataclass.  ``_fields`` and ``_replace(**changes)`` are named as on
    a NamedTuple, and ``_replace`` runs the checks again.
    """

    _fields = ()
    _names = _required = frozenset()  # the fields, and those without a default

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(vars(cls).get("__annotations__", ()))
        cls._fields += own
        cls._names = frozenset(cls._fields)
        cls._required |= {name for name in own if name not in vars(cls)}

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs) if args else kwargs
        # fewer values than arguments: a field given twice, or surplus positional arguments
        if len(values) < len(args) + len(kwargs) or not (
                self._names >= values.keys() >= self._required):
            raise self._call_error(args, kwargs)
        self.__dict__.update(values)  # a default stays the class attribute
        self.__post_init__()

    def _call_error(self, args: tuple, kwargs: dict) -> TypeError:
        """The TypeError Python raises for this call of ``(self, field, ..., field=default)``."""
        fields = self._fields
        where = f"{type(self).__qualname__}.__init__()"
        for name in kwargs:
            if name not in fields:
                return TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if fields.index(name) < len(args):
                return TypeError(f"{where} got multiple values for argument {name!r}")
        if len(args) > len(fields):  # counted with self, as Python counts them
            most, least = len(fields) + 1, len(self._required) + 1
            takes = most if least == most else f"from {least} to {most}"
            return TypeError(f"{where} takes {takes} positional arguments "
                             f"but {len(args) + 1} were given")
        given = {*fields[:len(args)], *kwargs}
        missing = [repr(name) for name in fields if name in self._required and name not in given]
        names = " and ".join(missing) if len(missing) < 3 else \
            f"{', '.join(missing[:-1])}, and {missing[-1]}"
        return TypeError(f"{where} missing {len(missing)} required positional "
                         f"argument{'s' if len(missing) > 1 else ''}: {names}")

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes):
        """A copy with the named fields changed, checked as a new instance is."""
        return type(self)(**{**self.__dict__, **changes})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ModelParams(Record):
    """Gaussian prior and noise parameters.

    Attributes
    ----------
    mu_x : float
        Prior mean of the amplitude; any finite real.
    sigma_x : float
        Prior standard deviation of the amplitude; strictly positive.
    sigma : float
        Noise standard deviation; strictly positive.  The variances, their
        ratio ``kappa`` and its square must not underflow to 0 or overflow.
    """

    mu_x: float
    sigma_x: float
    sigma: float

    def __post_init__(self):
        for name in ("mu_x", "sigma_x", "sigma"):
            v = getattr(self, name)
            if not is_finite_real(v):
                raise ValueError(f"{name} must be a finite real, got {v!r}")
        if self.sigma_x <= 0:
            raise ValueError(f"sigma_x must be > 0, got {self.sigma_x}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        # calibration squares U + kappa, so kappa^2 must be a positive finite float too
        if self.sigma_x**2 == 0 or not 0 < self.kappa * self.kappa < math.inf:
            raise ValueError(f"kappa = sigma^2/sigma_x^2 and its square must be positive finite "
                             f"floats, got sigma={self.sigma!r}, sigma_x={self.sigma_x!r}")

    @property
    def kappa(self) -> float:
        """Noise-to-prior variance ratio sigma^2 / sigma_x^2, always recomputed."""
        return self.sigma**2 / self.sigma_x**2


class CostWeights(Record):
    """Nonnegative weights for false alarm (c0), miss (c1), and squared error (ce).

    The decision rule and its threshold are defined only for ``c0 > 0`` and
    ``c1 + ce > 0``, so other weights are refused.
    """

    c0: float
    c1: float
    ce: float

    def __post_init__(self):
        for name in ("c0", "c1", "ce"):
            v = getattr(self, name)
            if not is_finite_real(v):
                raise ValueError(f"{name} must be a finite real, got {v!r}")
            if v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")
        if self.c0 == 0:
            raise ValueError(f"c0 must be positive for calibration, got {self.c0}")
        if self.c1 + self.ce == 0:
            raise ValueError("c1 and ce cannot both be zero")


def admissible_cost_bound(params: ModelParams, costs: CostWeights) -> float:
    """Largest constraint level that still requires taking observations.

    Returns ``C_max = min(c0, c1 + ce * mu_x^2) + ce * sigma_x^2``.  Any
    constraint ``C`` in ``(0, C_max)`` admits a positive finite stopping
    threshold; ``C >= C_max`` means prior information alone already meets the
    constraint and no sample is needed.
    """
    return min(costs.c0, costs.c1 + costs.ce * params.mu_x**2) + costs.ce * params.sigma_x**2


class Constant(Record):
    h: float

    def __post_init__(self):
        if not is_finite_real(self.h) or self.h == 0:
            raise ValueError(f"constant gain must be finite and nonzero, got {self.h!r}")


class IidGaussian(Record):
    std: float

    def __post_init__(self):
        if not (is_finite_real(self.std) and self.std > 0):
            raise ValueError(f"gain std must be finite and positive, got {self.std!r}")


class Rayleigh(Record):
    """Gain is the magnitude of a circular complex Gaussian; ``scale`` is the
    per-component standard deviation."""

    scale: float

    def __post_init__(self):
        if not (is_finite_real(self.scale) and self.scale > 0):
            raise ValueError(f"Rayleigh scale must be finite and positive, got {self.scale!r}")


class Ar1(Record):
    phi: float
    innov_std: float
    init_std: float

    def __post_init__(self):
        if not (is_finite_real(self.phi) and abs(self.phi) < 1):
            raise ValueError(f"AR(1) coefficient must satisfy |phi| < 1, got {self.phi!r}")
        for name in ("innov_std", "init_std"):
            v = getattr(self, name)
            if not (is_finite_real(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")


class FromFile(Record):
    """Plain-text gain path, one decimal value per line, '#' comments allowed."""

    path: str


ChannelModel = Union[Constant, IidGaussian, Rayleigh, Ar1, FromFile]


class ScenarioConfig(Record):
    """One run of one truth arm.  The run sizes are checked here for every caller, the
    command line's config and flags included: ``master_seed >= 0``, and ``reps`` and
    ``t_max`` at least 1 and small enough to allocate that many doubles."""

    truth: Hypothesis
    params: ModelParams
    costs: CostWeights
    channel: ChannelModel
    master_seed: int
    reps: int
    t_max: int

    def __post_init__(self):
        check_int("master_seed", self.master_seed, 0)
        check_int("reps", self.reps, 1, size=True)
        check_int("t_max", self.t_max, 1, size=True)
