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
    the same name is a field's default.  A class that declares fields gets the ``__init__``
    of a frozen dataclass, compiled here: it stores every field, then runs
    ``__post_init__``, the subclass's checks.  An instance cannot be changed; it is equal
    only to an instance of its own class with equal fields, and its hash and repr are
    those of a frozen dataclass.  ``_fields`` and ``_replace(**changes)`` are named as on
    a NamedTuple, and ``_replace`` runs the checks again.  ``_kinds`` maps each field to
    its annotation, a string, since the package postpones annotations.
    """

    _fields = ()
    _kinds = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls).get("__annotations__", {})
        if own:  # a class without fields keeps its base's __init__, as a dataclass does
            cls._fields += tuple(own)
            cls._kinds = {**cls._kinds, **own}
            # the function's globals: its module's name, and each default as _<field>
            namespace = {"__name__": cls.__module__}
            namespace.update({f"_{name}": getattr(cls, name) for name in cls._fields
                              if hasattr(cls, name)})
            params = ", ".join(f"{name}=_{name}" if f"_{name}" in namespace else name
                               for name in cls._fields)
            values = ", ".join(f"{name}={name}" for name in cls._fields)
            exec(f"def __init__(self, {params}):\n"
                 f"    self.__dict__.update({values})\n"
                 "    self.__post_init__()\n", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

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
