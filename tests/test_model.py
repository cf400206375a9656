import dataclasses
import inspect
import math
import pickle
import re

import pytest

from seqjde import CostWeights, ModelParams
from seqjde.cli import GridSpec, RunConfig
from seqjde.gfunc import Calibration, g_limits
from seqjde.model import (Ar1, Constant, FromFile, Hypothesis, IidGaussian, Rayleigh,
                          ScenarioConfig, admissible_cost_bound)


@pytest.mark.parametrize(
    "params, costs, expected",
    [
        (ModelParams(0.0, 1.0, 1.0), CostWeights(1.0, 1.0, 1.0), 2.0),
        (ModelParams(2.0, 1.0, 1.0), CostWeights(1.0, 1.0, 1.0), 2.0),  # min(1, 5) + 1
        (ModelParams(3.0, 2.0, 0.5), CostWeights(1.0, 1.0, 0.0), 1.0),  # pure detection
    ],
)
def test_admissible_cost_bound(params, costs, expected):
    assert admissible_cost_bound(params, costs) == expected


def test_kappa_is_derived():
    p = ModelParams(mu_x=1.0, sigma_x=0.5, sigma=2.0)
    assert p.kappa == 2.0**2 / 0.5**2


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_modelparams_rejects_bad_scales(bad):
    with pytest.raises(ValueError):
        ModelParams(mu_x=0.0, sigma_x=bad, sigma=1.0)
    with pytest.raises(ValueError):
        ModelParams(mu_x=0.0, sigma_x=1.0, sigma=bad)


@pytest.mark.parametrize("sigma_x, sigma", [(1.0, 1e-300), (1e-200, 1.0), (1e-5, 1e150),
                                            (1e154, 1.0), (1.0, 1e-154)])
def test_modelparams_rejects_degenerate_kappa(sigma_x, sigma):
    # a variance underflowing to 0 gave kappa = 0 (log(0) in calibration) or 1/0,
    # and sigma^2/sigma_x^2 can overflow to inf; kappa ~ 1e-308 underflowed (U+kappa)^2
    with pytest.raises(ValueError, match="kappa"):
        ModelParams(mu_x=0.0, sigma_x=sigma_x, sigma=sigma)


def test_modelparams_rejects_nonfinite_mean():
    with pytest.raises(ValueError):
        ModelParams(mu_x=math.inf, sigma_x=1.0, sigma=1.0)


def test_modelparams_allows_any_finite_mean():
    for mu in (-3.0, 0.0, 2.5):
        assert ModelParams(mu_x=mu, sigma_x=1.0, sigma=1.0).mu_x == mu


@pytest.mark.parametrize("field", ["c0", "c1", "ce"])
def test_costweights_rejects_negative_and_nonfinite(field):
    base = {"c0": 1.0, "c1": 1.0, "ce": 1.0}
    for bad in (-0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            CostWeights(**{**base, field: bad})


@pytest.mark.parametrize("costs, message", [
    ((0, 1, 1), "c0 must be positive for calibration, got 0"),
    ((-0.0, 1.0, 1.0), "c0 must be positive for calibration, got -0.0"),
    ((1, 0, 0), "c1 and ce cannot both be zero"),
])
def test_costweights_rejects_a_degenerate_decision_problem(costs, message):
    # the rule c0 <= L*(c1 + ce*xhat^2) and its threshold need c0 > 0 and c1 + ce > 0
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CostWeights(*costs)


@pytest.mark.parametrize(
    "params, costs",
    [
        (ModelParams(0.0, 1.0, 1.0), CostWeights(1.0, 1.0, 1.0)),
        (ModelParams(1.0, 1.0, 1.0), CostWeights(3.0, 1.0, 1.0)),
        (ModelParams(-2.0, 0.7, 1.3), CostWeights(0.4, 1.0, 2.0)),
        (ModelParams(0.5, 2.0, 0.5), CostWeights(1.0, 0.5, 0.0)),
    ],
)
def test_bound_minus_limit_identity(params, costs):
    # C_max - c1 - ce*(mu^2 + sigma_x^2) collapses to the zero-energy value of G
    c_max = admissible_cost_bound(params, costs)
    G0, _ = g_limits(params, costs)
    lhs = c_max - costs.c1 - costs.ce * (params.mu_x**2 + params.sigma_x**2)
    assert lhs == pytest.approx(G0, abs=1e-12)


# One valid instance of each checked input, by keyword, and a value for its first
# checked field that its __post_init__ refuses (None: FromFile's path is checked when read)
_SCENARIO = dict(truth=Hypothesis.H1, params=ModelParams(0.5, 1.0, 2.0),
                 costs=CostWeights(1.0, 2.0, 0.5), channel=Constant(1.0), master_seed=7,
                 reps=10, t_max=50)
RECORDS = [
    (ModelParams, dict(mu_x=0.5, sigma_x=1.0, sigma=2.0), ("sigma", -1.0)),
    (CostWeights, dict(c0=1.0, c1=2.0, ce=0.5), ("c0", -1.0)),
    (Constant, dict(h=1.0), ("h", 0.0)),
    (IidGaussian, dict(std=0.5), ("std", 0.0)),
    (Rayleigh, dict(scale=0.7), ("scale", math.inf)),
    (Ar1, dict(phi=0.5, innov_std=1.0, init_std=2.0), ("phi", 1.0)),
    (FromFile, dict(path="gains.txt"), None),
    (ScenarioConfig, _SCENARIO, ("reps", 0)),
    (RunConfig, dict(_SCENARIO, constraint_C=1.5, grid=GridSpec(0.0, 1.0, 2, "linear")),
     ("t_max", 0)),
    (GridSpec, dict(u_min=0.001, u_max=10.0, points=4, spacing="log"), ("spacing", "cubic")),
    (Calibration, dict(C=1.5, gamma=2.0, decision=None, G=-0.5), ("gamma", -1.0)),
]


def _dataclass_twin(cls):
    """The frozen dataclass with ``cls``'s name, fields and defaults, and no checks."""
    spec = [(name, object, dataclasses.field(default=getattr(cls, name)))
            if hasattr(cls, name) else (name, object)
            for name in cls._fields]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _type_error(cls, *args, **kwargs) -> str:
    with pytest.raises(TypeError) as exc:
        cls(*args, **kwargs)
    return str(exc.value)


@pytest.mark.parametrize("cls, kwargs, bad", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_behave_as_frozen_dataclasses(cls, kwargs, bad):
    # the checked inputs were frozen dataclasses; each Record must keep what they did
    assert list(kwargs) == list(cls._fields)
    twin = _dataclass_twin(cls)
    record = cls(**kwargs)
    assert record == cls(*kwargs.values()) and hash(record) == hash(cls(**kwargs))
    assert hash(record) == hash(twin(**kwargs)) and repr(record) == repr(twin(**kwargs))
    assert pickle.loads(pickle.dumps(record)) == record
    # equal only to its own class: not to a twin, a subclass, its values or another record
    subclass = type(cls.__name__, (cls,), {})
    others = [twin(**kwargs), subclass(**kwargs), tuple(kwargs.values())]
    others += [other(**values) for other, values, _ in RECORDS if other is not cls]
    assert all(record != other and not record == other for other in others)

    first = cls._fields[0]
    for name in (first, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert getattr(record, first) == kwargs[first] and not hasattr(record, "extra")

    assert record._replace() == record._replace(**kwargs) == record
    assert record._replace() is not record
    if bad is not None:
        name, value = bad
        with pytest.raises(ValueError):
            record._replace(**{name: value})
        with pytest.raises(ValueError):
            cls(**{**kwargs, name: value})

    # each way to call __init__ wrongly raises the TypeError the dataclass raised
    values = list(kwargs.values())
    required = [name for name in cls._fields if not hasattr(cls, name)]
    calls = [
        ((), {}),  # every required argument missing
        (values[:len(required) - 1], {}),  # the last required one missing
        (values, {"extra": 1.0}),  # unexpected
        (values[:1], {first: values[0]}),  # repeated
        ([*values, 1.0], {}),  # surplus
        ([*values, 1.0], {first: values[0]}),  # repeated comes first
    ]
    for args, extra in calls:
        assert _type_error(cls, *args, **extra) == _type_error(twin, *args, **extra), (args, extra)


@pytest.mark.parametrize("cls", [r[0] for r in RECORDS], ids=[r[0].__name__ for r in RECORDS])
def test_records_have_the_dataclass_signature(cls):
    # Python binds a record's arguments, so its __init__ has the dataclass twin's parameters
    def parameters(init):
        return [(q.name, q.kind, q.default) for q in inspect.signature(init).parameters.values()]
    assert parameters(cls.__init__) == parameters(_dataclass_twin(cls).__init__)
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


def test_calibration_defaults():
    assert Calibration(1.5) == Calibration(C=1.5, gamma=None, decision=None, G=None)
    assert Calibration(0.5, decision=Hypothesis.H0).gamma is None
    assert Calibration(1.5)._replace(gamma=2.0, G=-0.5) == Calibration(1.5, 2.0, None, -0.5)
    # the defaults are stored as given fields are, so they survive a round trip
    record = Calibration(1.5)
    assert pickle.loads(pickle.dumps(record)) == record == record._replace()
    assert hash(record) == hash(Calibration(1.5, None, None, None))
    assert record._replace(C=0.5) == Calibration(0.5)
    assert _type_error(Calibration) == \
        "Calibration.__init__() missing 1 required positional argument: 'C'"
    assert _type_error(Calibration, 1, 2, None, None, 5) == \
        "Calibration.__init__() takes from 2 to 5 positional arguments but 6 were given"
    assert _type_error(ModelParams, 0.0) == ("ModelParams.__init__() missing 2 required "
                                             "positional arguments: 'sigma_x' and 'sigma'")
