"""The library's entry points refuse an argument of the wrong type with a
ValueError that names it, not an AttributeError from deep inside."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taildep.boot_tests import TestConfig as Config, full_dependence_test, strong_dependence_test
from taildep.datagen import EXAMPLE1_SPEC, example1, generate, stream, uniform_off_cone
from taildep.estimators import hill
from taildep.support_fit import SupportFitOptions, estimate_support
from taildep.tail_core import AngularCone, cone_distances, radial_order

_SAMPLE = example1(300, 0)
_ORDER = radial_order(_SAMPLE)
_CONE = AngularCone(0.25, 0.75)
_CFG = Config(k_n=20, seed=0, m_n=100, k_mn=10, B=20)
# one value of each kind the entry points take, and two they never do
_POOL = [None, 0.5, (_SAMPLE.x, _SAMPLE.y), _CONE, _SAMPLE, _ORDER, {}]
# each entry point with valid arguments, by name
_CALLS = [
    (estimate_support, {"ord": _ORDER, "k": 10, "opts": SupportFitOptions()}),
    (hill, {"ord": _ORDER, "k": 5}),
    (radial_order, {"s": _SAMPLE}),
    (strong_dependence_test, {"s": _SAMPLE, "cone": _CONE, "cfg": _CFG}),
    (full_dependence_test, {"s": _SAMPLE, "cfg": _CFG}),
    (generate, {"spec": EXAMPLE1_SPEC, "n": 10, "seed": 0}),
    (cone_distances, {"x": _SAMPLE.x, "y": _SAMPLE.y, "cone": _CONE}),
    (uniform_off_cone, {"cone": _CONE, "size": 3, "gen": stream(0)}),
]
# cone_distances' x and y are any array-like, so only its cone is swapped
_SWAPS = [(fn, args, name) for fn, args in _CALLS for name in args
          if fn is not cone_distances or name == "cone"]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(_SWAPS), st.sampled_from(_POOL))
def test_one_argument_swapped_is_refused_by_name(swap, value):
    fn, args, name = swap
    try:
        fn(**{**args, name: value})
    except ValueError as exc:
        assert str(exc).startswith(f"{name} must be "), str(exc)


@pytest.mark.parametrize("call, error", [
    (lambda: estimate_support(_ORDER, 10, None), "opts must be a SupportFitOptions, got None"),
    (lambda: hill(_SAMPLE, 5), "ord must be a RadialOrder, got BivariateSample"),
    (lambda: radial_order((_SAMPLE.x, _SAMPLE.y)), "s must be a BivariateSample, got tuple"),
    (lambda: strong_dependence_test(_SAMPLE, _CONE, None), "cfg must be a TestConfig, got None"),
    (lambda: full_dependence_test(_ORDER, _CFG), "s must be a BivariateSample, got RadialOrder"),
    (lambda: generate(_CONE, 10, 0), "spec must be a MixtureSpec, got AngularCone(a=0.25, b=0.75)"),
    (lambda: cone_distances(_SAMPLE.x, _SAMPLE.y, None), "cone must be an AngularCone, got None"),
    (lambda: uniform_off_cone(None, 3, stream(0)), "cone must be an AngularCone, got None"),
], ids=["estimate_support", "hill", "radial_order", "strong_dependence_test",
        "full_dependence_test", "generate", "cone_distances", "uniform_off_cone"])
def test_wrong_type_named_with_its_type(call, error):
    # each raised an AttributeError on a missing attribute; a long repr, as a
    # sample's or an array's is, gives way to the type's name
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        call()
