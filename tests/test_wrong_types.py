"""The library's entry points refuse an argument of the wrong type with a
ValueError that names it, not an AttributeError from deep inside."""

import itertools
import json
import math
import re
from dataclasses import asdict, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from taildep.boot_tests import (
    TestConfig as Config,
    full_dependence_test,
    strong_dependence_test,
    weak_dependence_test,
)
from taildep.datagen import (
    EXAMPLE1_SPEC,
    MixtureSpec,
    example1,
    generate,
    pareto,
    sample_beta,
    stream,
    uniform_off_cone,
)
from taildep.estimators import hill
from taildep.statdist import (
    chisq_cdf,
    chisq_quantile,
    f_cdf,
    f_quantile,
    normal_cdf,
    normal_quantile,
)
from taildep.support_fit import SupportFitOptions, estimate_support, support_objective
from taildep.tail_core import AngularCone, cone_distances, radial_order

_SAMPLE = example1(300, 0)
_ORDER = radial_order(_SAMPLE)
_CONE = AngularCone(0.25, 0.75)
_CFG = Config(k_n=20, seed=0, m_n=100, k_mn=10, B=20)
# one value of each kind the entry points take, and three they never do
_POOL = [None, 0.5, np.float32(0.5), Decimal("0.5"), np.complex128(0.5), np.array([0.2, 0.3]),
         (_SAMPLE.x, _SAMPLE.y), _CONE, _SAMPLE, _ORDER, {}]
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
    (pareto, {"alpha": 2.0, "size": 3, "gen": stream(0)}),
    (sample_beta, {"p": 1.0, "q": 2.0, "size": 3, "gen": stream(0)}),
    (normal_cdf, {"x": 0.5}),
    (normal_quantile, {"p": 0.25}),
    (chisq_cdf, {"x": 2.0, "df": 3}),
    (chisq_quantile, {"p": 0.95, "df": 3}),
    (f_cdf, {"x": 2.0, "df1": 2, "df2": 3}),
    (f_quantile, {"p": 0.95, "df1": 2, "df2": 3}),
]
# cone_distances' x and y are any array-like, so only its cone is swapped
_SWAPS = [(fn, args, name) for fn, args in _CALLS for name in args
          if fn is not cone_distances or name == "cone"]


def test_one_argument_swapped_is_refused_by_name():
    # every (swap, value) pair, once each
    for (fn, args, name), value in itertools.product(_SWAPS, _POOL):
        try:
            fn(**{**args, name: value})
        except ValueError as exc:
            assert str(exc).startswith(f"{name} must be "), (fn.__name__, str(exc))
        else:
            # a numpy complex compares with a float, by its real part, but is no real number
            assert not isinstance(value, np.complexfloating), f"{fn.__name__} {name} took {value!r}"


@pytest.mark.parametrize("call, error", [
    (lambda: estimate_support(_ORDER, 10, None), "opts must be a SupportFitOptions, got None"),
    (lambda: hill(_SAMPLE, 5), "ord must be a RadialOrder, got BivariateSample"),
    (lambda: radial_order((_SAMPLE.x, _SAMPLE.y)), "s must be a BivariateSample, got tuple"),
    (lambda: strong_dependence_test(_SAMPLE, _CONE, None), "cfg must be a TestConfig, got None"),
    (lambda: full_dependence_test(_ORDER, _CFG), "s must be a BivariateSample, got RadialOrder"),
    (lambda: generate(_CONE, 10, 0), "spec must be a MixtureSpec, got AngularCone(a=0.25, b=0.75)"),
    (lambda: cone_distances(_SAMPLE.x, _SAMPLE.y, None), "cone must be an AngularCone, got None"),
    (lambda: uniform_off_cone(None, 3, stream(0)), "cone must be an AngularCone, got None"),
    (lambda: SupportFitOptions(lam=_SAMPLE.x), "lam must be a number, got ndarray"),
    (lambda: normal_cdf(_SAMPLE), "x must be a number, got BivariateSample"),
    (lambda: normal_quantile("0.5"), "p must be a number, got '0.5'"),
    (lambda: chisq_cdf(1.0, None), "df must be a number, got None"),
    (lambda: chisq_quantile(0.5, "3"), "df must be a number, got '3'"),
    (lambda: f_cdf(None, 2, 2), "x must be a number, got None"),
    (lambda: f_quantile(0.5, 2, 2j), "df2 must be a number, got 2j"),
    # an array compares elementwise, so "truth value ... is ambiguous" named no argument
    (lambda: normal_quantile(np.array([0.2, 0.3])), "p must be a number, got array([0.2, 0.3])"),
    (lambda: chisq_quantile(0.5, np.array([3, 4])), "df must be a number, got array([3, 4])"),
    (lambda: f_quantile(0.5, 2, np.array([2.0, 3.0])), "df2 must be a number, got array([2., 3.])"),
    (lambda: normal_cdf(np.array([0.1, 0.2])), "x must be a number, got array([0.1, 0.2])"),
    # a numpy complex compares with a float, by its real part: 0.0 came back, with a warning
    (lambda: normal_quantile(np.complex128(0.5 + 0.3j)),
     "p must be a number, got np.complex128(0.5+0.3j)"),
    # a Decimal NaN raises decimal.InvalidOperation on comparison, which named no argument
    (lambda: chisq_cdf(Decimal("NaN"), 3), "x must be a number, got Decimal('NaN')"),
    # a str raised a bare TypeError, a str gen an AttributeError, and an array alpha
    # numpy's "truth value ... is ambiguous"
    (lambda: pareto("x", 5, stream(0)), "alpha must be a number, got 'x'"),
    (lambda: pareto(2.0, "5", stream(0)), "size must be an integer, got '5'"),
    (lambda: pareto(2.0, 5, "g"), "gen must be a Generator, got 'g'"),
    (lambda: pareto(np.array([2.0, 3.0]), 5, stream(0)),
     "alpha must be a number, got array([2., 3.])"),
    (lambda: sample_beta(1.0, 1.0, 5.5, stream(0)), "size must be an integer, got 5.5"),
    (lambda: sample_beta(1.0, "2", 5, stream(0)), "q must be a number, got '2'"),
    # an int past Python's 4300-digit str limit: its repr raised a ValueError that
    # named no argument
    (lambda: generate(EXAMPLE1_SPEC, 10, -10**5000), "seed must be non-negative, got int"),
    (lambda: Config(k_n=20, B=10**5000), "B must be at most 10000000, got int"),
], ids=["estimate_support", "hill", "radial_order", "strong_dependence_test",
        "full_dependence_test", "generate", "cone_distances", "uniform_off_cone",
        "SupportFitOptions", "normal_cdf", "normal_quantile", "chisq_cdf", "chisq_quantile",
        "f_cdf", "f_quantile", "normal_quantile_array", "chisq_quantile_array",
        "f_quantile_array", "normal_cdf_array", "normal_quantile_complex",
        "chisq_cdf_decimal_nan", "pareto_str_alpha", "pareto_str_size", "pareto_str_gen",
        "pareto_array_alpha", "sample_beta_float_size", "sample_beta_str_q",
        "generate_long_seed", "TestConfig_long_B"])
def test_wrong_type_named_with_its_type(call, error):
    # each raised an AttributeError on a missing attribute, and each statdist
    # call a TypeError from a comparison or abs(); a long repr, as a sample's
    # or an array's is, gives way to the type's name, for a number too
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        call()


# each real argument of the library: what it reads from v (the value stored,
# or the result), and a float and an integer (None if none is) in its range
_BASE = MixtureSpec(1.0, 1.0, _CONE, 1.0, 1.0, 0.5)
_REAL_ARGS = [
    ("cone a", lambda v: AngularCone(v, 0.75).a, 0.25, 0),
    ("cone b", lambda v: AngularCone(0.0, v).b, 0.75, 1),
    *((name, lambda v, name=name: getattr(replace(_BASE, **{name: v}), name), x, 1)
      for name, x in [("alpha_main", 0.5), ("alpha_hidden", 2.0), ("z_p", 0.05), ("z_q", 0.1),
                      ("mix_prob", 0.5)]),
    ("alpha_sig", lambda v: Config(k_n=20, alpha_sig=v).alpha_sig, 0.05, None),
    ("lam", lambda v: SupportFitOptions(lam=v).lam, 0.5, 1),
    # a draw as a list of floats, whose repr shows every bit
    ("pareto alpha", lambda v: pareto(v, 5, stream(0)).tolist(), 1.7, 3),
    ("sample_beta p", lambda v: sample_beta(v, 2.0, 5, stream(0)).tolist(), 0.05, 1),
    ("sample_beta q", lambda v: sample_beta(1.0, v, 5, stream(0)).tolist(), 0.1, 2),
    ("support_objective a", lambda v: support_objective(_ORDER, 10, v, 0.75, 1.0), 0.25, 0),
    ("support_objective b", lambda v: support_objective(_ORDER, 10, 0.0, v, 1.0), 0.75, 1),
    ("support_objective lam", lambda v: support_objective(_ORDER, 10, 0.25, 0.75, v), 0.5, 1),
    ("p", lambda v: (normal_quantile(v), chisq_quantile(v, 3), f_quantile(v, 2, 3)), 0.25, None),
    ("df", lambda v: (chisq_cdf(2.0, v), chisq_quantile(0.5, v), f_cdf(2.0, v, 3),
                      f_quantile(0.5, 2, v)), 3.0, 3),
    ("x", lambda v: (normal_cdf(v), chisq_cdf(v, 3), f_cdf(v, 2, 3)), 0.5, 1),
]


# numpy scalars of any width, a Fraction, a Decimal, a 0-d array and a bool each compare with a
# float; a float16 df is compared as a float, not _MAX_DF as a float16, where it overflows
@pytest.mark.parametrize("value", [np.float32(0.5), np.float16(0.5), np.int64(3), Fraction(1, 2),
                                   Decimal("0.5"), np.array(0.5), True], ids=repr)
def test_statdist_takes_every_real_number(value):
    # every real argument of the library, not statdist's alone, reads a value of value's
    # kind as its float: the stored value or the result is that of the float, bit for bit
    kind = np.array if isinstance(value, np.ndarray) else type(value)
    whole = isinstance(value, (int, np.integer))
    for name, read, x, i in _REAL_ARGS:
        if not whole or i is not None:
            v = kind(i if whole else x)
            assert repr(read(v)) == repr(read(float(v))), name
    assert normal_cdf(10**400) == chisq_cdf(10**400, value) == f_cdf(10**400, value, 3) == 1.0
    # an int beyond the float range reads as inf: a bare OverflowError drew nothing
    huge = generate(replace(EXAMPLE1_SPEC, alpha_main=10**400, alpha_hidden=10**400), 10, 0)
    inf = generate(replace(EXAMPLE1_SPEC, alpha_main=math.inf, alpha_hidden=math.inf), 10, 0)
    assert np.array_equal(huge.x, inf.x) and np.array_equal(huge.y, inf.y)


def test_numpy_typed_arguments_give_strict_json():
    # a float32 alpha_sig made proportion_rule_reject np.True_, and the config and the
    # estimate kept np.float32 and np.int64 values, which json refuses
    cfg = Config(k_n=np.int64(20), seed=np.int64(0), m_n=np.int64(100), k_mn=np.int64(10),
                 B=np.int64(20), alpha_sig=np.float32(0.05))
    assert all(type(getattr(cfg, name)) is int for name in ("k_n", "seed", "m_n", "k_mn", "B"))
    cone = AngularCone(np.float32(0.25), np.float32(0.75))
    estimate = estimate_support(_ORDER, np.int64(10), SupportFitOptions(lam=np.float32(0.5)))
    reports = [strong_dependence_test(_SAMPLE, cone, cfg), full_dependence_test(_SAMPLE, cfg),
               weak_dependence_test(_SAMPLE, cone, cfg)]
    for value in [asdict(cfg), vars(estimate), *map(vars, reports)]:
        json.dumps(value, allow_nan=False)
