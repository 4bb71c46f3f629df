"""The library's entry points refuse an argument of the wrong type with a
ValueError that names it, not an AttributeError from deep inside."""

import itertools
import json
import math
import operator
import re
from dataclasses import asdict, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from taildep import boot_tests, datagen, estimators, statdist, support_fit, tail_core
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
    example2,
    generate,
    pareto,
    sample_beta,
    stream,
    uniform_off_cone,
)
from taildep.estimators import (
    angle_weighted_hill,
    cone_adjusted_hill,
    hill,
    masked_angle_weighted_hill,
)
from taildep.statdist import (
    chisq_cdf,
    chisq_quantile,
    f_cdf,
    f_quantile,
    normal_cdf,
    normal_quantile,
)
from taildep.support_fit import SupportFitOptions, estimate_support, support_objective
from taildep.tail_core import (
    AngularCone,
    BivariateSample,
    RadialOrder,
    acf,
    cone_distances,
    log_returns,
    radial_order,
)

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
    (BivariateSample, {"x": _SAMPLE.x, "y": _SAMPLE.y}),
    (RadialOrder, {"x": _SAMPLE.x, "y": _SAMPLE.y}),
    (log_returns, {"prices": [1.0, 2.0, 4.0], "stride": 1}),
    (acf, {"series": [1.0, 3.0, 2.0, 5.0], "max_lag": 1}),
    (cone_adjusted_hill, {"ord": _ORDER, "k": 5, "cone": _CONE}),
    (angle_weighted_hill, {"ord": _ORDER, "k": 5}),
    (masked_angle_weighted_hill, {"ord": _ORDER, "k": 5, "cone": _CONE}),
    (weak_dependence_test, {"s": _SAMPLE, "cone": _CONE, "cfg": _CFG}),
    (Config, {"k_n": 20, "seed": 0, "m_n": 100, "k_mn": 10, "B": 20, "alpha_sig": 0.05}),
    (MixtureSpec, {"alpha_main": 0.5, "alpha_hidden": 1.0, "cone": _CONE, "z_p": 1.0,
                   "z_q": 2.0, "mix_prob": 0.5}),
    (SupportFitOptions, {"lam": 0.5}),
    (example1, {"n": 10, "seed": 0}),
    (example2, {"n": 10, "seed": 0}),
]
# cone_distances' x and y are any array-like, so only its cone is swapped
_SWAPS = [(fn, args, name) for fn, args in _CALLS for name in args
          if fn is not cone_distances or name == "cone"]


def test_one_argument_swapped_is_refused_by_name():
    # every (swap, value) pair, once each
    for (fn, args, name), value in itertools.product(_SWAPS, _POOL):
        if fn in (BivariateSample, RadialOrder) and np.ndim(value) == 1:
            continue  # the equal-length refusal names x and y both: a named case takes it
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
    # the equal-length refusal names x and y both, so the swap loop leaves these pairs here
    (lambda: BivariateSample(np.array([0.2, 0.3]), _SAMPLE.y),
     "x and y must be of equal length, got 2 and 300"),
    (lambda: RadialOrder(_SAMPLE.x, np.array([0.2, 0.3])),
     "x and y must be of equal length, got 300 and 2"),
    # a complex array lost its imaginary part with a ComplexWarning, a list of str was
    # parsed, and a datetime column read as days since 1970
    (lambda: BivariateSample(np.array([1 + 5j, 2]), [1.0, 2.0]),
     "x must be a 1-d array of real numbers, got array([1.+5.j, 2.+0.j])"),
    (lambda: BivariateSample(["1", "2"], [1.0, 2.0]),
     "x must be a 1-d array of real numbers, got ['1', '2']"),
    (lambda: BivariateSample([1.0, 2.0], np.array(["2020-01-01", "2020-01-02"], "datetime64[D]")),
     "y must be a 1-d array of real numbers, got ndarray"),
    (lambda: RadialOrder(["1", "2"], [1.0, 2.0]),
     "x must be a 1-d array of real numbers, got ['1', '2']"),
    (lambda: RadialOrder([1.0, 2.0], np.array([1, 2], "timedelta64[s]")),
     "y must be a 1-d array of real numbers, got array([1, 2], dtype='timedelta64[s]')"),
    (lambda: BivariateSample([Fraction(1, 2), "a"], [1.0, 2.0]),
     "x must be a 1-d array of real numbers, got [Fraction(1, 2), 'a']"),
    # a 2-d price array gave returns row by row, and a 2-d series or a dict raised a
    # bare TypeError
    (lambda: log_returns(np.ones((3, 4)), 1), "prices must be a 1-d array of real numbers, got ndarray"),
    (lambda: acf(np.ones((3, 4)), 1), "series must be a 1-d array of real numbers, got ndarray"),
    (lambda: log_returns({}, 1), "prices must be a 1-d array of real numbers, got {}"),
    (lambda: acf({}, 1), "series must be a 1-d array of real numbers, got {}"),
], ids=["estimate_support", "hill", "radial_order", "strong_dependence_test",
        "full_dependence_test", "generate", "cone_distances", "uniform_off_cone",
        "SupportFitOptions", "normal_cdf", "normal_quantile", "chisq_cdf", "chisq_quantile",
        "f_cdf", "f_quantile", "normal_quantile_array", "chisq_quantile_array",
        "f_quantile_array", "normal_cdf_array", "normal_quantile_complex",
        "chisq_cdf_decimal_nan", "pareto_str_alpha", "pareto_str_size", "pareto_str_gen",
        "pareto_array_alpha", "sample_beta_float_size", "sample_beta_str_q",
        "generate_long_seed", "TestConfig_long_B", "BivariateSample_length",
        "RadialOrder_length", "BivariateSample_complex", "BivariateSample_str",
        "BivariateSample_datetime", "RadialOrder_str", "RadialOrder_timedelta",
        "BivariateSample_fraction_and_str", "log_returns_2d", "acf_2d", "log_returns_dict",
        "acf_dict"])
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


# every 1-d array dtype the readers take as float64
_ARRAY_DTYPES = [np.bool_, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16,
                 np.uint32, np.uint64, np.float16, np.float32, np.float64]
# the four readers of a data array, each as the arrays it returns
_ARRAY_READERS = [
    lambda v: operator.attrgetter("x", "y")(BivariateSample(v, v)),
    lambda v: RadialOrder(v, v).head(len(v)),
    lambda v: (log_returns(v, 1),),
    lambda v: (acf(v, 1),),
]


def _in_range_arrays(dtype):
    """1-d arrays of dtype, non-negative, so most calls answer."""
    if np.dtype(dtype).kind == "f":
        elements = st.floats(0.0, min(1e9, float(np.finfo(dtype).max)),
                             width=np.finfo(dtype).bits)
    elif np.dtype(dtype).kind == "b":
        elements = st.booleans()
    else:
        elements = st.integers(0, int(np.iinfo(dtype).max))
    return hnp.arrays(dtype, st.integers(2, 12), elements=elements)


# one strategy per accepted kind: each dtype, and lists of Fractions or of ints past int64
_IN_RANGE_ARRAYS = [*map(_in_range_arrays, _ARRAY_DTYPES),
                    st.lists(st.fractions(0, 10**6), min_size=2, max_size=12),
                    st.lists(st.integers(2**63, 2**80), min_size=2, max_size=12)]


def _outcome(read, v):
    """The bytes of each array that read(v) returns, or its refusal."""
    try:
        return [arr.tobytes() for arr in read(v)]
    except ValueError as exc:
        return str(exc)


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(st.data())
def test_array_readers_take_every_real_dtype(data):
    # each reader answers, or refuses, as it does on the float64 array that
    # np.asarray(v, dtype=float) reads: no bit of an in-range value moves
    for kind in _IN_RANGE_ARRAYS:
        v = data.draw(kind)
        for read in _ARRAY_READERS:
            assert _outcome(read, v) == _outcome(read, np.asarray(v, dtype=float))


# the public callables that the swap loop does not call, each with its reason
_NOT_SWAPPED = {
    "tail_core.AngularCone": "it names its endpoints 'cone endpoint a' and 'b'; "
                             "_REAL_ARGS reads both",
    "support_fit.support_objective": "its a and b are read as an AngularCone's endpoints; "
                                     "_REAL_ARGS reads a, b and lam",
    "datagen.stream": "its *entropy has no keyword to swap; test_datagen refuses each kind",
    "datagen.stream_keys": "its *entropy has no keyword to swap; test_datagen refuses each kind",
    "estimators.StatisticValue": "a result record, which the library builds",
    "support_fit.SupportEstimate": "a result record, which the library builds",
    "boot_tests.TestReport": "a result record, which the library builds",
}


def test_every_public_callable_is_swapped_or_exempt():
    # a new entry point cannot skip the refusal suite
    public = {f"{mod.__name__.removeprefix('taildep.')}.{name}"
              for mod in (tail_core, estimators, support_fit, statdist, boot_tests, datagen)
              for name, obj in vars(mod).items()
              if not name.startswith("_") and callable(obj)
              and getattr(obj, "__module__", None) == mod.__name__}
    swapped = {f"{fn.__module__.removeprefix('taildep.')}.{fn.__name__}" for fn, _ in _CALLS}
    assert public - swapped == set(_NOT_SWAPPED)
