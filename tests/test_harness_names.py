"""The taildep names that the benchmark harness under perfbench/ binds.

The harness wraps or calls these by name, so a cleanup that deletes or
renames one breaks only the benchmark run. Some look unused from inside
src/: boot_tests.stream is bound only so the tracer can rebind it.
"""

import importlib

HARNESS_NAMES = {
    # the tracer spans the random streams and quantiles as boot_tests binds them
    "boot_tests": ["stream", "normal_quantile", "chisq_quantile", "f_quantile"],
    # the tracer spans the entry points as cli binds them; the CLI child
    # wraps the reader and the report writer, then calls main
    "cli": ["radial_order", "estimate_support", "strong_dependence_test",
            "full_dependence_test", "weak_dependence_test", "_read_csv_columns",
            "_emit_report", "main"],
    # the in-process worker and the output checks call these
    "support_fit": ["SupportFitOptions", "estimate_support", "support_objective"],
    "tail_core": ["AngularCone", "BivariateSample", "radial_order"],
    "estimators": ["hill", "cone_adjusted_hill", "angle_weighted_hill",
                   "masked_angle_weighted_hill"],
}


def test_harness_names_are_bound():
    missing = [f"{module}.{name}" for module, names in HARNESS_NAMES.items() for name in names
               if not callable(getattr(importlib.import_module(f"taildep.{module}"), name, None))]
    assert missing == []
