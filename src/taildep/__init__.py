"""Tail-dependence classification for bivariate heavy-tailed data.

Given nonnegative pairs (X, Y) with a heavy-tailed radius R = X + Y,
this package estimates the angular support of the limit measure and
runs bootstrap hypothesis tests to decide whether the asymptotic
dependence is full (one ray), strong (a proper angular interval) or
weak (the whole quadrant).

Each name is imported from its module; importing one module loads only
what that module needs:

- taildep.tail_core: samples, cones, radial order, log returns, ACF
- taildep.estimators: Hill and the three dependence statistics
- taildep.support_fit: the angular-support fit and its objective
- taildep.statdist: normal, chi-square and F quantiles
- taildep.boot_tests: the three bootstrap tests
- taildep.datagen: mixture generators and the Philox stream contract
- taildep.cli: the taildep command
"""

__version__ = "0.1.0"
