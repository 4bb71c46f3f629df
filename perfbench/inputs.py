"""Benchmark inputs, generated from the workload seed.

The two-component angular mixture is re-implemented here on numpy's PCG64
instead of calling ``taildep.datagen``, so a change to the program's
generators or random streams never changes the bytes a benchmark run
feeds it. Every input is recorded with its sha256.
"""

from __future__ import annotations

import hashlib

import numpy as np

CONE = (0.25, 0.75)
# (Beta p, Beta q) of the on-cone angle: Example 1 is bimodal, Example 2 low-spread
SHAPES = {"example1": (0.05, 0.1), "example2": (1.0, 2.0)}


def mixture(seed: int, stream: tuple[int, ...], n: int, shape: str) -> tuple[np.ndarray, np.ndarray]:
    """n pairs from the mixture: heavy Pareto(2) radii on the cone [0.25, 0.75],
    lighter Pareto(4) radii at uniform off-cone angles, mixed half and half."""
    p, q = SHAPES[shape]
    a, b = CONE
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *stream])))
    on_cone = rng.random(n) < 0.5
    theta_on = a + (b - a) * rng.beta(p, q, n)
    r_on = (1.0 - rng.random(n)) ** (-1.0 / 2.0)
    r_off = (1.0 - rng.random(n)) ** (-1.0 / 4.0)
    v = rng.random(n) * (a + 1.0 - b)
    theta_off = np.where(v < a, v, b + (v - a))
    r = np.where(on_cone, r_on, r_off)
    theta = np.where(on_cone, theta_on, theta_off)
    x, y = r * theta, r * (1.0 - theta)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and x.min() >= 0 and y.min() >= 0):
        raise RuntimeError(f"mixture draw ({seed}, {stream}) is not finite and nonnegative")
    return x, y


def write_csv(path: str, x: np.ndarray, y: np.ndarray) -> str:
    """Write an 'x,y' CSV whose values parse back to exactly x and y; return its sha256."""
    # %.17g round-trips every float64 exactly; the same bytes as np.savetxt
    # with fmt="%.17g", in two thirds of its time
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        fh.write("".join(["%.17g,%.17g\n" % row for row in zip(x.tolist(), y.tolist())]))
    return file_sha256(path)


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def arrays_sha256(x: np.ndarray, y: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in (x, y):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()
