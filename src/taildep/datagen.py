"""Seeded generators for two-component heavy-tailed angular mixtures.

The model draws a Bernoulli switch B, an on-cone angle
Theta1 = a + (b - a) Z with Z ~ Beta(p, q), an off-cone angle Theta2
uniform on [0, 1] \\ [a, b], and Pareto radii R1 (heavy, on-cone) and
R2 (lighter, off-cone), then sets

    X = B R1 Theta1 + (1 - B) R2 Theta2
    Y = B R1 (1 - Theta1) + (1 - B) R2 (1 - Theta2).

Randomness comes from the counter-based Philox generator. Each model
component (B, Z, R1, R2, Theta2) draws from its own substream derived
from (seed, component index), so changing one parameter never perturbs
the draws of the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from taildep.tail_core import AngularCone, BivariateSample

# substream indices for the five model components
_SUB_BERNOULLI = 0
_SUB_Z = 1
_SUB_R_MAIN = 2
_SUB_R_HIDDEN = 3
_SUB_THETA_OFF = 4


def stream(*entropy: int) -> np.random.Generator:
    """Philox generator keyed by a tuple of nonnegative integers."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


# numpy's SeedSequence hash: pool of four uint32 words, hash and mix constants
_POOL_WORDS = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _entropy_words(value) -> list:
    """value as SeedSequence reads it: an int becomes its little-endian
    uint32 words (0 is one word); an array of ints below 2**32 is one
    word per row."""
    if isinstance(value, np.ndarray):
        if value.size and (value.min() < 0 or value.max() > _MASK32):
            raise ValueError("array entropy must lie in [0, 2**32)")
        return [value.astype(np.uint32)]
    value = int(value)
    if value < 0:
        raise ValueError(f"entropy must be non-negative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix: each call advances the hash constant."""
    const = init

    def hashmix(v: np.ndarray) -> np.ndarray:
        nonlocal const
        v = v ^ np.uint32(const)
        const = (const * mult) & _MASK32
        v = v * np.uint32(const)
        return v ^ (v >> 16)

    return hashmix


def stream_keys(*entropy) -> np.ndarray:
    """Philox keys of stream(*e) for a block of entropy tuples e, shape (rows, 2).

    Each argument is an int, as in stream, or a 1-d array of ints below
    2**32 that varies along the block. Row j equals
    SeedSequence(e_j).generate_state(2, np.uint64), the key stream(*e_j)
    gives its Philox, computed for every row at once with SeedSequence's
    uint32 hash in wrapping numpy arithmetic.
    """
    cols = [w for value in entropy for w in _entropy_words(value)]
    rows = max((c.size for c in cols if isinstance(c, np.ndarray)), default=1)
    cols = [np.broadcast_to(np.uint32(c) if isinstance(c, int) else c, (rows,)) for c in cols]

    def mix(x, y):
        v = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return v ^ (v >> 16)

    hashmix = _hasher(_INIT_A, _MULT_A)
    zeros = np.zeros(rows, np.uint32)
    pool = [hashmix(cols[i] if i < len(cols) else zeros) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for col in cols[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(col))

    # generate_state(2, np.uint64): four output words, paired little-endian
    output = _hasher(_INIT_B, _MULT_B)
    w = [output(v).astype(np.uint64) for v in pool]
    return np.stack([w[0] | w[1] << np.uint64(32), w[2] | w[3] << np.uint64(32)], axis=1)


@dataclass(frozen=True)
class MixtureSpec:
    """Parameters of the two-component angular mixture."""

    alpha_main: float
    alpha_hidden: float
    cone: AngularCone
    z_p: float
    z_q: float
    mix_prob: float

    def __post_init__(self) -> None:
        if not (self.alpha_main > 0 and self.alpha_hidden > 0):  # NaN fails too
            raise ValueError("Pareto indices must be positive")
        if self.alpha_hidden < self.alpha_main:
            raise ValueError("off-cone tail must be at least as light as the on-cone tail")
        if not (self.z_p > 0 and self.z_q > 0):
            raise ValueError("Beta shapes must be positive")
        if not (0.0 < self.mix_prob <= 1.0):
            raise ValueError("mix_prob must lie in (0, 1]")
        if self.mix_prob < 1.0 and self.cone.is_full:
            raise ValueError("off-cone component requires a proper cone [a, b]")

    @property
    def theta1_mean(self) -> float:
        """Analytic mean of the on-cone angle a + (b - a) Z."""
        z_mean = self.z_p / (self.z_p + self.z_q)
        return self.cone.a + (self.cone.b - self.cone.a) * z_mean

    @property
    def theta1_var(self) -> float:
        """Analytic variance of the on-cone angle."""
        p, q = self.z_p, self.z_q
        z_var = p * q / ((p + q) ** 2 * (p + q + 1.0))
        return (self.cone.b - self.cone.a) ** 2 * z_var


EXAMPLE1_SPEC = MixtureSpec(
    alpha_main=2.0, alpha_hidden=4.0, cone=AngularCone(0.25, 0.75),
    z_p=0.05, z_q=0.1, mix_prob=0.5,
)
EXAMPLE2_SPEC = MixtureSpec(
    alpha_main=2.0, alpha_hidden=4.0, cone=AngularCone(0.25, 0.75),
    z_p=1.0, z_q=2.0, mix_prob=0.5,
)


def pareto(alpha: float, size: int, gen: np.random.Generator) -> np.ndarray:
    """Standard Pareto draws with P(R > x) = x^(-alpha), x >= 1."""
    if not alpha > 0:  # NaN fails too
        raise ValueError(f"alpha must be positive, got {alpha}")
    with np.errstate(over="ignore"):
        r = (1.0 - gen.random(size)) ** (-1.0 / alpha)
    if np.isinf(r).any():
        raise ValueError(f"alpha = {alpha} is too small: a Pareto draw overflows the float range")
    return r


def sample_beta(p: float, q: float, size: int, gen: np.random.Generator) -> np.ndarray:
    """Beta(p, q) draws via the ratio G1 / (G1 + G2) of two gamma variates.

    Valid for all shapes, including p, q < 1. A gamma draw that rounds to
    0, common at shapes below about 0.01, lies below 2^-1075, where its
    density is g^(a - 1) / Gamma(a) (e^-g = 1): given that, log G =
    -1075 log 2 - E / a, E standard exponential, and its row takes the
    ratio from the log difference.
    """
    if not (p > 0 and q > 0):  # NaN fails too
        raise ValueError(f"shapes must be positive, got p={p}, q={q}")
    g1, g2 = gen.standard_gamma(p, size), gen.standard_gamma(q, size)
    bad = np.flatnonzero((g1 == 0.0) | (g2 == 0.0))
    s = min(p, q)  # s log G stays finite where log G overflows; divided out last
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = g1 / (g1 + g2)
        l1, l2 = (np.where(g[bad] > 0.0, s * np.log(g[bad]),
                           s * np.log(2.0) * -1075 - gen.standard_exponential(bad.size) * (s / a))
                  for g, a in ((g1, p), (g2, q)))
        z[bad] = 1.0 / (1.0 + np.exp((l2 - l1) / s))
    return z


def uniform_off_cone(cone: AngularCone, size: int, gen: np.random.Generator) -> np.ndarray:
    """Uniform draws on [0, a) union (b, 1], pieces weighted by length."""
    left = cone.a
    right = 1.0 - cone.b
    total = left + right
    if total <= 0.0:
        raise ValueError("cone [0, 1] leaves no angular complement to draw from")
    v = gen.random(size) * total
    return np.where(v < left, v, cone.b + (v - left))


def generate(spec: MixtureSpec, n: int, seed: int) -> BivariateSample:
    """Draw n iid points from the mixture, deterministically per seed."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    on_cone = stream(seed, _SUB_BERNOULLI).random(n) < spec.mix_prob
    z = sample_beta(spec.z_p, spec.z_q, n, stream(seed, _SUB_Z))
    theta1 = spec.cone.a + (spec.cone.b - spec.cone.a) * z
    r1 = pareto(spec.alpha_main, n, stream(seed, _SUB_R_MAIN))
    if spec.mix_prob < 1.0:
        r2 = pareto(spec.alpha_hidden, n, stream(seed, _SUB_R_HIDDEN))
        theta2 = uniform_off_cone(spec.cone, n, stream(seed, _SUB_THETA_OFF))
    else:
        r2 = np.zeros(n)
        theta2 = np.zeros(n)
    r = np.where(on_cone, r1, r2)
    theta = np.where(on_cone, theta1, theta2)
    return BivariateSample(r * theta, r * (1.0 - theta))


def example1(n: int, seed: int) -> BivariateSample:
    """Bimodal angular mixture: Z ~ Beta(0.05, 0.1) on cone [0.25, 0.75]."""
    return generate(EXAMPLE1_SPEC, n, seed)


def example2(n: int, seed: int) -> BivariateSample:
    """Low-spread angular mixture: Z ~ Beta(1, 2) on cone [0.25, 0.75]."""
    return generate(EXAMPLE2_SPEC, n, seed)
