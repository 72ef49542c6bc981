"""numpy's `default_rng(seed).uniform` stream in pure Python, bit for bit.

Matrix jitter draws a handful of numbers per run; importing `numpy.random`
for them costs about 6 MB of a job's memory.  This module reproduces the
three parts of numpy's default generator:

- `SeedSequence` mixing: the seed's 32-bit words are hash-mixed into a pool
  of 4 words, from which 8 state words are drawn
  (https://numpy.org/doc/stable/reference/random/bit_generators/generated/numpy.random.SeedSequence.html);
- PCG64, a 128-bit linear congruential generator with the XSL-RR output
  (M. E. O'Neill, "PCG: A Family of Simple Fast Space-Efficient
  Statistically Good Algorithms for Random Number Generation", 2014,
  https://www.pcg-random.org/paper.html);
- a double from the top 53 bits of each output, scaled to [low, high).
"""
from __future__ import annotations

import math

import numpy as np

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF
MASK128 = (1 << 128) - 1

# SeedSequence hash and mix constants (numpy/random/bit_generator.pyx)
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
POOL_SIZE = 4

PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix: a function of a 32-bit word whose hash
    constant advances at each call."""

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & MASK32
        value = value * hash_const & MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    r = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
    return r ^ r >> 16


def _seed_words(seed: int) -> list:
    """The 32-bit words of a nonnegative seed, least significant first; [0]
    for the seed 0."""
    words = [seed & MASK32]
    seed >>= 32
    while seed:
        words.append(seed & MASK32)
        seed >>= 32
    return words


def seed_state(seed: int) -> tuple:
    """The four 64-bit words `SeedSequence(seed).generate_state(4, uint64)`."""
    entropy = _seed_words(seed)
    hashmix = _hasher(INIT_A, MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(INIT_B, MULT_B)
    words = [hashmix(pool[i % POOL_SIZE]) for i in range(8)]
    return tuple(words[i] | words[i + 1] << 32 for i in range(0, 8, 2))


class PCG64:
    """numpy's `default_rng(seed)`, restricted to `uniform`."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        s_hi, s_lo, i_hi, i_lo = seed_state(seed)
        self.inc = ((i_hi << 64 | i_lo) << 1 | 1) & MASK128
        # numpy's pcg64_set_seed: one step from 0 lands on inc, then the seed is added
        self.state = (self.inc + (s_hi << 64 | s_lo)) & MASK128
        self._step()

    def _step(self) -> None:
        self.state = (self.state * PCG_MULTIPLIER + self.inc) & MASK128

    def next64(self) -> int:
        """The next 64-bit output: the state steps, then its two halves are
        xored and rotated right by its top 6 bits."""
        self._step()
        rot = self.state >> 122
        x = ((self.state >> 64) ^ self.state) & MASK64
        return (x >> rot | x << (64 - rot)) & MASK64

    def random(self) -> float:
        """A double in [0, 1) from the top 53 bits of the next output."""
        return (self.next64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float, size=None):
        """Numbers uniform on [low, high): a float, or an array of the given
        shape filled in C order.  Like numpy, refuses a range that is
        negative or not finite."""
        low, high = float(low), float(high)
        span = high - low
        if not math.isfinite(span) or math.copysign(1.0, span) < 0:
            raise ValueError(f"high - low = {span} must be finite and >= 0")
        if size is None:
            return low + span * self.random()
        shape = size if isinstance(size, tuple) else (size,)
        return np.array([low + span * self.random() for _ in range(math.prod(shape))]).reshape(shape)
