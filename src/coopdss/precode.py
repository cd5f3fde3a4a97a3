"""Coefficient order and seeded randomness for the Gabidulin precoding.

The secret symbols u and uniform random symbols r are the coefficients of the
linearized polynomial that `codes.base.GabidulinScheme` evaluates at the
canonical basis of GF(p^M).  Coefficient order is fixed: r occupies indices
[0, M-Ms), u occupies [Ms, M).  Putting the randomness at the low Frobenius
powers makes the eavesdropper's r-recovery system a square Moore matrix on
independent points, hence invertible, which is exactly the condition the
secrecy argument needs.

Random symbols come from a splitmix64 stream (constants below) reduced to
field coordinates by rejection sampling, so encoded byte streams are
reproducible from a 64-bit seed.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Iterator

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# words drawn per block of 128-bit lanes (see `_splitmix_lanes`)
_LANES = 1024


def splitmix64(seed: int) -> Iterator[int]:
    """The splitmix64 stream: gamma 0x9E3779B97F4A7C15, mixers as published."""
    state = seed & _MASK64
    while True:
        state = (state + _GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        yield z ^ (z >> 31)


@lru_cache(maxsize=8)
def _lane_constants(lanes: int) -> tuple[int, int, int, struct.Struct]:
    """For `lanes` 128-bit lanes, lane j at bits [128 j, 128 j + 128): the
    int with 1 in every lane, the int with gamma (j + 1) in lane j, the
    int with 2^64 - 1 in every lane, and the struct that unpacks the lanes
    as 64-bit halves.  Bounded: at most 8 entries of three ints of 16 lanes
    bytes each (lanes <= 1024), about 400 KB at worst; a lifetime draws a
    few sizes."""
    top, lane = 1 << 128 * lanes, (1 << 128) - 1  # x^N and x - 1, x = 2^128
    ones = (top - 1) // lane
    # sum_j (j + 1) x^j = sum_i (x^N - x^i) / (x - 1) = (N x^N - ones) / (x - 1)
    ramp = (lanes * top - ones) // lane * _GAMMA
    return ones, ramp, ones * _MASK64, struct.Struct(f"<{2 * lanes}Q")


def _splitmix_lanes(seed: int, count: int) -> list[int]:
    """The first `count` words of `splitmix64(seed)`, seed below 2^64.

    Word j depends only on its state seed + (j + 1) gamma mod 2^64, so a
    block of words is mixed at once: one int holds every state in a 128-bit
    lane, and each step of the mixer runs on the whole int.  A lane is
    masked to 64 bits before each multiply by a 64-bit constant, so no
    product leaves its lane; a right shift carries the next lane's low bits
    into bits 64 and up, which the mask clears.  Blocks of at most `_LANES`
    words; the next block starts where the last one ended."""
    words: list[int] = []
    while len(words) < count:
        lanes = min(_LANES, count - len(words))
        ones, ramp, mask, unpack = _lane_constants(lanes)
        z = (seed * ones + ramp) & mask
        z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
        z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
        z = (z ^ (z >> 31)) & mask
        words += unpack.unpack(z.to_bytes(unpack.size, "little"))[::2]
        seed = (seed + lanes * _GAMMA) & _MASK64
    return words


def random_symbols(field, count: int, seed: int) -> list[int]:
    """`count` uniform field elements from a seeded splitmix64 stream.

    Each coordinate is the first 64-bit word of the stream below the largest
    multiple of p, mod p (rejection sampling); extension-field elements are
    drawn coordinate 0 first.  All count * m words are drawn at once
    (`_splitmix_lanes`); when one of them is rejected, which happens with
    probability below count * m * p / 2^64, the stream is walked one word
    at a time instead, so the symbols are the same either way.
    """
    p, m = field.char, field.degree
    total = count * m
    if total <= 0:
        return []
    limit = (1 << 64) - ((1 << 64) % p)
    words = _splitmix_lanes(seed & _MASK64, total)
    if max(words) >= limit:
        accepted = (w for w in splitmix64(seed) if w < limit)
        words = [next(accepted) for _ in range(total)]
    coords = [w % p for w in words]
    if m == 1:
        return coords  # a prime-field element is its coordinate
    return [field.from_coords(coords[i:i + m]) for i in range(0, total, m)]


def coefficients(u, r) -> tuple[int, ...]:
    """Coefficient vector in the documented order: r first, then u."""
    return tuple(r) + tuple(u)
