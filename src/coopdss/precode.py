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

from typing import Iterator

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(seed: int) -> Iterator[int]:
    """The splitmix64 stream: gamma 0x9E3779B97F4A7C15, mixers as published."""
    state = seed & _MASK64
    while True:
        state = (state + _GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        yield z ^ (z >> 31)


def random_symbols(field, count: int, seed: int) -> list[int]:
    """`count` uniform field elements from a seeded splitmix64 stream.

    Each coordinate is the first 64-bit word of the stream below the largest
    multiple of p, mod p (rejection sampling); extension-field elements are
    drawn coordinate 0 first.  The stream runs inline, one loop over every
    coordinate, with no generator; `splitmix64` gives the same words.
    """
    p, m = field.char, field.degree
    limit = (1 << 64) - ((1 << 64) % p)
    state = seed & _MASK64
    coords: list[int] = []
    for _ in range(count * m):
        while True:
            state = (state + _GAMMA) & _MASK64
            z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            z ^= z >> 31
            if z < limit:
                coords.append(z % p)
                break
    if m == 1:
        return coords  # a prime-field element is its coordinate
    return [field.from_coords(coords[i:i + m]) for i in range(0, count * m, m)]


def coefficients(u, r) -> tuple[int, ...]:
    """Coefficient vector in the documented order: r first, then u."""
    return tuple(r) + tuple(u)
