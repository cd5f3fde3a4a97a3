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


def splitmix64(seed: int) -> Iterator[int]:
    """The splitmix64 stream: gamma 0x9E3779B97F4A7C15, mixers as published."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _draw_mod(stream: Iterator[int], p: int) -> int:
    # rejection sampling: draw 64-bit words until below the largest multiple of p
    limit = (1 << 64) - ((1 << 64) % p)
    while True:
        w = next(stream)
        if w < limit:
            return w % p


def random_symbols(field, count: int, seed: int) -> list[int]:
    """`count` uniform field elements from a seeded splitmix64 stream.

    Extension-field elements are drawn coordinate 0 first.
    """
    stream = splitmix64(seed)
    p = field.char
    out = []
    for _ in range(count):
        coords = [_draw_mod(stream, p) for _ in range(field.degree)]
        out.append(field.from_coords(coords))
    return out


def coefficients(u, r) -> tuple[int, ...]:
    """Coefficient vector in the documented order: r first, then u."""
    return tuple(r) + tuple(u)
