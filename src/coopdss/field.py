"""Exact arithmetic in GF(p) and GF(p^m), plus the linear algebra used everywhere else.

Prime-field elements are plain ints in [0, p).  Extension-field elements are
packed ints: m base-p digits, digit i holding the coefficient of X^i in a
whole little-endian machine word (bits [W*i, W*(i+1)), W = 32, or 64 when 32
bits cannot hold the sum of m unreduced products).  A product of two packed
elements is one big-int multiply (Kronecker substitution): its 2m-1 digits
are the coefficient sums of the polynomial product, carry-free because a word
outgrows any digit sum the field can produce.

Every extension field is a binomial field: its modulus is X^m + c0, in
closed form by Lidl & Niederreiter, Thm 3.75 (see `find_irreducible`), and
the constructions pick their prime with `binomial_prime` so that one exists.
Every GF(p^m) result goes through one reduction, `_reduce`: fold the digits
at X^m and above back with one scalar multiply (X^m = -c0), then bring every
digit into [0, p) at once with `_normalize`, a fixed plan of big-int
operations on the whole packed int and no per-digit loop (see
`_reduction_plan`).  The word is wide enough that `_dot_chunk` = word mask //
(the largest folded digit one product can give) products sum before a
reduction is due, so work is reduced once per result, not once per multiply
(delayed reduction; Dumas, Giorgi & Pernet, FFLAS-FFPACK, 2008):

- `mul` reduces once per product;
- `dot` sums raw products and reduces once per dot product, or once per
  `_dot_chunk` terms;
- each elimination entry, a - v*b, is one reduced element plus one raw
  product, reduced once;
- each back-substitution entry is a `dot` over the solved tail.

Inverses are closed forms too: a constant inverts in GF(p), and any other a
by its norm, a^-1 = N(a)^-1 * prod_{0<i<m} a^(p^i) with N(a) in GF(p)
(`ExtField.inv`): m-1 Frobenius maps and m-1 products, no polynomial
division.  GF(p) below p = 4096 reads a table of every inverse, built on
its first `inv` in O(p) steps.

The modulus depends on (p, m) alone, so every encoded byte is reproducible
across runs and platforms.  Serialisation goes through the base-field
coordinates, so bytes do not depend on the slot layout.  Each field class
has one codec pair, `symbols_to_bytes` / `symbols_from_bytes`, for a run of
symbols; node files, the CLI and the trace writer all use it.  Both refuse a
coordinate outside [0, p); on GF(p^m) one word-parallel test covers the
whole run (`ExtField._check_words`).

Rank and solving share one exact, deterministic elimination
(`Matrix._echelon`): it builds the echelon form one row at a time, reducing
each row against the basis rows found so far, each with a leading one, so a
pivot costs one inverse and back-substitution divides by nothing.  Rank
stops once every column leads a basis row.  The row operations are two
per-field kernels (`_sub_scaled`, `_scale`): GF(p) reduces each entry with
one `% p` and skips the zero entries of the basis row.
The mbcr-exact, mscr-dk and mbcr-bivariate repair and reconstruct systems
run no elimination: they are base-field Vandermonde and Cauchy matrices,
whose inverses are closed forms (`vandermonde_inverse`, `cauchy_inverse`)
applied as the steps of a cached plan (`codes.base.RepairPlan`), which
each field runs by its `compile_plan`.  GF(p^m) runs the steps
(`run_steps`): each is a GF(p)-scaled sum, already word-parallel over the m
digits, reduced with the plan for its own digit bound.  GF(p) composes the
whole plan once into one matrix and runs it as one packed product: column i
packs the matrix entries of input i, one per output lane, so the sum of the
inputs times their columns holds every output, each lane at most L (p-1)^2
for L inputs; one `_reduction_plan` reduces every lane at once and one
unpack reads them.  The lanes are 32 bits when that bound fits, else 64,
and the inputs are chunked when it passes 64 bits.  mscr-dk and
mbcr-bivariate repair never solve for coefficients at all: each symbol they
send or rebuild is one polynomial value, one step of a Lagrange row
(`lagrange_row`, the inverse Vandermonde evaluated at the wanted point) with
the values downloaded.  Two small
schemes do eliminate: every mscr-ia repair solves each newcomer's
(alpha+1)-system with `Matrix.solve`, and insecure-demo solves a 2x2 system
with it in both reconstruct and repair.  The closed forms depend only on
public points, so bounded process-wide caches keep them as immutable
tuples: `vandermonde_inverse_rows` (256 entries, keyed by the prime and the
point tuple) and `lagrange_row` (4096 entries, keyed by the prime, the
point tuple and the point wanted).

The Gabidulin precoding map, the Moore matrix of a field's canonical basis,
and its inverse are never built as matrices.  On a binomial field every
entry of either is a GF(p)-scaled monomial c^a X^s, so one table of GF(p)
ints per field, built in O(m^2) integer operations and cached like the
fields, drives both (`basis_moore_apply`, `basis_moore_inverse_apply`):
GF(p)-scalar dots and word shifts, one `_normalize` per output, and no
product of two GF(p^m) elements.  The inverse is the Moore matrix of the
trace-dual basis, a scaled and permuted transpose; no elimination runs.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import islice
from math import prod
from operator import itemgetter, mul as _int_mul
from typing import Callable, Iterable, Sequence


class NoSolutionError(ValueError):
    """The linear system is inconsistent."""


class UnderdeterminedError(ValueError):
    """The linear system is consistent but rank-deficient."""


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def next_prime(n: int) -> int:
    """The least prime >= n."""
    while not _is_prime(n):
        n += 1
    return n


def binomial_prime(lo: int, m: int) -> int:
    """The least prime p >= lo over which GF(p^m) has a binomial modulus:
    p = 1 mod rad(m), and p = 1 mod 4 when 4 | m (see `find_irreducible`)."""
    step = prod(_prime_factors(m))  # rad(m)
    if m % 4 == 0:
        step *= 2  # rad(m) is squarefree, so this forces p = 1 mod 4 too
    p = 1 + step * -(-(lo - 1) // step)  # least p = 1 mod step with p >= lo
    while not _is_prime(p):
        p += step
    return p


def coordinate_bytes(p: int) -> int:
    """Bytes of one serialised GF(p) coordinate: the fewest that hold p-1."""
    return ((p - 1).bit_length() + 7) // 8


def _product_bound(p: int, m: int) -> int:
    """The largest digit one product of reduced GF(p^m) elements leaves after
    the fold: m*(p-1)^2 per product digit, plus one top digit times the
    binomial's scalar c < p."""
    return m * (p - 1) ** 2 * p


def fits_word_slots(p: int, m: int) -> bool:
    """Whether GF(p^m) fits ExtField's 64-bit digit slots: a word must hold
    the sum of m products (one Moore row) and of the 2 of an elimination
    entry, about m^2 p^3 < 2^64.  Cheap for any m: it builds nothing."""
    return 0xFFFFFFFFFFFFFFFF // _product_bound(p, m) >= max(m, 2)


def word_bits(p: int, m: int) -> int:
    """The digit word of GF(p^m), for (p, m) that `fits_word_slots` admits:
    32 bits when one holds the sum of m products, else 64."""
    return 32 if 0xFFFFFFFF // _product_bound(p, m) >= max(m, 2) else 64


def _reduction_plan(p: int, db: int, m: int,
                    bound: int | None = None) -> tuple[tuple, tuple[int, int, int]]:
    """The word-parallel plan that brings every digit of m db-bit words into
    [0, p): (folds, (c, s, q)), in closed form, for digits at most `bound`
    (below 2^db; 2^db - 1 when omitted).

    Each digit is reduced in every word at once, so no carry or borrow may
    cross a word.  W bounds the digits: `bound` on entry.  A field reduces
    any word with the plan for 2^db - 1; a sum of L GF(p)-scaled reduced
    elements has digits at most L (p-1)^2, and its plan needs fewer folds,
    none for short sums (see `ExtField.run_steps`).
    - A fold (h, hi, r, lo) runs v = ((v >> h) & hi) * r + (v & lo) with
      r = 2^h mod p: digit d = a 2^h + b becomes a r + b, congruent mod p and
      at most W' = (W >> h) r + 2^h - 1 < W.  h = (bitlen(W) + bitlen(p) + 1)
      // 2 about balances the two terms.
    - The quotient step v - p * (((v * c) >> s) & q), c = ceil(2^s / p) and
      e = c p - 2^s, takes floor(d / p) off every digit (Granlund &
      Montgomery, PLDI 1994; Barrett, CRYPTO 1986).  W c < 2^db keeps each
      d c inside its word, and W e < 2^s makes floor(d c / 2^s) =
      floor(d / p) for every d <= W.  s is the largest that satisfies both;
      while none does, fold.
    hi, lo and q repeat one per-word bit mask over the m words: the repunit
    sum_i 2^(db i) times the mask.

    The plan exists for every field the words admit: p < 2^11 in 32-bit
    words and p < 2^21 in 64-bit ones (`fits_word_slots`).  While
    bitlen(W) > bitlen(p) + 3 a fold leaves W' < 2^(h+1), at least one bit
    shorter than W; below that, s = 2 bitlen(p) + 3 meets both conditions,
    since 2 bitlen(p) + 7 < db.  Every such field needs at most 3 folds;
    more raises ValueError.
    """
    repunit = ((1 << db * m) - 1) // ((1 << db) - 1)
    if bound is None:
        bound = (1 << db) - 1
    pbits = p.bit_length()
    folds = []
    while len(folds) <= 3:
        wbits = bound.bit_length()
        # W c < 2^db needs s < db + log2(p) - log2(W); W e < 2^s needs s >= wbits
        for s in range(min(db - 1, db + pbits - wbits), wbits - 1, -1):
            c = -(-(1 << s) // p)
            if bound * c >> db == 0 and bound * (c * p - (1 << s)) >> s == 0:
                return tuple(folds), (c, s, repunit * ((1 << db - s) - 1))
        h = (wbits + pbits + 1) // 2
        r = (1 << h) % p
        folds.append((h, repunit * ((1 << db - h) - 1), r, repunit * ((1 << h) - 1)))
        bound = (bound >> h) * r + (1 << h) - 1
    raise ValueError(f"no reduction plan of at most 3 folds for GF({p}) in {db}-bit words")


def find_irreducible(p: int, m: int) -> tuple[int, ...]:
    """The modulus of GF(p^m): X^m + c0 with the least c0 in [1, p) that
    makes it irreducible, as coefficients (c0, 0, ..., 0, 1).

    X^m - a (a != 0) is irreducible over GF(p) iff every prime r | m divides
    p - 1 and a^((p-1)/r) != 1, and p = 1 mod 4 when 4 | m (Lidl &
    Niederreiter, *Finite Fields*, Thm 3.75).  Binomials come first in the
    lexicographic order of monic polynomials (c0 varying fastest), so this
    is the lex-first irreducible of degree m.  Raises ValueError when no
    binomial of degree m is irreducible over GF(p).
    """
    primes = _prime_factors(m)
    if any((p - 1) % r for r in primes) or (m % 4 == 0 and p % 4 != 1):
        raise ValueError(f"GF({p}^{m}) has no binomial modulus")
    # a primitive root a = p - c0 passes, so the search stops below p
    c0 = next(c for c in range(1, p)
              if all(pow(p - c, (p - 1) // r, p) != 1 for r in primes))
    return (c0,) + (0,) * (m - 1) + (1,)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class PrimeField:
    """GF(p).  Elements are ints in [0, p)."""

    __slots__ = ("p", "order", "char", "degree", "zero", "one", "coord_width", "_inverses")

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.order = p
        self.char = p
        self.degree = 1
        self.zero = 0
        self.one = 1
        self.coord_width = coordinate_bytes(p)
        self._inverses = None  # built on the first inv when p < _INVERSE_TABLE_P

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def scalar_mul(self, c: int, a: int) -> int:
        """Multiply by a base-field scalar (same as mul in a prime field)."""
        return (c * a) % self.p

    def dot(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        """sum_i xs[i] * ys[i], reduced once."""
        return sum(map(_int_mul, xs, ys)) % self.p

    def run_steps(self, steps: Sequence[tuple[Sequence[int], Sequence[int]]],
                  vals: list[int]) -> None:
        """For each (row, src) step in order, append to `vals` the dot of the
        GF(p) row with the values at the slots `src` of `vals`, so a step
        may read the slot an earlier step appended.  The straight-line
        program of a repair plan (see `codes.base.RepairPlan`)."""
        p, get, append = self.p, vals.__getitem__, vals.append
        for row, src in steps:
            append(sum(map(_int_mul, row, map(get, src))) % p)

    def compile_plan(self, n_in: int, steps, out: Sequence[int]
                     ) -> Callable[[Sequence[int]], tuple[int, ...]]:
        """A plan (`codes.base.RepairPlan`: `n_in` inputs, its `steps`, the
        slots `out` it returns) as one packed product (see the module
        docstring; Dumas, Fousse & Salvy, JSC 2011), composed by the same
        kernel, slot j's row over the inputs a packed int, then transposed,
        in the narrower lanes whose `_reduction_plan` covers the longest
        step and a chunk of terms plus the reduced total.  An input outside
        [0, p) is first reduced, as `run_steps` would; a p too large for
        64-bit lanes runs the steps, as GF(p^m) does."""
        p, sq = self.p, max(1, (self.p - 1) ** 2)
        cap = ((1 << 64) - 1) // sq  # terms a 64-bit lane holds
        chunk = n_in if n_in <= cap else cap - 1
        words = max(n_in, len(out))
        bound = max([len(row) for row, _ in steps] + [min(n_in, chunk + 1)]) * sq
        for db in (32, 64):
            try:
                if chunk > 0 and bound >> db == 0:
                    folds, (c, s, q) = _reduction_plan(p, db, words, bound)
                    break
            except ValueError:
                pass
        else:  # run the steps, with this field's `run_steps`
            return ExtField.compile_plan(self, n_in, steps, out)
        vecs = [1 << db * i for i in range(n_in)]
        get = vecs.__getitem__
        for row, src in steps:
            v = sum(map(_int_mul, row, map(get, src)))
            for h, hi, r, lo in folds:
                v = ((v >> h) & hi) * r + (v & lo)
            vecs.append(v - p * (((v * c) >> s) & q))
        code, w = ("I", 4) if db == 32 else ("Q", 8)
        table = memoryview(b"".join([vecs[j].to_bytes(n_in * w, "little") for j in out])).cast(code)
        columns = [int.from_bytes(table[i::n_in].tobytes(), "little") for i in range(n_in)]
        chunks = [(start, columns[start:start + chunk]) for start in range(0, n_in, chunk)]
        unpack, size = struct.Struct(f"<{len(out)}{code}").unpack, len(out) * w

        def run(vals):
            if min(vals) < 0 or max(vals) >= p:  # the lane bound needs reduced inputs
                vals = [v % p for v in vals]
            acc = 0
            for start, cols in chunks:
                v = acc + sum(map(_int_mul, islice(vals, start, None) if start else vals, cols))
                for h, hi, r, lo in folds:
                    v = ((v >> h) & hi) * r + (v & lo)
                acc = v - p * (((v * c) >> s) & q)
            return unpack(acc.to_bytes(size, "little"))
        return run

    def _sub_scaled(self, row: list[int], v: int, lead: Sequence[int], start: int) -> None:
        """row[j] -= v * lead[j] for j >= start, in place: the row operation
        of `Matrix._echelon`.  Zero entries of lead leave row[j] as it is."""
        p = self.p
        for j in range(start, len(row)):
            b = lead[j]
            if b:
                row[j] = (row[j] - v * b) % p

    def _scale(self, row: list[int], s: int, start: int) -> None:
        """row[j] *= s for j >= start, in place."""
        p = self.p
        for j in range(start, len(row)):
            a = row[j]
            if a:
                row[j] = a * s % p

    def _reduce(self, v: int) -> int:
        """A nonnegative sum of products back into [0, p)."""
        return v % self.p

    def inv(self, a: int) -> int:
        p, a = self.p, a % self.p
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if p >= _INVERSE_TABLE_P:
            return pow(a, p - 2, p)
        if self._inverses is None:  # from p = (p // i) i + p % i: 1/i = -(p // i) / (p % i)
            self._inverses = table = [0, 1]
            for i in range(2, p):
                table.append(-(p // i) * table[p % i] % p)
        return self._inverses[a]

    def frobenius(self, a: int) -> int:
        return a % self.p

    def coords(self, a: int) -> tuple[int, ...]:
        return (a,)

    def from_coords(self, coords: Sequence[int]) -> int:
        if len(coords) != 1:
            raise ValueError("prime-field element has one coordinate")
        return coords[0] % self.p

    def symbols_to_bytes(self, symbols: Sequence[int]) -> bytes:
        """The symbols, coord_width little-endian bytes each.  A symbol
        outside [0, p) raises ValueError, as `symbols_from_bytes` would."""
        _check_coords(symbols, self.p)
        w = self.coord_width
        try:
            return b"".join([a.to_bytes(w, "little") for a in symbols])
        except OverflowError:  # below p, so only a negative symbol overflows
            bad = next(a for a in symbols if a < 0)
            raise ValueError(f"coordinate {bad} out of range for GF({self.p})") from None

    def symbols_from_bytes(self, bs: bytes) -> list[int]:
        """Every symbol of `bs` (coord_width bytes each), with one range check."""
        w = self.coord_width
        if w == 1:
            symbols = list(bs)
        elif len(bs) % w:
            raise ValueError("wrong symbol width")
        else:
            symbols = [int.from_bytes(bs[i:i + w], "little") for i in range(0, len(bs), w)]
        _check_coords(symbols, self.p)
        return symbols

    @property
    def symbol_bytes(self) -> int:
        return self.coord_width

    def primitive_element(self) -> int:
        """Smallest generator of GF(p)^*."""
        target = self.p - 1
        factors = _prime_factors(target)
        for w in range(2, self.p):
            if all(pow(w, target // f, self.p) != 1 for f in factors):
                return w
        raise ValueError("no generator found")  # unreachable for p prime


class ExtField:
    """GF(p^m) with its binomial modulus X^m + c0 over the prime base field.

    Elements are packed ints: digit i, in a 32- or 64-bit word slot, holds
    the coefficient of X^i.  All public operations take and return packed
    ints with every digit in [0, p).  Each result is brought back into
    [0, p) by `_normalize`, which runs the field's `_reduction_plan` (at
    most 3 folds and one quotient step, each a handful of big-int operations
    on the whole packed int), so its cost does not grow with one Python step
    per digit.
    """

    __slots__ = (
        "base", "p", "m", "modulus", "order", "char", "degree", "zero", "one",
        "coord_width", "_db", "_mask", "_low_mask", "_all_p", "_binomial_c",
        "_dot_chunk", "_words", "_folds", "_quotient", "_step_plans", "_frobenius_table",
        "_range", "_digits",
    )

    def __init__(self, base: PrimeField, m: int):
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        p = base.p
        # refused before p^m is built: this caps the extension degree
        if not fits_word_slots(p, m):
            raise ValueError(f"GF({p}^{m}) is too large for 64-bit digit slots")
        self._db = db = word_bits(p, m)
        self._mask = mask = (1 << db) - 1
        # terms a sum may hold before it must be reduced (see dot)
        self._dot_chunk = mask // _product_bound(p, m)

        self.base = base
        self.p = p
        self.m = m
        self.degree = m
        self.char = p
        self.order = p ** m
        self.modulus = find_irreducible(p, m)
        self._binomial_c = p - self.modulus[0]  # X^m = -c0

        code = "I" if db == 32 else "Q"
        self._words = struct.Struct(f"<{m}{code}")
        self._low_mask = (1 << (db * m)) - 1
        self._all_p = self._pack([p] * m)
        self._folds, self._quotient = _reduction_plan(p, db, m)
        self._step_plans = {}  # row length -> reduction plan (see run_steps)
        self._frobenius_table = None  # built on first use (see frobenius)
        self._range = (0, 0, 0)  # range-check constants, built on use (see _check_words)
        self._digits = bytes(range(p)) if p < 256 else None  # see _check_words
        self.zero = 0
        self.one = 1
        self.coord_width = base.coord_width

    def __eq__(self, other):
        # the modulus is a function of (p, m)
        return isinstance(other, ExtField) and other.p == self.p and other.m == self.m

    def __hash__(self):
        return hash(("ExtField", self.p, self.m))

    def __repr__(self):
        return f"GF({self.p}^{self.m})"

    # -- packing ------------------------------------------------------------

    def _pack(self, coords: Sequence[int]) -> int:
        # at most m nonnegative digits below 2^_db
        pad = (0,) * (self.m - len(coords))
        return int.from_bytes(self._words.pack(*coords, *pad), "little")

    def _normalize(self, v: int) -> int:
        """Every digit of v (m words, each below 2^_db) into [0, p), in every
        word at once: the folds and the quotient step of `_reduction_plan`."""
        if v <= self._mask:
            return v % self.p  # one digit: a base-field constant
        for h, hi, r, lo in self._folds:
            v = ((v >> h) & hi) * r + (v & lo)
        c, s, q = self._quotient
        return v - self.p * (((v * c) >> s) & q)

    def _reduce(self, v: int) -> int:
        """A nonnegative sum of at most `_dot_chunk` products of reduced
        elements (2m-1 digits) back to a reduced element: fold the digits at
        X^m and above with one scalar multiply, then normalise."""
        top = v >> (self._db * self.m)
        if top:
            v = (v & self._low_mask) + self._binomial_c * top
        return self._normalize(v)

    def coords(self, a: int) -> tuple[int, ...]:
        words = self._words
        return words.unpack(a.to_bytes(words.size, "little"))

    def from_coords(self, coords: Sequence[int]) -> int:
        if len(coords) > self.m:
            raise ValueError("too many coordinates")
        return self._pack([c % self.p for c in coords])

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._normalize(a + b)

    def neg(self, a: int) -> int:
        if a == 0:
            return 0
        return self._normalize(self._all_p - a)

    def sub(self, a: int, b: int) -> int:
        return self._normalize(a + self._all_p - b)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._reduce(a * b)

    def scalar_mul(self, c: int, a: int) -> int:
        """Multiply by a base-field scalar: digit-wise scale, one reduction."""
        c %= self.p
        if c == 0 or a == 0:
            return 0
        if c == 1:
            return a
        return self._normalize(c * a)

    def dot(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        """sum_i xs[i] * ys[i] with delayed reduction.

        The raw products are summed as packed ints and reduced once, or once
        per `_dot_chunk` terms, the most that fit the digit words.
        """
        reduce, chunk = self._reduce, self._dot_chunk
        if len(xs) <= chunk:
            return reduce(sum(map(_int_mul, xs, ys)))
        step = chunk - 1  # a reduced partial sum takes one term's room
        acc = 0
        for i in range(0, len(xs), step):
            acc = reduce(acc + sum(map(_int_mul, xs[i:i + step], ys[i:i + step])))
        return acc

    def run_steps(self, steps: Sequence[tuple[Sequence[int], Sequence[int]]],
                  vals: list[int]) -> None:
        """For each (row, src) step in order, append to `vals` the dot of the
        GF(p) row with the elements at the slots `src` of `vals` (see
        `PrimeField.run_steps`); every value must be reduced.

        A GF(p) scalar scales each digit of a reduced element, so the sum of
        an L-term step has no digit above X^(m-1) and every digit at most
        L (p-1)^2: it is reduced by the `_reduction_plan` for that bound,
        which for short rows is the quotient step alone, not the folds a
        full word needs.  A row too long for the word, L (p-1)^2 >= 2^db,
        goes through `dot`'s chunked path.  One plan per row length, built
        on first use and kept on the field (`_step_plans`: at most one entry
        per length met, each a few ints of m words)."""
        p, get, append = self.p, vals.__getitem__, vals.append
        plans = self._step_plans
        for row, src in steps:
            plan = plans.get(len(row))
            if plan is None:
                plan = plans[len(row)] = self._step_plan(len(row))
            if not plan:
                append(self.dot(row, [vals[j] for j in src]))
                continue
            v = sum(map(_int_mul, row, map(get, src)))
            folds, (c, s, q) = plan
            for h, hi, r, lo in folds:
                v = ((v >> h) & hi) * r + (v & lo)
            append(v - p * (((v * c) >> s) & q))

    def compile_plan(self, n_in: int, steps, out: Sequence[int]
                     ) -> Callable[[list[int]], tuple[int, ...]]:
        """A plan (`codes.base.RepairPlan`) as a run of its `steps` in order
        on the list of its `n_in` input values, which it extends (`run_steps`:
        each step is already one m-lane word-parallel dot), then a gather
        of the slots `out` as one tuple."""
        run_steps = self.run_steps
        # itemgetter of one slot returns the bare value, not a 1-tuple
        gather = itemgetter(*out) if len(out) > 1 else lambda vals: tuple(vals[j] for j in out)

        def run(vals):
            run_steps(steps, vals)
            return gather(vals)
        return run

    def _sub_scaled(self, row: list[int], v: int, lead: Sequence[int], start: int) -> None:
        """row[j] -= v * lead[j] for j >= start, in place, every entry
        reduced (see `PrimeField._sub_scaled`).  Each new entry is one
        reduced element plus one product, row[j] + (-v) * lead[j]: within
        the two products that `fits_word_slots` makes every word hold, so
        one `_reduce` each."""
        reduce, nv = self._reduce, self.neg(v)
        for j in range(start, len(row)):
            b = lead[j]
            if b:
                row[j] = reduce(row[j] + nv * b)

    def _scale(self, row: list[int], s: int, start: int) -> None:
        """row[j] *= s for j >= start, in place, one `_reduce` per entry."""
        reduce = self._reduce
        for j in range(start, len(row)):
            a = row[j]
            if a:
                row[j] = reduce(a * s)

    def _step_plan(self, length: int) -> tuple:
        """The reduction plan of a `length`-term step, or () when its digit
        bound length (p-1)^2 does not fit a word."""
        bound = length * (self.p - 1) ** 2
        if bound > self._mask:
            return ()
        return _reduction_plan(self.p, self._db, self.m, bound)

    def inv(self, a: int) -> int:
        """a^-1 by the norm: N(a) = a * prod_{0<i<m} a^(p^i) lies in GF(p),
        so a^-1 = N(a)^-1 * prod_{0<i<m} a^(p^i) (Lidl & Niederreiter,
        *Finite Fields*, Def. 2.27; Itoh & Tsujii, Inf. Comput. 1988).  m-1
        Frobenius maps and m-1 products, one GF(p) inverse and one scaling;
        Fermat's a^(order - 2) is its test oracle."""
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        if a < p:  # a base-field constant (every element when m = 1)
            return pow(a, p - 2, p)
        conj = rest = self.frobenius(a)
        for _ in range(self.m - 2):
            conj = self.frobenius(conj)
            rest = self.mul(rest, conj)
        norm = self.mul(a, rest)  # a constant: its packed int is its value
        return self.scalar_mul(pow(norm, p - 2, p), rest)

    def frobenius(self, a: int) -> int:
        """a^p, the base-field Frobenius, as a scaled digit permutation.

        Coefficients are fixed by the p-th power and X^m = c (c the
        binomial's scalar, `_binomial_c`), so (sum_j a_j X^j)^p =
        sum_j a_j X^(jp) = sum_j a_j c^floor(jp/m) X^(jp mod m).
        p = 1 mod rad(m) keeps p prime to m, so j -> jp mod m permutes the
        digits: output digit i is one source digit times one base-field
        scale, from a table built once per field.  One unpack, m products
        mod p and one pack; `pow(a, p)` is its test oracle.
        """
        table = self._frobenius_table
        if table is None:
            table = self._frobenius_table = self._build_frobenius_table()
        p, digits = self.p, self.coords(a)
        return self._pack([digits[j] * s % p for j, s in table])

    def _build_frobenius_table(self) -> tuple[tuple[int, int], ...]:
        """(source digit, scale) for each output digit of `frobenius`."""
        p, m, c = self.p, self.m, self._binomial_c
        table = [None] * m
        for j in range(m):
            table[j * p % m] = (j, pow(c, j * p // m, p))
        return tuple(table)

    # -- serialization --------------------------------------------------------
    # A symbol is its m coordinates, coord_width little-endian bytes each: the
    # low coord_width bytes of each word of the packed element.  A run of
    # symbols converts in one pass: byte i of every coordinate moves to byte i
    # of its word with one slice assignment, for any coord_width.  Both
    # directions range-check the run's words at once (`_check_words`).

    @property
    def symbol_bytes(self) -> int:
        return self.m * self.coord_width

    def symbols_to_bytes(self, symbols: Sequence[int]) -> bytes:
        """The symbols, m coordinates of coord_width bytes each.  A symbol
        that `symbols_from_bytes` could not return raises ValueError: one
        with a digit past the m-th word, a negative one, or one with a digit
        at or past p (named as `symbols_from_bytes` names it)."""
        w, wb, size = self.coord_width, self._db // 8, self._words.size
        try:
            words = b"".join([a.to_bytes(size, "little") for a in symbols])
        except OverflowError:
            bits = self._db * self.m
            i = next(i for i, a in enumerate(symbols) if a >> bits)  # -1 if negative
            raise ValueError(f"symbol {i} lies outside the {self.m} coordinate words "
                             f"of GF({self.p}^{self.m})") from None
        self._check_words(words)
        out = bytearray(len(words) // wb * w)
        for i in range(w):
            out[i::w] = words[i::wb]
        return bytes(out)

    def symbols_from_bytes(self, bs: bytes) -> list[int]:
        """Every symbol of `bs` (symbol_bytes each), with one range check
        over all their coordinates."""
        w, wb = self.coord_width, self._db // 8
        if len(bs) % (self.m * w):
            raise ValueError("wrong symbol width")
        words = bytearray(len(bs) // w * wb)
        for i in range(w):
            words[i::wb] = bs[i::w]
        self._check_words(words)
        view = memoryview(words)
        size = self._words.size
        return [int.from_bytes(view[j:j + size], "little") for j in range(0, len(words), size)]

    def _check_words(self, words: bytes) -> None:
        """Raise on the first digit of `words` (little-endian db-bit words)
        outside [0, p), as `_check_coords` names it, after one test of
        every word at once.

        Add a = 2^(db-1) - p to every word: a digit below 2^(db-1) sets the
        word's top bit exactly when it is >= p, and carries out of no word;
        a digit at or above 2^(db-1) has that bit set already.  So
        (v | v + a) & top, top = 2^(db-1) in every word, is zero exactly
        when every digit is in range.  A serialised coordinate is below
        2^(8 coord_width) <= 2^(db-1) (p < 2^11 in 32-bit words, p < 2^21
        in 64-bit ones).  Words past the run's end are zero and stay clear,
        so constants sized for more words serve a shorter run, and a run
        longer than the constants is tested a slice of that many words at a
        time.  The field keeps one pair, grown to the longest run met up to
        _RANGE_BYTES each.

        One-byte coordinates (p < 256) build no int: each low byte must be a
        `_digits` byte, and the words their low bytes spread over zeros."""
        wb = self._db // 8
        kept, addend, top = self._range
        if self._digits is None and len(words) > kept and kept < _RANGE_BYTES:
            kept, addend, top = self._range = self._range_constants(min(len(words), _RANGE_BYTES))
        if self._digits is not None:
            spread = bytearray(len(words))
            spread[::wb] = low = words[::wb]
            bad = low.translate(None, self._digits) or spread != words
        elif len(words) <= kept:
            v = int.from_bytes(words, "little")
            bad = (v | (v + addend)) & top
        else:
            view = memoryview(words)
            bad = any((v | (v + addend)) & top
                      for v in (int.from_bytes(view[i:i + kept], "little")
                                for i in range(0, len(words), kept)))
        if bad:
            _check_coords(struct.unpack(f"<{len(words) // wb}{'I' if wb == 4 else 'Q'}", words),
                          self.p)

    def _range_constants(self, nbytes: int) -> tuple[int, int, int]:
        """(nbytes, a, top) of `_check_words` over nbytes // (db/8) words, in
        closed form from the repunit of that many words."""
        wb = self._db // 8
        ones = int.from_bytes((1).to_bytes(wb, "little") * (nbytes // wb), "little")
        top = ones << (self._db - 1)
        return nbytes, top - ones * self.p, top


# the largest range-check constant an ExtField keeps (see _check_words)
_RANGE_BYTES = 4096


def _check_coords(coords: Sequence[int], p: int) -> None:
    """Raise on the first coordinate outside [0, p)."""
    if coords and max(coords) >= p:
        bad = next(c for c in coords if c >= p)
        raise ValueError(f"coordinate {bad} out of range for GF({p})")


# GF(p) keeps an inverse table below this p: p list slots and ints, <= 160 KB
_INVERSE_TABLE_P = 4096

# Fields by (p, m), at most _FIELD_CACHE_SIZE of them, the oldest evicted
# first; an evicted field is rebuilt equal on its next request (a benchmark
# workload meets 23).  Worst case per entry: a GF(p) 160 KB, its inverse
# table at p = 4093; a GF(p^m) O(m) words of packed constants plus up to
# 12 KB of range-check constants, 2.6 KB at GF(7^9) and 20 KB at GF(331^55)
# after use (tracemalloc).  About 10 MB for 64 GF(p) below 4096.
_FIELD_CACHE: dict[tuple[int, int], object] = {}
_FIELD_CACHE_SIZE = 64


def prime_field(p: int) -> PrimeField:
    return ext_field(p, 1)


def ext_field(p: int, m: int) -> ExtField:
    """GF(p^m) with its binomial modulus (GF(p) itself for m = 1); cached in
    `_FIELD_CACHE`.  Raises ValueError when GF(p^m) has none (see
    `binomial_prime`)."""
    key = (p, m)
    field = _FIELD_CACHE.get(key)
    if field is None:
        field = PrimeField(p) if m == 1 else ExtField(prime_field(p), m)
        while len(_FIELD_CACHE) >= _FIELD_CACHE_SIZE:
            del _FIELD_CACHE[next(iter(_FIELD_CACHE))]
        _FIELD_CACHE[key] = field
    return field


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Dense matrix over one field; entries are raw field elements."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows: Iterable[Sequence[int]], ncols: int | None = None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != self.ncols:
                raise ValueError(f"rows have {self.ncols} columns, not ncols={ncols}")
        else:
            self.ncols = 0 if ncols is None else ncols

    @classmethod
    def _of(cls, field, rows: Sequence[Sequence[int]], ncols: int) -> "Matrix":
        """A matrix over `rows` as they are, unchecked: `_echelon` copies a row it changes."""
        matrix = object.__new__(cls)
        matrix.field, matrix.rows, matrix.nrows, matrix.ncols = field, rows, len(rows), ncols
        return matrix

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        return cls(field, [[field.one if i == j else field.zero for j in range(n)]
                           for i in range(n)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.rows == self.rows and other.ncols == self.ncols)

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"

    def matvec(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        dot = self.field.dot
        return [dot(row, vec) for row in self.rows]

    # -- elimination ----------------------------------------------------------

    def _echelon(self, aug: list[list[int]] | None = None):
        """Row echelon form, built one row at a time.

        Each row in turn is reduced against the basis rows found so far,
        kept by leading column, each with a leading one: while a basis row
        leads at the row's leading column c, subtract row[c] times it
        (`_sub_scaled`, which leaves row[c] zero).  A row whose leading
        column is new is scaled to a leading one (`_scale`, one `inv`; none
        for a row that already leads with one, such as a unit row) and joins
        the basis; a row that reduces to zero joins the dependent tail.
        Without `aug`, the walk stops once every column leads a basis row,
        and the rows after that are not visited.  With `aug`, aug row i rides
        at the end of row i, so one row operation covers both, and every
        row is visited.

        The leading columns of an echelon basis are an invariant of the row
        space, so the pivots are those of any row echelon form.  Returns
        (rows, aug_rows, pivot_columns): the basis rows in pivot order, then
        the dependent rows; aug_rows is None without `aug`.  A row (list or
        tuple) is copied to a list before its first change, so a row that
        joins unchanged is the matrix's own: callers only read the result.
        """
        f = self.field
        sub_scaled, scale, one = f._sub_scaled, f._scale, f.one
        nc = self.ncols
        rows = self.rows if aug is None else [r + x for r, x in zip(self.rows, aug)]
        basis: dict[int, list[int]] = {}
        dependent = []
        for src in rows:
            row, c = src, 0
            while c < nc:
                v = row[c]
                if not v:
                    c += 1
                    continue
                lead = basis.get(c)
                if lead is None:
                    break
                if row is src:
                    row = list(src)
                sub_scaled(row, v, lead, c)
                c += 1
            if c == nc:
                dependent.append(row)
                continue
            if row[c] != one:
                if row is src:
                    row = list(src)
                scale(row, f.inv(row[c]), c)
            basis[c] = row
            if aug is None and len(basis) == nc:
                break
        pivots = sorted(basis)
        echelon = [basis[c] for c in pivots] + dependent
        if aug is None:
            return echelon, None, pivots
        return [r[:nc] for r in echelon], [r[nc:] for r in echelon], pivots

    def _back_substitute(self, a: list[list[int]], pivots: list[int],
                         rhs: Sequence[int], x: list[int]) -> list[int]:
        """Solve the echelon rows for the pivot entries of x, in place, last
        pivot first.  Every pivot is one, so x[c] = rhs[i] - row[c+1:] .
        x[c+1:] for the basis row i that leads at c.  The other entries of x
        stay as given."""
        f = self.field
        for i in range(len(pivots) - 1, -1, -1):
            c = pivots[i]
            x[c] = f.sub(rhs[i], f.dot(a[i][c + 1:], x[c + 1:]))
        return x

    def rank(self) -> int:
        return len(self._echelon()[2])

    def rank_profile(self) -> tuple[int, list[int]]:
        """(rank, pivot column indices)."""
        pivots = self._echelon()[2]
        return len(pivots), pivots

    def solve(self, rhs: Sequence[int]) -> list[int]:
        """Solve self @ x = rhs.

        Raises NoSolutionError if inconsistent, UnderdeterminedError if the
        solution is not unique.
        """
        f = self.field
        if len(rhs) != self.nrows:
            raise ValueError("dimension mismatch")
        a, b, pivots = self._echelon(aug=[[v] for v in rhs])
        rank = len(pivots)
        for i in range(rank, self.nrows):
            if b[i][0] != f.zero:
                raise NoSolutionError("inconsistent linear system")
        if rank < self.ncols:
            raise UnderdeterminedError(f"rank {rank} < {self.ncols} unknowns")
        return self._back_substitute(a, pivots, [row[0] for row in b], [f.zero] * self.ncols)

    def nullspace(self) -> list[list[int]]:
        """Deterministic right-nullspace basis (one vector per free column)."""
        f = self.field
        a, _, pivots = self._echelon()
        zeros = [f.zero] * len(pivots)
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for fc in free:
            x = [f.zero] * self.ncols
            x[fc] = f.one
            basis.append(self._back_substitute(a, pivots, zeros, x))
        return basis

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("not square")
        f = self.field
        n = self.nrows
        a, b, pivots = self._echelon(aug=Matrix.identity(f, n).rows)
        if len(pivots) != n:
            raise UnderdeterminedError("matrix is singular")
        cols = [self._back_substitute(a, pivots, [row[col] for row in b], [f.zero] * n)
                for col in range(n)]
        return Matrix(f, [list(r) for r in zip(*cols)], ncols=n)


# ---------------------------------------------------------------------------
# closed-form inverses of base-field systems
# ---------------------------------------------------------------------------
# The repair and reconstruct systems of the schemes have GF(p) entries and a
# known structure, so their inverses are formulas on plain ints.  A row of
# the inverse applied with `field.dot` to GF(p^m) values gives one solved
# symbol with one reduction; `Matrix.solve` is their test oracle.

def _distinct_mod(p: int, points: Iterable[int], what: str) -> list[int]:
    pts = [x % p for x in points]
    if len(set(pts)) != len(pts):
        raise ValueError(f"repeated {what} point mod {p}")
    return pts


def vandermonde_inverse(p: int, xs: Sequence[int]) -> list[list[int]]:
    """Rows of V^-1 over GF(p) for the square Vandermonde V[j][e] = xs[j]^e.

    Column j of V^-1 holds the coefficients (low first) of the Lagrange
    basis polynomial L_j(X) = prod_{i != j} (X - x_i) / (x_j - x_i), so
    V^-1 . y is the polynomial that takes the values y at xs (Berrut &
    Trefethen, SIAM Rev. 2004).  Each L_j is the master polynomial
    prod_i (X - x_i) divided synthetically by X - x_j and scaled by its
    barycentric weight, one `pow` per point: O(k^2) in all.  Raises
    ValueError on a repeated point.
    """
    xs = _distinct_mod(p, xs, "Vandermonde")
    k = len(xs)
    master = [1]  # prod_i (X - x_i), low first
    for x in xs:
        master = [(a - x * b) % p for a, b in zip([0] + master, master + [0])]
    cols = []
    for x in xs:
        quot = [0] * k  # master / (X - x)
        acc = 0
        for e in range(k, 0, -1):
            acc = quot[e - 1] = (master[e] + x * acc) % p
        den = 1
        for y in xs:
            if y != x:
                den = den * (x - y) % p
        w = pow(den, p - 2, p)
        cols.append([c * w % p for c in quot])
    return [list(row) for row in zip(*cols)]


@lru_cache(maxsize=256)
def vandermonde_inverse_rows(p: int, xs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """`vandermonde_inverse(p, xs)` as a tuple of tuples, from a bounded
    process-wide cache keyed by (p, xs); xs must be a tuple.

    The rows depend only on public points (the contacted nodes' evaluation
    points), never on data, so every repair or reconstruct that meets a point
    set again reuses them, and the tuples cannot be altered by a caller.
    Worst case: 256 entries, one per point set.  An entry for k points holds
    k^2 ints below p, about 36 k^2 bytes: under 1.5 KB for the k <= 6 of the
    benchmark, and never more than the lists the uncached formula builds for
    the same call (the word-slot cap admits k up to about 7100, mscr-dk with
    t = 1).  A CLI command adds at most 2k + 2 entries (mbcr-bivariate
    reconstruct), a repair or reconstruct elsewhere at most one.
    """
    return tuple(map(tuple, vandermonde_inverse(p, xs)))


@lru_cache(maxsize=4096)
def lagrange_row(p: int, xs: tuple[int, ...], x: int) -> tuple[int, ...]:
    """(L_0(x), ..., L_{k-1}(x)) over GF(p) for the Lagrange basis of the k
    distinct points xs, from a bounded process-wide cache keyed by
    (p, xs, x); xs must be a tuple.

    A polynomial of degree < k through (xs, ys) takes the value
    `dot(lagrange_row(p, xs, x), ys)` at x, over GF(p) or, with GF(p^m)
    values, over its extension: the row is g(x)^T V^-1 for the Vandermonde
    V of xs and g(x) = (1, x, ..., x^(k-1)), so interpolating then
    evaluating is one dot.  L_j(x) = prod_{i != j} (x - x_i) / (x_j - x_i),
    the barycentric weight of x_j times the node polynomial without its
    j-th factor (Berrut & Trefethen, SIAM Rev. 2004): O(k^2) products and
    k `pow`s, paid once per key.  At x = x_j the row is the j-th unit
    vector.

    The row depends on public points alone (the contacted nodes' points and
    the point of the symbol wanted), never on data.  Worst case: 4096
    entries of a key and a row of k ints, about 360 bytes with the cache's
    own links at k = 6 and points below 257 (each larger int adds 28
    bytes): about 1.5 MB at the benchmark's k <= 6.  A repair adds at most
    t entries in mscr-dk (key (p, helper points, newcomer point)) and fewer
    than t (4d + 2t) in mbcr-bivariate; the benchmark's lifetimes meet 322
    keys, its data path about 1640.
    """
    row = []
    for xj in xs:
        num = den = 1
        for xi in xs:
            if xi != xj:
                num = num * (x - xi) % p
                den = den * (xj - xi) % p
        row.append(num * pow(den, p - 2, p) % p)
    return tuple(row)


def cauchy_inverse(p: int, us: Sequence[int], vs: Sequence[int]) -> list[list[int]]:
    """Rows of C^-1 over GF(p) for the square Cauchy C[i][j] = 1/(us[i] - vs[j]).

    With A(z) = prod_i (z - u_i) and B(z) = prod_j (z - v_j),
    C^-1[j][i] = A(v_j) B(u_i) / ((v_j - u_i) A'(u_i) B'(v_j)) (Schechter,
    1959; Knuth, TAOCP vol. 1, 1.2.3 ex. 41).  Raises ValueError on a
    repeated point or a point shared by us and vs.
    """
    us = _distinct_mod(p, us, "Cauchy")
    vs = _distinct_mod(p, vs, "Cauchy")
    if len(us) != len(vs):
        raise ValueError("a Cauchy matrix to invert must be square")
    if set(us) & set(vs):
        raise ValueError(f"Cauchy points shared by both sides mod {p}")

    def ratio(z, same, other):
        # prod over `other` of (z - w), over prod over `same` but z of (z - w)
        num = den = 1
        for w in other:
            num = num * (z - w) % p
        for w in same:
            if w != z:
                den = den * (z - w) % p
        return num * pow(den, p - 2, p) % p

    row_scale = [ratio(v, vs, us) for v in vs]  # A(v_j) / B'(v_j)
    col_scale = [ratio(u, us, vs) for u in us]  # B(u_i) / A'(u_i)
    return [[rj * ci * pow(v - u, p - 2, p) % p for u, ci in zip(us, col_scale)]
            for v, rj in zip(vs, row_scale)]


# ---------------------------------------------------------------------------
# Moore matrices (Gabidulin precoding)
# ---------------------------------------------------------------------------

def frobenius_powers(field: ExtField, g: int, count: int) -> list[int]:
    """[g, g^q, g^(q^2), ...] of length count."""
    out = []
    cur = g
    for _ in range(count):
        out.append(cur)
        cur = field.frobenius(cur)
    return out


def moore_matrix(field: ExtField, points: Sequence[int], ncoeffs: int) -> Matrix:
    """len(points) x ncoeffs matrix with row j = (g_j, g_j^q, ..., g_j^(q^(ncoeffs-1))).

    The program builds no Moore matrix: this dense form is the tests' oracle
    for the monomial tables and for the point-rank verdict, and perfbench's
    tracer wraps it by name."""
    return Matrix(field, [frobenius_powers(field, g, ncoeffs) for g in points],
                  ncols=ncoeffs)


# ---------------------------------------------------------------------------
# Gabidulin precoding: the canonical-basis Moore map as monomial tables
# ---------------------------------------------------------------------------
# The Moore matrix of the canonical basis 1, X, ..., X^(m-1) of GF(p^m) is
# B[i][j] = (X^i)^(p^j) = X^e with e = i p^j.  X^m = c (the binomial's
# scalar) and c^(p-1) = 1 make X^(m(p-1)) = 1, so with e reduced mod
# m(p-1), B[i][j] = c^(e div m) X^(e mod m): one GF(p) scale and one shift
# (Lidl & Niederreiter, *Finite Fields*, Sec. 3.4).  The shift is i*pi_j
# mod m for the Frobenius class pi_j = p^j mod m of column j, so the columns
# group by class: one class when p = 1 mod m, two or three on GF(13^24),
# GF(29^56) and GF(7^9).  The inverse is the Moore matrix of the trace-dual
# basis, a scaled and permuted transpose (`_build_basis_moore_table`).

# field -> (column classes, forward rows, inverse shifts, inverse rows)
_BASIS_MOORE_TABLES: dict[object, tuple] = {}


def _basis_moore_table(field: ExtField) -> tuple:
    table = _BASIS_MOORE_TABLES.get(field)
    if table is None:
        table = _BASIS_MOORE_TABLES[field] = _build_basis_moore_table(field)
    return table


def _build_basis_moore_table(field: ExtField) -> tuple:
    """The monomials of B and of B^-1 as GF(p) ints, in O(m^2) integer
    operations: no `frobenius`, no Moore matrix, no elimination.

    The trace-dual basis of 1, X, ..., X^(m-1) is d_0 = 1/m and
    d_l = X^(m-l) / (m c) for 0 < l < m: Tr(X^e) = 0 unless m | e,
    Tr(1) = m, and p does not divide m.  With D[l][j] = d_l^(p^j),
    (B D^T)[i][l] = Tr(X^i d_l) = [i = l], so B^-1 = D^T, and Frobenius fixes
    the scales: B^-1[i][l] = s_l B[-l mod m][i] with s_0 = 1/m and
    s_l = 1/(m c).  Output i of the inverse reads every input l shifted by
    X^(-l pi_i), so the inverse keeps one shift per input for each class.

    Returns (classes, forward, inverse_shifts, inverse_rows):
      classes[k]         the columns of class k, ascending;
      forward[i][k]      (up, down, scales over classes[k]) of row i of B,
                         (up, down) the `_monomial_shifts` of its X^s;
      inverse_shifts[k]  the `_monomial_shifts` of input l for class k, one per l;
      inverse_rows[i]    (class of column i, scales over l) of row i of B^-1.
    """
    p, m, c = field.p, field.m, field._binomial_c
    period = m * (p - 1)
    powers = [pow(p, j, period) for j in range(m)]  # p^j mod m(p-1)
    # B[i][j] = kappas[i][j] X^(i pi_j mod m)
    kappas = [[pow(c, i * e % period // m, p) for e in powers] for i in range(m)]
    pis = [e % m for e in powers]
    members: dict[int, list[int]] = {}  # class pi -> its columns, first seen first
    for j, pi in enumerate(pis):
        members.setdefault(pi, []).append(j)
    class_pis = list(members)
    forward = tuple(tuple((*_monomial_shifts(field, i * pi % m), [kappas[i][j] for j in cols])
                          for pi, cols in members.items())
                    for i in range(m))
    scales = [pow(m, p - 2, p)] + [pow(m * c, p - 2, p)] * (m - 1)
    inverse_shifts = tuple([_monomial_shifts(field, -l * pi % m) for l in range(m)]
                           for pi in class_pis)
    inverse_rows = tuple((class_pis.index(pis[i]),
                          [s * kappas[-l % m][i] % p for l, s in enumerate(scales)])
                         for i in range(m))
    return tuple(map(tuple, members.values())), forward, inverse_shifts, inverse_rows


def _monomial_shifts(field: ExtField, s: int) -> tuple[int, int]:
    """(up, down) bit counts with a X^s = ((a << up) & low) + c (a >> down)
    for 0 <= s < m, unreduced: the digits pushed to X^m and above fold back
    times c, so a digit grows at most c-fold.  s = 0 gives down = m words,
    which leaves a as it is."""
    db, m = field._db, field.m
    return s * db, (m - s) * db


def basis_moore_apply(field, coeffs: Sequence[int]) -> list[int]:
    """x = B . coeffs for the Moore matrix B[i][j] = (X^i)^(p^j) of the
    canonical basis of GF(p^m): the Gabidulin evaluations of the linearized
    polynomial sum_j coeffs[j] X^(p^j) at 1, X, ..., X^(m-1).

    x_i = sum_pi X^(i pi) . (sum_{j in pi} kappa_ij coeffs[j]): per class one
    GF(p)-scalar dot and one shift, then one `_normalize` per output.  A
    digit of a class sum is at most |class| (p-1)^2 and the shift scales it
    by at most c < p, so every digit of x_i before normalisation is below
    m (p-1)^2 p = `_product_bound(p, m)`, which the field's words hold.
    Raises ValueError unless len(coeffs) = m.
    """
    m = field.degree
    if len(coeffs) != m:
        raise ValueError("dimension mismatch")
    if m == 1:
        return list(coeffs)  # B = [1]
    classes, forward, _, _ = _basis_moore_table(field)
    groups = [[coeffs[j] for j in cols] for cols in classes]  # coeffs in class order
    low, c = field._low_mask, field._binomial_c
    out = []
    for row in forward:
        acc = 0
        for (up, down, kappas), group in zip(row, groups):
            a = sum(map(_int_mul, kappas, group))
            acc += ((a << up) & low) + c * (a >> down)  # a X^s, see `_monomial_shifts`
        out.append(acc)
    return list(map(field._normalize, out))


def basis_moore_inverse_apply(field, values: Sequence[int], start: int = 0) -> list[int]:
    """coeffs[start:] of coeffs = B^-1 . values for the Moore matrix B of
    `basis_moore_apply`: a decoder wants only the secret's rows.

    B^-1[i][l] = s_l B[-l mod m][i] (see `_build_basis_moore_table`): one
    copy X^(-l pi) values[l] of each input per class pi, per output one
    GF(p)-scalar dot over the copies of its class, then one `_normalize` per
    output.  A digit of a copy is at most (p-1) c, so every digit of a dot is
    below m (p-1)^2 p = `_product_bound(p, m)`.  Raises ValueError unless
    len(values) = m.
    """
    m = field.degree
    if len(values) != m:
        raise ValueError("dimension mismatch")
    if m == 1:
        return list(values)[start:]
    _, _, inverse_shifts, inverse_rows = _basis_moore_table(field)
    low, c = field._low_mask, field._binomial_c
    copies = [[((x << up) & low) + c * (x >> down) for x, (up, down) in zip(values, shifts)]
              for shifts in inverse_shifts]
    return [field._normalize(sum(map(_int_mul, scales, copies[k])))
            for k, scales in inverse_rows[start:]]
