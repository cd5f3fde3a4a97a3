"""Exact arithmetic in GF(p) and GF(p^m), plus the linear algebra used everywhere else.

Prime-field elements are plain ints in [0, p).  Extension-field elements are
packed ints: m base-p digits, one per fixed-width bit slot, digit i holding the
coefficient of X^i.  Multiplication is one big-int multiply (Kronecker
substitution keeps digit slots carry-free) followed by reduction modulo the
field's irreducible polynomial; when the modulus is a binomial X^m - c the
reduction is a single scalar fold, which is why constructions prefer primes
where a binomial modulus exists.

The irreducible modulus is found by deterministic search in lexicographic
order of coefficient vectors (constant coefficient varying fastest), so every
encoded byte is reproducible across runs and platforms.

Dot products (and so matrix-vector products) use delayed reduction: reduced
products are summed as packed ints and normalised once, since the digit slots
have headroom for many terms (Dumas, Giorgi & Pernet, FFLAS-FFPACK, 2008).

Rank and solving use fraction-free Gaussian elimination with first-nonzero
pivoting: no divisions during elimination, no tolerances, deterministic.

The Moore matrix of a field's canonical basis, the Gabidulin precoding map,
and its inverse are built once per field and cached like the fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul as _int_mul
from typing import Iterable, Iterator, Sequence


class NoSolutionError(ValueError):
    """The linear system is inconsistent."""


class UnderdeterminedError(ValueError):
    """The linear system is consistent but rank-deficient."""


class DependentPointsError(ValueError):
    """Interpolation points are linearly dependent over the base field."""


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), coefficient lists (index i = coeff of X^i)
# ---------------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_divmod(out, f, p)[1]


def _poly_divmod(a: list[int], f: list[int], p: int) -> tuple[list[int], list[int]]:
    a = a[:]
    _poly_trim(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    q = [0] * max(0, len(a) - df)
    while len(a) - 1 >= df and a:
        shift = len(a) - 1 - df
        c = (a[-1] * inv_lead) % p
        q[shift] = c
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - c * fi) % p
        _poly_trim(a)
    return q, a


def _poly_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_divmod(a, f, p)[1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a[:], b[:]
    _poly_trim(a)
    _poly_trim(b)
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


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


def is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Rabin test for a monic polynomial over GF(p)."""
    f = list(coeffs)
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        return False
    if m == 1:
        return True
    if f[0] == 0:
        return False
    x = [0, 1]
    # h_j = X^(p^j) mod f, built by repeated p-th powering
    h = x[:]
    hs = {}
    for j in range(1, m + 1):
        h = _poly_powmod(h, p, f, p)
        hs[j] = h[:]
    if hs[m] != x:
        return False
    for ell in _prime_factors(m):
        g = hs[m // ell][:]
        # gcd(h - X, f) must be 1
        while len(g) < 2:
            g.append(0)
        g[1] = (g[1] - 1) % p
        if len(_poly_gcd(g, f, p)) != 1:
            return False
    return True


_IRREDUCIBLE_CACHE: dict[tuple[int, int], tuple[int, ...]] = {}


def find_irreducible(p: int, m: int) -> tuple[int, ...]:
    """First monic irreducible of degree m over GF(p), in lexicographic
    order of coefficient vectors (c_0 varying fastest)."""
    key = (p, m)
    if key in _IRREDUCIBLE_CACHE:
        return _IRREDUCIBLE_CACHE[key]
    if m == 1:
        mod = (0, 1)
        _IRREDUCIBLE_CACHE[key] = mod
        return mod
    for v in range(1, p ** m):
        coeffs = []
        w = v
        for _ in range(m):
            coeffs.append(w % p)
            w //= p
        coeffs.append(1)
        if coeffs[0] == 0:
            continue
        if is_irreducible(coeffs, p):
            mod = tuple(coeffs)
            _IRREDUCIBLE_CACHE[key] = mod
            return mod
    raise ValueError(f"no irreducible polynomial of degree {m} over GF({p})")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class PrimeField:
    """GF(p).  Elements are ints in [0, p)."""

    __slots__ = ("p", "order", "char", "degree", "zero", "one", "coord_width")

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.order = p
        self.char = p
        self.degree = 1
        self.zero = 0
        self.one = 1
        self.coord_width = ((p - 1).bit_length() + 7) // 8

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def element(self, value: int) -> int:
        return value % self.p

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

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.p)

    def frobenius(self, a: int) -> int:
        return a % self.p

    def coords(self, a: int) -> tuple[int, ...]:
        return (a,)

    def from_coords(self, coords: Sequence[int]) -> int:
        if len(coords) != 1:
            raise ValueError("prime-field element has one coordinate")
        return coords[0] % self.p

    def from_int(self, i: int) -> int:
        return i % self.p

    def to_int(self, a: int) -> int:
        return a

    def elements(self) -> Iterator[int]:
        return iter(range(self.p))

    def symbol_to_bytes(self, a: int) -> bytes:
        return a.to_bytes(self.coord_width, "little")

    def symbol_from_bytes(self, bs: bytes) -> int:
        if len(bs) != self.coord_width:
            raise ValueError("wrong symbol width")
        v = int.from_bytes(bs, "little")
        if v >= self.p:
            raise ValueError(f"coordinate {v} out of range for GF({self.p})")
        return v

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
    """GF(p^m) with a fixed irreducible modulus over the prime base field.

    Elements are packed ints: digit i (a fixed-width bit slot) holds the
    coefficient of X^i.  All public operations take and return packed ints.
    """

    __slots__ = (
        "base", "p", "m", "modulus", "order", "char", "degree", "zero", "one",
        "coord_width", "_db", "_mask", "_low_mask", "_all_p", "_red",
        "_binomial_c", "_dot_chunk",
    )

    def __init__(self, base: PrimeField, m: int, modulus: Sequence[int] | None = None):
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        self.base = base
        self.p = base.p
        self.m = m
        self.degree = m
        self.char = base.p
        self.order = base.p ** m
        if modulus is None:
            modulus = find_irreducible(base.p, m)
        modulus = tuple(c % base.p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        if not is_irreducible(modulus, base.p):
            raise ValueError("modulus is not irreducible")
        self.modulus = modulus

        p = base.p
        bound = m * (p - 1) ** 2 * (1 + (m - 1) * (p - 1))
        self._db = db = bound.bit_length() + 1
        self._mask = (1 << db) - 1
        self._low_mask = (1 << (db * m)) - 1
        self._all_p = sum(p << (db * i) for i in range(m))
        # reduced digits are <= p-1, so this many reduced elements sum
        # without any digit overflowing its slot (see dot)
        self._dot_chunk = self._mask // (p - 1)
        self.zero = 0
        self.one = 1
        self.coord_width = base.coord_width

        # reduction rows: X^(m+j) mod modulus, packed
        red = []
        row = [(-c) % p for c in modulus[:m]]  # X^m mod f
        for _ in range(m - 1):
            red.append(self._pack(row))
            row = self._shift_mod(row)
        self._red = red
        # binomial fast path: modulus X^m + c0  ->  X^m = -c0
        if all(c == 0 for c in modulus[1:m]):
            self._binomial_c = (-modulus[0]) % p
        else:
            self._binomial_c = None

    def _shift_mod(self, row: list[int]) -> list[int]:
        # multiply by X modulo the modulus, coefficient-list form
        p = self.p
        lead = row[-1]
        out = [0] + row[:-1]
        if lead:
            for i in range(self.m):
                out[i] = (out[i] - lead * self.modulus[i]) % p
        return out

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.p == self.p
            and other.m == self.m
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtField", self.p, self.m, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.m})"

    # -- packing ------------------------------------------------------------

    def _pack(self, coords: Sequence[int]) -> int:
        db = self._db
        v = 0
        for i, c in enumerate(coords):
            if c:
                v |= c << (db * i)
        return v

    def _normalize(self, v: int) -> int:
        db, mask, p = self._db, self._mask, self.p
        out = 0
        shift = 0
        while v:
            d = v & mask
            if d >= p:
                d %= p
            if d:
                out |= d << shift
            v >>= db
            shift += db
        return out

    def coords(self, a: int) -> tuple[int, ...]:
        db, mask = self._db, self._mask
        return tuple((a >> (db * i)) & mask for i in range(self.m))

    def from_coords(self, coords: Sequence[int]) -> int:
        if len(coords) > self.m:
            raise ValueError("too many coordinates")
        return self._pack([c % self.p for c in coords])

    def from_int(self, i: int) -> int:
        """Canonical integer encoding: base-p digits are the coordinates."""
        coords = []
        for _ in range(self.m):
            coords.append(i % self.p)
            i //= self.p
        return self._pack(coords)

    def to_int(self, a: int) -> int:
        v = 0
        for c in reversed(self.coords(a)):
            v = v * self.p + c
        return v

    def element(self, value: int) -> int:
        """Embed a base-field int as a constant."""
        return (value % self.p) & self._mask

    def basis_element(self, i: int) -> int:
        if not 0 <= i < self.m:
            raise ValueError("basis index out of range")
        return 1 << (self._db * i)

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
        v = a * b
        low = v & self._low_mask
        top = v >> (self._db * self.m)
        if top:
            c = self._binomial_c
            if c is not None:
                low += c * top
            else:
                db, mask = self._db, self._mask
                j = 0
                while top:
                    d = top & mask
                    if d:
                        low += d * self._red[j]
                    top >>= db
                    j += 1
        return self._normalize(low)

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

        The reduced products are added as packed ints and the sum is
        normalised once per `_dot_chunk` terms, the most that fit the digit
        slots, instead of once per addition.
        """
        mul, normalize, chunk = self.mul, self._normalize, self._dot_chunk
        acc = 0
        terms = 0
        for a, b in zip(xs, ys):
            if a and b:
                if terms == chunk:
                    acc = normalize(acc)  # digits back to <= p-1: one term's worth
                    terms = 1
                acc += mul(a, b)
                terms += 1
        return normalize(acc)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        # extended Euclid over GF(p) coefficient lists
        r0, r1 = list(self.modulus), _poly_trim(list(self.coords(a)))
        s0, s1 = [], [1]
        while r1:
            q, r = _poly_divmod(r0, r1, p)
            # s0 - q*s1
            qs = [0] * (len(q) + len(s1) - 1) if q and s1 else []
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        qs[i + j] = (qs[i + j] + qi * sj) % p
            ns = [0] * max(len(s0), len(qs))
            for i, c in enumerate(s0):
                ns[i] = c
            for i, c in enumerate(qs):
                ns[i] = (ns[i] - c) % p
            r0, r1 = r1, r
            s0, s1 = s1, _poly_trim(ns)
        if len(r0) != 1:
            raise ZeroDivisionError("element not invertible (modulus not irreducible?)")
        lead_inv = pow(r0[0], p - 2, p)
        return self._pack([(c * lead_inv) % p for c in s0])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a: int) -> int:
        """a^p, the base-field Frobenius."""
        return self.pow(a, self.p)

    def elements(self) -> Iterator[int]:
        for i in range(self.order):
            yield self.from_int(i)

    # -- serialization --------------------------------------------------------

    @property
    def symbol_bytes(self) -> int:
        return self.m * self.coord_width

    def symbol_to_bytes(self, a: int) -> bytes:
        w = self.coord_width
        return b"".join(c.to_bytes(w, "little") for c in self.coords(a))

    def symbol_from_bytes(self, bs: bytes) -> int:
        w = self.coord_width
        if len(bs) != self.m * w:
            raise ValueError("wrong symbol width")
        coords = []
        for i in range(self.m):
            v = int.from_bytes(bs[i * w:(i + 1) * w], "little")
            if v >= self.p:
                raise ValueError(f"coordinate {v} out of range for GF({self.p})")
            coords.append(v)
        return self._pack(coords)


_FIELD_CACHE: dict[tuple[int, int], object] = {}


def prime_field(p: int) -> PrimeField:
    key = (p, 1)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = PrimeField(p)
    return _FIELD_CACHE[key]


def ext_field(p: int, m: int) -> ExtField:
    """GF(p^m) with the canonical (lex-first) modulus; cached."""
    key = (p, m)
    if key not in _FIELD_CACHE:
        if m == 1:
            _FIELD_CACHE[key] = PrimeField(p)
        else:
            _FIELD_CACHE[key] = ExtField(prime_field(p), m)
    return _FIELD_CACHE[key]


def basis_elements(ext: ExtField, count: int) -> list[int]:
    """First `count` canonical basis elements 1, X, X^2, ... of GF(p^m).

    Linearly independent over the base field by construction.
    """
    if count > ext.degree:
        raise ValueError(f"requested {count} basis elements from degree-{ext.degree} field")
    if isinstance(ext, PrimeField):
        if count > 1:
            raise ValueError("prime field has a single basis element")
        return [1][:count]
    return [ext.basis_element(i) for i in range(count)]


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
        else:
            self.ncols = 0 if ncols is None else ncols

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        return cls(field, [[field.one if i == j else field.zero for j in range(n)]
                           for i in range(n)])

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        return cls(field, [[field.zero] * ncols for _ in range(nrows)], ncols=ncols)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.rows == self.rows and other.ncols == self.ncols)

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"

    def copy(self) -> "Matrix":
        return Matrix(self.field, [r[:] for r in self.rows], ncols=self.ncols)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [[self.rows[i][j] for i in range(self.nrows)]
                                   for j in range(self.ncols)], ncols=self.nrows)

    def hstack(self, other: "Matrix") -> "Matrix":
        if other.nrows != self.nrows:
            raise ValueError("row count mismatch")
        return Matrix(self.field, [a + b for a, b in zip(self.rows, other.rows)],
                      ncols=self.ncols + other.ncols)

    def matvec(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        dot = self.field.dot
        return [dot(row, vec) for row in self.rows]

    # -- elimination ----------------------------------------------------------

    def _echelon(self, aug: list[list[int]] | None = None):
        """Fraction-free row echelon, in place on a copy.

        Returns (work_rows, aug_rows, pivot_columns).
        """
        f = self.field
        a = [r[:] for r in self.rows]
        b = [r[:] for r in aug] if aug is not None else None
        nr, nc = self.nrows, self.ncols
        pivots: list[int] = []
        r = 0
        for c in range(nc):
            piv = None
            for i in range(r, nr):
                if a[i][c] != f.zero:
                    piv = i
                    break
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            if b is not None:
                b[r], b[piv] = b[piv], b[r]
            prow = a[r]
            pv = prow[c]
            for i in range(r + 1, nr):
                aic = a[i][c]
                if aic == f.zero:
                    continue  # row op would be a pure scaling; equivalence preserved
                row = a[i]
                for j in range(c + 1, nc):
                    row[j] = f.sub(f.mul(pv, row[j]), f.mul(aic, prow[j]))
                row[c] = f.zero
                if b is not None:
                    brow = b[i]
                    pbrow = b[r]
                    for j in range(len(brow)):
                        brow[j] = f.sub(f.mul(pv, brow[j]), f.mul(aic, pbrow[j]))
            pivots.append(c)
            r += 1
            if r == nr:
                break
        return a, b, pivots

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
        x = [f.zero] * self.ncols
        for i in range(rank - 1, -1, -1):
            c = pivots[i]
            acc = b[i][0]
            row = a[i]
            for j in range(c + 1, self.ncols):
                if row[j] != f.zero and x[j] != f.zero:
                    acc = f.sub(acc, f.mul(row[j], x[j]))
            x[c] = f.div(acc, row[c])
        return x

    def nullspace(self) -> list[list[int]]:
        """Deterministic right-nullspace basis (one vector per free column)."""
        f = self.field
        a, _, pivots = self._echelon()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for fc in free:
            x = [f.zero] * self.ncols
            x[fc] = f.one
            for i in range(len(pivots) - 1, -1, -1):
                c = pivots[i]
                acc = f.zero
                row = a[i]
                for j in range(c + 1, self.ncols):
                    if row[j] != f.zero and x[j] != f.zero:
                        acc = f.sub(acc, f.mul(row[j], x[j]))
                x[c] = f.div(acc, row[c])
            basis.append(x)
        return basis

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("not square")
        f = self.field
        n = self.nrows
        a, b, pivots = self._echelon(aug=Matrix.identity(f, n).rows)
        if len(pivots) != n:
            raise UnderdeterminedError("matrix is singular")
        inv = [[f.zero] * n for _ in range(n)]
        for col in range(n):
            x = [f.zero] * n
            for i in range(n - 1, -1, -1):
                c = pivots[i]
                acc = b[i][col]
                row = a[i]
                for j in range(c + 1, n):
                    if row[j] != f.zero and x[j] != f.zero:
                        acc = f.sub(acc, f.mul(row[j], x[j]))
                x[c] = f.div(acc, row[c])
            for i in range(n):
                inv[i][col] = x[i]
        return Matrix(f, inv)


def rank(m: Matrix) -> int:
    """Row rank by exact Gaussian elimination."""
    return m.rank()


def solve_linear(a: Matrix, b: Sequence[int]) -> list[int]:
    """Unique solution of a @ x = b; see Matrix.solve for failure modes."""
    return a.solve(b)


def vandermonde(field, nrows: int, points: Sequence[int]) -> Matrix:
    """nrows x len(points) Vandermonde matrix, column j = (1, x_j, x_j^2, ...)."""
    cols = []
    for x in points:
        col = [field.one]
        for _ in range(nrows - 1):
            col.append(field.mul(col[-1], x))
        cols.append(col)
    return Matrix(field, [[cols[j][i] for j in range(len(points))] for i in range(nrows)],
                  ncols=len(points))


# ---------------------------------------------------------------------------
# linearized polynomials (Gabidulin evaluation/interpolation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearizedPolynomial:
    """f(g) = sum_i coeffs[i] * g^(q^i) over GF(q^m); GF(q)-linear in g."""

    field: ExtField
    coeffs: tuple[int, ...]

    def evaluate(self, g: int) -> int:
        f = self.field
        acc = f.zero
        power = g  # g^(q^0)
        for c in self.coeffs:
            if c != f.zero and power != f.zero:
                acc = f.add(acc, f.mul(c, power))
            power = f.frobenius(power)
        return acc


def eval_linearized(poly: LinearizedPolynomial, g: int) -> int:
    return poly.evaluate(g)


def frobenius_powers(field: ExtField, g: int, count: int) -> list[int]:
    """[g, g^q, g^(q^2), ...] of length count."""
    out = []
    cur = g
    for _ in range(count):
        out.append(cur)
        cur = field.frobenius(cur)
    return out


def moore_matrix(field: ExtField, points: Sequence[int], ncoeffs: int) -> Matrix:
    """len(points) x ncoeffs matrix with row j = (g_j, g_j^q, ..., g_j^(q^(ncoeffs-1)))."""
    return Matrix(field, [frobenius_powers(field, g, ncoeffs) for g in points],
                  ncols=ncoeffs)


# field -> [Moore matrix of the canonical basis, its inverse or None]
_BASIS_MOORE_CACHE: dict[object, list] = {}


def _basis_moore_entry(field) -> list:
    entry = _BASIS_MOORE_CACHE.get(field)
    if entry is None:
        m = field.degree
        entry = [moore_matrix(field, basis_elements(field, m), m), None]
        _BASIS_MOORE_CACHE[field] = entry
    return entry


def basis_moore_matrix(field) -> Matrix:
    """m x m Moore matrix of the canonical basis 1, X, ..., X^(m-1) of GF(p^m).

    It depends on the field alone, so it is built once per field and shared
    by every caller; treat it as read-only.
    """
    return _basis_moore_entry(field)[0]


def basis_moore_inverse(field) -> Matrix:
    """Inverse of `basis_moore_matrix(field)`: built on first request, then
    shared like the matrix itself."""
    entry = _basis_moore_entry(field)
    if entry[1] is None:
        entry[1] = entry[0].inverse()
    return entry[1]


def interpolate_linearized(field: ExtField, points: Sequence[tuple[int, int]],
                           count: int) -> LinearizedPolynomial:
    """Unique linearized polynomial with `count` coefficients through the points.

    Points must be (g, value) pairs with the g's linearly independent over
    the base field; raises DependentPointsError otherwise.
    """
    if len(points) != count:
        raise ValueError("need exactly `count` points")
    gs = [g for g, _ in points]
    vals = [v for _, v in points]
    system = moore_matrix(field, gs, count)
    try:
        coeffs = system.solve(vals)
    except (NoSolutionError, UnderdeterminedError) as exc:
        raise DependentPointsError(
            "evaluation points are dependent over the base field") from exc
    return LinearizedPolynomial(field, tuple(coeffs))
