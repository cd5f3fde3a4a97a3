import inspect
import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from coopdss import field as F

import oracles as O
from scheme_utils import elem_from_int, elem_to_int, linearized_eval, symbol_from_bytes


# ---------------------------------------------------------
# independent oracles
# ---------------------------------------------------------

def det_by_permutations(field, rows):
    """Leibniz determinant; independent of the elimination code."""
    n = len(rows)
    total = field.zero
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = field.one
        for i in range(n):
            term = field.mul(term, rows[i][perm[i]])
        total = field.add(total, term if sign > 0 else field.neg(term))
    return total


def rand_elems(field, count, seed):
    rng = random.Random(seed)
    return [elem_from_int(field, rng.randrange(field.order)) for _ in range(count)]


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a, f, p):
    """a mod the monic f over GF(p), coefficient lists (index i = X^i)."""
    a = _poly_trim(a[:])
    df = len(f) - 1
    while len(a) - 1 >= df:
        c, shift = a[-1], len(a) - 1 - df
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - c * fi) % p
        _poly_trim(a)
    return a


def _poly_mulmod(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, f, p)


def _poly_powmod(a, e, f, p):
    result, base = [1], _poly_mod(a, f, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        inv = pow(b[-1], p - 2, p)
        a, b = b, _poly_mod(a, [c * inv % p for c in b], p)
    return a


def is_irreducible(coeffs, p):
    """Rabin's test for a monic polynomial over GF(p): X^(p^m) = X mod f, and
    gcd(X^(p^(m/r)) - X, f) = 1 for every prime r | m.  Independent of the
    closed form in find_irreducible."""
    f = list(coeffs)
    m = len(f) - 1
    h, hs = [0, 1], {}  # h_j = X^(p^j) mod f
    for j in range(1, m + 1):
        h = _poly_powmod(h, p, f, p)
        hs[j] = h
    if hs[m] != [0, 1]:
        return False
    for r in (r for r in range(2, m + 1) if m % r == 0 and all(r % q for q in range(2, r))):
        g = hs[m // r] + [0] * 2
        g[1] = (g[1] - 1) % p
        if len(_poly_gcd(g, f, p)) != 1:
            return False
    return True


def lex_first_irreducible(p, m):
    """First monic irreducible of degree m over GF(p) in lexicographic order
    of coefficient vectors, c0 varying fastest (the search the closed form
    replaced)."""
    for v in range(1, p ** m):
        coeffs = [v // p ** i % p for i in range(m)] + [1]
        if coeffs[0] and is_irreducible(coeffs, p):
            return tuple(coeffs)


def has_binomial(p, m):
    """Some X^m + c0 is irreducible over GF(p), by the Rabin oracle."""
    return any(is_irreducible([c] + [0] * (m - 1) + [1], p) for c in range(1, p))


def dot_per_add(field, xs, ys):
    """Dot product with one reduction per addition; reference for field.dot."""
    acc = field.zero
    for a, b in zip(xs, ys):
        acc = field.add(acc, field.mul(a, b))
    return acc


# deterministic examples, no example database on disk
KERNEL_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------
# field axioms
# ---------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_axioms_exhaustive(p):
    gf = F.prime_field(p)
    els = range(gf.order)
    for a in els:
        assert gf.add(a, gf.zero) == a
        assert gf.mul(a, gf.one) == a
        if a != gf.zero:
            assert gf.mul(a, gf.inv(a)) == gf.one
        for b in els:
            assert gf.add(a, b) == gf.add(b, a)
            assert gf.mul(a, b) == gf.mul(b, a)
            for c in els:
                assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
                assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (5, 4), (7, 3), (13, 6)])
def test_ext_field_axioms_sampled(p, m):
    gf = F.ext_field(p, m)
    triples = zip(rand_elems(gf, 40, 1), rand_elems(gf, 40, 2), rand_elems(gf, 40, 3))
    for a, b, c in triples:
        assert gf.add(a, b) == gf.add(b, a)
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.sub(gf.add(a, b), b) == a
        if b != gf.zero:
            assert gf.mul(gf.mul(a, gf.inv(b)), b) == a
    # frobenius is additive and fixes the base field
    for a, b, _ in zip(rand_elems(gf, 10, 4), rand_elems(gf, 10, 5), range(10)):
        assert gf.frobenius(gf.add(a, b)) == gf.add(gf.frobenius(a), gf.frobenius(b))
    for c in range(p):
        assert gf.frobenius(gf.from_coords([c])) == gf.from_coords([c])


def test_ext_field_element_roundtrips():
    gf = F.ext_field(5, 4)
    for i in [0, 1, 5, 17, 80, gf.order - 1]:
        a = elem_from_int(gf, i)
        assert elem_to_int(gf, a) == i
        assert gf.from_coords(gf.coords(a)) == a
        assert symbol_from_bytes(gf, gf.symbols_to_bytes([a])) == a


def test_modulus_is_lex_first_irreducible():
    # degree-2 over GF(3): candidates by ascending constant-first counter:
    # x^2+1 has no root (1+1=2, 4+1=2 mod 3 != 0 -> irreducible); lex-first
    assert F.ext_field(3, 2).modulus == (1, 0, 1)
    # over GF(5), x^2+1 = (x-2)(x-3); x^2+2 has no root (-2 = 3 is no square)
    assert F.ext_field(5, 2).modulus == (2, 0, 1)
    mod = F.ext_field(7, 6).modulus
    assert is_irreducible(mod, 7) and len(mod) == 7


def _scheme_fields():
    """Every extension field mbcr-exact builds for n <= 8 and mscr-dk for
    n <= 11 (l1, l2 do not change the field)."""
    from coopdss.codes import make_scheme
    from coopdss.codes.base import SchemeParams
    params = [SchemeParams(n=n, k=k, d=n - t, t=t, scheme="mbcr-exact")
              for n in range(2, 9) for t in range(1, n) for k in range(1, n - t + 1)]
    params += [SchemeParams(n=n, k=k, d=k, t=t, scheme="mscr-dk")
               for n in range(2, 12) for t in range(1, n) for k in range(1, n - t + 1)]
    return {f for f in (make_scheme(pa).field for pa in params) if f.degree > 1}


def test_find_irreducible_matches_lex_search_oracle():
    fields = _scheme_fields()
    assert len(fields) > 40
    for f in fields:
        assert f.modulus == F.find_irreducible(f.p, f.degree) == \
            lex_first_irreducible(f.p, f.degree), f


def test_find_irreducible_rejects_fields_without_binomial():
    # GF(2^2): 2 does not divide p - 1; GF(5^6): 3 does not divide 4
    for p, m in [(2, 2), (5, 6)]:
        assert not has_binomial(p, m)
        with pytest.raises(ValueError, match="no binomial modulus"):
            F.find_irreducible(p, m)
        with pytest.raises(ValueError, match="no binomial modulus"):
            F.ext_field(p, m)


def test_binomial_prime_keeps_next_prime_where_it_has_a_binomial():
    # mscr-dk's prime moved from next_prime(n) to binomial_prime(n, kt); both
    # agree, and so do its node bytes, wherever next_prime(n) already admits
    # a binomial; elsewhere the new prime is larger and admits one
    for n in range(3, 12):
        for t in range(1, n):
            for k in range(1, n - t + 1):
                m, q = k * t, F.next_prime(n)
                p = F.binomial_prime(n, m)
                if m == 1 or has_binomial(q, m):
                    assert p == q, (n, k, t)
                else:
                    assert p > q and has_binomial(p, m), (n, k, t)


# ---------------------------------------------------------
# rank / solve (worked examples first)
# ---------------------------------------------------------

def test_rank_identity_gf3():
    gf = F.prime_field(3)
    assert F.Matrix.identity(gf, 2).rank() == 2


def test_rank_zeros():
    gf = F.prime_field(3)
    assert F.Matrix(gf, [[0, 0], [0, 0]]).rank() == 0


def test_rank_vandermonde_gf7():
    gf = F.prime_field(7)
    rows = [[1, 1, 1], [1, 2, 4], [1, 3, 2]]
    # oracle: permutation-expansion determinant is nonzero
    assert det_by_permutations(gf, rows) != 0
    assert F.Matrix(gf, rows).rank() == 3


def test_rank_equals_rank_of_transpose():
    rng = random.Random(11)
    for p, m in [(5, 1), (3, 2)]:
        gf = F.ext_field(p, m)
        for _ in range(10):
            nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
            rows = [[elem_from_int(gf, rng.randrange(gf.order)) for _ in range(nc)]
                    for _ in range(nr)]
            mat = F.Matrix(gf, rows)
            assert mat.rank() == F.Matrix(gf, zip(*rows)).rank()


def test_solve_identity():
    gf = F.prime_field(7)
    assert F.Matrix.identity(gf, 3).solve([1, 5, 2]) == [1, 5, 2]


def test_solve_inconsistent():
    gf = F.prime_field(7)
    with pytest.raises(F.NoSolutionError):
        F.Matrix(gf, [[0, 0], [0, 0]]).solve([1, 0])


def test_solve_underdetermined():
    gf = F.prime_field(7)
    with pytest.raises(F.UnderdeterminedError):
        F.Matrix(gf, [[1, 1], [2, 2]]).solve([3, 6])


def test_solve_vandermonde_roundtrip():
    # evaluate 1 + 2X at 3 distinct points, solve, recover (1, 2, 0)
    gf = F.prime_field(7)
    points = [1, 2, 3]
    vals = [gf.add(1, gf.mul(2, x)) for x in points]
    system = F.Matrix(gf, [[1, x, gf.mul(x, x)] for x in points])
    assert system.solve(vals) == [1, 2, 0]


def test_rank_profile_counts_leading_columns():
    gf = F.prime_field(5)
    m = F.Matrix(gf, [[0, 1, 2], [0, 2, 4], [1, 0, 0]])
    rank, pivots = m.rank_profile()
    assert rank == 2
    assert sum(1 for c in pivots if c < 2) == 2


def test_inverse_and_nullspace():
    gf = F.prime_field(11)
    m = F.Matrix(gf, [[1, 2], [3, 4]])
    inv = m.inverse()
    # columns of m @ inv, one matvec per column of inv
    assert [m.matvec(col) for col in zip(*inv.rows)] == F.Matrix.identity(gf, 2).rows
    singular = F.Matrix(gf, [[1, 2, 3], [2, 4, 6]])
    for vec in singular.nullspace():
        assert singular.matvec(vec) == [0, 0]
    assert len(singular.nullspace()) == 2


# ---------------------------------------------------------
# dot-product kernel (delayed reduction)
# ---------------------------------------------------------

def _headroom(field) -> int:
    """Terms one ExtField.dot sums before it must reduce; 0 for GF(p)."""
    return getattr(field, "_dot_chunk", 0)


def _product_bound(p, m):
    """Largest digit one product of reduced GF(p^m) elements leaves after the
    binomial fold: m*(p-1)^2 per product digit, plus one folded digit times
    the scalar c0 < p."""
    return m * (p - 1) ** 2 * p


def _all_digits_top(f):
    """The element with every digit p-1, whose products are the largest."""
    return f.from_coords([f.p - 1] * f.degree)


# fields whose headroom a test can cross: 32-bit words (GF(31^30),
# GF(29^32), GF(257^2), GF(241^6)) and 64-bit words (GF(65537^8))
CHUNKED_FIELDS = [(31, 30), (29, 32), (257, 2), (241, 6), (65537, 8)]

# small binomial fields, GF(p) included (m = 1)
SMALL_FIELDS = [(p, m) for p in (2, 3, 5, 7, 13, 31) for m in range(1, 5)
                if m == 1 or has_binomial(p, m)]


@st.composite
def dot_inputs(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        # any small field, short inputs
        f = F.ext_field(*draw(st.sampled_from(SMALL_FIELDS)))  # GF(p) when m = 1
        length = draw(st.integers(0, 12))
    else:
        # one to two reductions past the headroom
        f = F.ext_field(*draw(st.sampled_from(CHUNKED_FIELDS)))
        length = draw(st.integers(_headroom(f) + 1, 2 * _headroom(f) + 3))
    top = _all_digits_top(f)

    def elem():
        # random elements, with zeros and all-(p-1) elements mixed in
        roll = rng.random()
        if roll < 0.15:
            return f.zero
        if roll < 0.3:
            return top
        return elem_from_int(f, rng.randrange(f.order))

    return f, [elem() for _ in range(length)], [elem() for _ in range(length)]


@KERNEL_SETTINGS
@given(dot_inputs())
def test_dot_matches_per_add_reference(case):
    f, xs, ys = case
    assert f.dot(xs, ys) == dot_per_add(f, xs, ys)


@pytest.mark.parametrize("p,m", CHUNKED_FIELDS)
def test_dot_worst_case_digits_past_headroom(p, m):
    # all digits p-1 on both operands: every raw product has the largest
    # digits there are
    f = F.ext_field(p, m)
    assert f._db in (32, 64)
    top = _all_digits_top(f)
    square = f.mul(top, top)
    chunk = f._dot_chunk
    for length in (chunk - 1, chunk, chunk + 1, 2 * chunk, 3 * chunk + 2):
        xs = ys = [top] * length
        got = f.dot(xs, ys)
        assert got == dot_per_add(f, xs, ys)
        assert got == f.scalar_mul(length, square)


def _acceptance_grid_fields():
    """Every field the acceptance grids build: mbcr-exact (criteria 2 and 6)
    and mscr-dk (criteria 5 and 6); l1, l2 do not change the field."""
    from coopdss.codes import make_scheme
    from coopdss.codes.base import SchemeParams
    params = [SchemeParams(n=n, k=k, d=n - t, t=t, scheme="mbcr-exact")
              for n in (4, 5, 6) for t in (1, 2, 3) for k in range(1, n - t + 1)]
    params += [SchemeParams(n=k + t, k=k, d=k, t=t, scheme="mscr-dk")
               for k in (2, 3) for t in (2, 3)]
    return {make_scheme(pa).field for pa in params}


def test_headroom_holds_on_acceptance_fields():
    fields = _acceptance_grid_fields()
    assert len(fields) > 10
    for f in fields:
        bound = _product_bound(f.p, f.degree)
        assert f._dot_chunk * bound < 2 ** f._db, f
        # one word holds m products, so a Moore row takes one reduction
        assert f._dot_chunk >= f.degree, f
        assert f._db == 32, f  # 64-bit words only where 32 bits do not suffice


def test_word_width_follows_the_field():
    # 32-bit words while they hold m products; 64-bit past that
    for (p, m), db in [((31, 30), 32), ((257, 2), 32), ((257, 8), 32), ((257, 16), 64),
                       ((65537, 8), 64)]:
        f = F.ext_field(p, m)
        assert f._db == db
        assert f._dot_chunk == (2 ** db - 1) // _product_bound(p, m) >= m
    assert F.ext_field(31, 30)._dot_chunk == 5131
    assert (2 ** 32 - 1) // _product_bound(257, 16) < 16
    # 64-bit words that cannot hold 2 products, or m products (a Moore row)
    with pytest.raises(ValueError, match="too large"):
        F.ExtField(F.prime_field(2 ** 31 - 1), 2)
    assert 2 <= (2 ** 64 - 1) // _product_bound(2081, 10 ** 6) < 10 ** 6
    with pytest.raises(ValueError, match="too large"):
        F.ExtField(F.prime_field(2081), 10 ** 6)


# GF(257^8) on 32-bit words, GF(257^16) on 64-bit words
@pytest.mark.parametrize("p,m", [(31, 30), (43, 21), (7, 9), (257, 8), (257, 16)])
def test_inv_of_base_field_constants(p, m):
    # a packed constant c < p inverts to a constant; X takes the norm
    f = F.ext_field(p, m)
    for c in range(1, p):
        inv = f.inv(c)
        assert inv < p and f.mul(c, inv) == f.one, c
    x = O.basis_element(f, 1)
    assert f.mul(x, f.inv(x)) == f.one


# 4093 is the largest tabled prime and 4099 the first untabled one
@pytest.mark.parametrize("p", [2, 3, 11, 31, 331, 4093, 4099])
def test_prime_inverse_table_matches_pow(p):
    # below _INVERSE_TABLE_P, inv reads a table built on its first call by
    # the O(p) recurrence; past it, inv is a^(p-2).  0 and every multiple
    # of p still raise, and any other int inverts by its residue
    assert max(q for q in range(F._INVERSE_TABLE_P) if F._is_prime(q)) == 4093
    assert F.next_prime(F._INVERSE_TABLE_P) == 4099
    f = F.PrimeField(p)
    assert f._inverses is None
    assert [f.inv(a) for a in range(1, p)] == [pow(a, p - 2, p) for a in range(1, p)]
    assert (f._inverses is not None) == (p < F._INVERSE_TABLE_P)
    assert f.inv(-1) == p - 1 and f.inv(p + 1) == 1
    for a in (0, p, -p, 7 * p):
        with pytest.raises(ZeroDivisionError, match="inverse of zero"):
            f.inv(a)


def test_field_cache_stays_at_its_bound_and_rebuilds_evicted_fields(monkeypatch):
    # more fields than the bound: the cache never holds more, the oldest
    # go first, and an evicted field comes back equal, inverses included
    monkeypatch.setattr(F, "_FIELD_CACHE", {})
    prime, ext = F.prime_field(5), F.ext_field(5, 4)
    inverses = [prime.inv(a) for a in range(1, 5)]
    for q in [q for q in range(7, 1000) if F._is_prime(q)][:F._FIELD_CACHE_SIZE]:
        F.prime_field(q)
        assert len(F._FIELD_CACHE) <= F._FIELD_CACHE_SIZE
    assert len(F._FIELD_CACHE) == F._FIELD_CACHE_SIZE
    assert (5, 1) not in F._FIELD_CACHE and (5, 4) not in F._FIELD_CACHE
    again, ext_again = F.prime_field(5), F.ext_field(5, 4)
    assert again is not prime and again == prime
    assert [again.inv(a) for a in range(1, 5)] == inverses
    assert ext_again is not ext and ext_again == ext
    assert (ext_again.modulus, ext_again.base) == (ext.modulus, ext.base)
    assert F.prime_field(5) is again and len(F._FIELD_CACHE) == F._FIELD_CACHE_SIZE


@pytest.mark.parametrize("p", [2, 11, 251])
def test_one_byte_decode_refuses_every_byte_from_p(p):
    # one-byte coordinates decode as the bytes themselves, with the same
    # refusal as wider ones for every byte at or past p
    f = F.prime_field(p)
    assert f.symbols_from_bytes(bytes(range(p))) == list(range(p))
    for b in range(p, 256):
        with pytest.raises(ValueError, match=rf"^coordinate {b} out of range for GF\({p}\)$"):
            f.symbols_from_bytes(bytes([0, p - 1, b, 0, b]))


# binomial fields on 32-bit words, GF(29^56) the largest degree, and on
# 64-bit words (GF(257^16), GF(65537^8))
INV_FIELDS = [(3, 2), (7, 6), (7, 9), (13, 24), (31, 30), (29, 56), (257, 16), (65537, 8)]


@st.composite
def nonzero_elements(draw):
    f = F.ext_field(*draw(st.sampled_from(INV_FIELDS)))
    kind = draw(st.sampled_from(("constant", "top", "random")))
    if kind == "constant":
        return f, f.from_coords([draw(st.integers(1, f.p - 1))])
    if kind == "top":
        return f, _all_digits_top(f)
    return f, elem_from_int(f, draw(st.integers(1, f.order - 1)))


@KERNEL_SETTINGS
@given(nonzero_elements())
def test_inv_by_norm_matches_pow(case):
    # Fermat's a^(q-2) is the oracle for the norm formula
    f, a = case
    inv = f.inv(a)
    assert inv == O.power(f, a, f.order - 2)
    assert f.mul(a, inv) == f.one
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero)


@st.composite
def matvec_inputs(draw):
    f = F.ext_field(*draw(st.sampled_from(SMALL_FIELDS)))
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    elem = st.integers(0, f.order - 1).map(lambda i: elem_from_int(f, i))
    rows = draw(st.lists(st.lists(elem, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    vec = draw(st.lists(elem, min_size=ncols, max_size=ncols))
    return F.Matrix(f, rows, ncols=ncols), vec


@KERNEL_SETTINGS
@given(matvec_inputs())
def test_matvec_matches_per_add_reference(case):
    mat, vec = case
    assert mat.matvec(vec) == [dot_per_add(mat.field, row, vec) for row in mat.rows]


# ---------------------------------------------------------
# closed-form inverses against Matrix.inverse
# ---------------------------------------------------------

INVERSE_PRIMES = [2, 3, 5, 7, 13, 31, 257, 65537]


@st.composite
def point_sets(draw, sides):
    """A prime p and `sides` lists of one size, all points distinct mod p;
    each point may be shifted by a multiple of p (the forms reduce mod p)."""
    p = draw(st.sampled_from(INVERSE_PRIMES))
    size = draw(st.integers(1, min(7, p // sides)))
    pts = draw(st.lists(st.integers(0, p - 1), min_size=sides * size,
                        max_size=sides * size, unique=True))
    shifts = draw(st.lists(st.integers(-2, 2), min_size=len(pts), max_size=len(pts)))
    pts = [x + s * p for x, s in zip(pts, shifts)]
    return p, [pts[i * size:(i + 1) * size] for i in range(sides)]


@KERNEL_SETTINGS
@given(point_sets(1))
def test_vandermonde_inverse_matches_elimination(case):
    p, (xs,) = case
    system = F.Matrix(F.prime_field(p), [[pow(x, e, p) for e in range(len(xs))] for x in xs])
    assert F.vandermonde_inverse(p, xs) == system.inverse().rows


@KERNEL_SETTINGS
@given(point_sets(1))
def test_cached_vandermonde_rows_match_formula_and_elimination(case):
    p, (xs,) = case
    rows = F.vandermonde_inverse_rows(p, tuple(xs))
    assert isinstance(rows, tuple) and all(isinstance(row, tuple) for row in rows)
    system = F.Matrix(F.prime_field(p), [[pow(x, e, p) for e in range(len(xs))] for x in xs])
    assert [list(row) for row in rows] == F.vandermonde_inverse(p, xs) == system.inverse().rows
    assert F.vandermonde_inverse_rows(p, tuple(xs)) is rows


def test_cached_vandermonde_rows_stay_bounded():
    maxsize = F.vandermonde_inverse_rows.cache_info().maxsize
    for x in range(maxsize + 10):
        F.vandermonde_inverse_rows(65537, (x, x + 1))
    info = F.vandermonde_inverse_rows.cache_info()
    assert maxsize and info.currsize <= maxsize


@KERNEL_SETTINGS
@given(point_sets(2))
def test_cauchy_inverse_matches_elimination(case):
    p, (us, vs) = case
    system = F.Matrix(F.prime_field(p), [[pow(u - v, p - 2, p) for v in vs] for u in us])
    assert F.cauchy_inverse(p, us, vs) == system.inverse().rows


def test_closed_form_inverses_reject_repeated_points():
    for xs in ([1, 2, 1], [1, 8]):  # 8 = 1 mod 7
        with pytest.raises(ValueError, match="repeated"):
            F.vandermonde_inverse(7, xs)
    for us, vs in (([1, 1], [2, 3]), ([1, 2], [3, 10])):
        with pytest.raises(ValueError, match="repeated"):
            F.cauchy_inverse(7, us, vs)
    with pytest.raises(ValueError, match="shared"):
        F.cauchy_inverse(7, [1, 2], [9, 3])  # 9 = 2 mod 7
    assert F.vandermonde_inverse(7, []) == []


# ---------------------------------------------------------
# elimination kernel against a per-operation reference
# ---------------------------------------------------------

def echelon_per_op(f, rows, aug=None):
    """Fraction-free echelon, column by column with f.mul/f.sub per entry:
    an independent reference for the pivots of Matrix._echelon, which
    builds its echelon form row by row with leading ones."""
    a = [r[:] for r in rows]
    b = [r[:] for r in aug] if aug is not None else None
    nc = len(rows[0]) if rows else 0
    pivots, r = [], 0
    for c in range(nc):
        piv = next((i for i in range(r, len(a)) if a[i][c] != f.zero), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        if b is not None:
            b[r], b[piv] = b[piv], b[r]
        pv = a[r][c]
        for i in range(r + 1, len(a)):
            aic = a[i][c]
            if aic == f.zero:
                continue
            a[i] = [f.sub(f.mul(pv, x), f.mul(aic, y)) for x, y in zip(a[i], a[r])]
            if b is not None:
                b[i] = [f.sub(f.mul(pv, x), f.mul(aic, y)) for x, y in zip(b[i], b[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, b, pivots


def back_substitute_per_op(f, a, pivots, rhs, x):
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        acc = rhs[i]
        for j in range(c + 1, len(x)):
            acc = f.sub(acc, f.mul(a[i][j], x[j]))
        x[c] = f.mul(acc, f.inv(a[i][c]))
    return x


def solve_per_op(f, rows, ncols, rhs):
    a, b, pivots = echelon_per_op(f, rows, [[v] for v in rhs])
    if any(b[i][0] != f.zero for i in range(len(pivots), len(rows))):
        raise F.NoSolutionError
    if len(pivots) < ncols:
        raise F.UnderdeterminedError
    return back_substitute_per_op(f, a, pivots, [row[0] for row in b], [f.zero] * ncols)


def nullspace_per_op(f, rows, ncols):
    a, _, pivots = echelon_per_op(f, rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        x = [f.zero] * ncols
        x[fc] = f.one
        basis.append(back_substitute_per_op(f, a, pivots, [f.zero] * len(pivots), x))
    return basis


def inverse_per_op(f, rows):
    n = len(rows)
    a, b, pivots = echelon_per_op(f, rows, F.Matrix.identity(f, n).rows)
    if len(pivots) != n:
        raise F.UnderdeterminedError
    cols = [back_substitute_per_op(f, a, pivots, [row[col] for row in b], [f.zero] * n)
            for col in range(n)]
    return [list(r) for r in zip(*cols)]


def outcome(fn, *args):
    """fn's result, or the type of the linear-algebra error it raised."""
    try:
        return fn(*args)
    except (F.NoSolutionError, F.UnderdeterminedError) as exc:
        return type(exc)


# one field on 64-bit words, GF(257^16), and one with p >= 256, GF(257^2)
WIDE_FIELDS = [(257, 16), (257, 2)]

# binomial fields of degree 2..6 over small primes
SMALL_EXT_FIELDS = [(p, m) for p in (2, 3, 5, 7, 11, 13, 31) for m in range(2, 7)
                    if has_binomial(p, m)]


@st.composite
def ext_matrices(draw, square=False):
    p, m = draw(st.one_of(st.sampled_from(SMALL_EXT_FIELDS), st.sampled_from(WIDE_FIELDS)))
    f = F.ext_field(p, m)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 5))
    zero_share = draw(st.sampled_from([0.0, 0.3, 0.7]))

    def elem():
        return f.zero if rng.random() < zero_share else elem_from_int(f, rng.randrange(f.order))

    rows = [[elem() for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        # make the last row a combination of the others: rank deficient
        coeffs = [elem() for _ in range(nrows - 1)]
        rows[-1] = [f.dot(coeffs, [row[j] for row in rows[:-1]]) for j in range(ncols)]
    rhs = [elem() for _ in range(nrows)]
    if draw(st.booleans()):
        rhs = F.Matrix(f, rows).matvec([elem() for _ in range(ncols)])  # consistent
    return f, rows, rhs


def check_solve_and_rank_profile(f, rows, rhs):
    mat = F.Matrix(f, rows)
    _, _, ref_pivots = echelon_per_op(f, rows)
    assert mat.rank_profile() == (len(ref_pivots), ref_pivots)
    got = outcome(mat.solve, rhs)
    assert got == outcome(solve_per_op, f, rows, mat.ncols, rhs)
    if isinstance(got, list):
        assert mat.matvec(got) == rhs


def check_nullspace(f, rows):
    mat = F.Matrix(f, rows)
    basis = mat.nullspace()
    assert basis == nullspace_per_op(f, rows, mat.ncols)
    assert len(basis) == mat.ncols - mat.rank()
    for vec in basis:
        assert mat.matvec(vec) == [f.zero] * mat.nrows


def check_inverse(f, rows):
    mat = F.Matrix(f, rows)
    got = outcome(mat.inverse)
    ref = outcome(inverse_per_op, f, rows)
    if isinstance(got, F.Matrix):
        assert got.rows == ref
        identity = F.Matrix.identity(f, mat.nrows).rows
        assert [mat.matvec(col) for col in zip(*got.rows)] == identity
    else:
        assert got is ref is F.UnderdeterminedError


@KERNEL_SETTINGS
@given(ext_matrices())
def test_solve_and_rank_profile_match_per_op_reference(case):
    check_solve_and_rank_profile(*case)


@KERNEL_SETTINGS
@given(ext_matrices())
def test_nullspace_matches_per_op_reference(case):
    f, rows, _ = case
    check_nullspace(f, rows)


@KERNEL_SETTINGS
@given(ext_matrices(square=True))
def test_inverse_matches_per_op_reference(case):
    f, rows, _ = case
    check_inverse(f, rows)


# every elimination the program runs is over GF(p): the smallest prime, two
# that the benchmark's views use (11, 31) and a 17-bit prime
ELIMINATION_PRIMES = [2, 11, 31, 65537]


@st.composite
def prime_matrices(draw, square=False):
    """GF(p) matrices shaped like the views the program eliminates: sparse,
    up to about twice as tall as wide, with zero rows, unit rows (leading
    one or not) and repeats of earlier rows."""
    f = F.prime_field(draw(st.sampled_from(ELIMINATION_PRIMES)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    ncols = draw(st.integers(1, 6))
    nrows = ncols if square else draw(st.integers(1, 2 * ncols + 2))
    zero_share = draw(st.sampled_from([0.0, 0.5, 0.85]))

    def row():
        kind = rng.random()
        if kind < 0.15:
            return [0] * ncols
        if kind < 0.4:
            unit = [0] * ncols
            unit[rng.randrange(ncols)] = 1 if rng.random() < 0.5 else rng.randrange(1, f.p)
            return unit
        return [0 if rng.random() < zero_share else rng.randrange(f.p) for _ in range(ncols)]

    rows = []
    for _ in range(nrows):
        rows.append(rows[rng.randrange(len(rows))][:] if rows and rng.random() < 0.2 else row())
    rhs = [rng.randrange(f.p) for _ in range(nrows)]
    if draw(st.booleans()):
        rhs = F.Matrix(f, rows).matvec([rng.randrange(f.p) for _ in range(ncols)])  # consistent
    return f, rows, rhs


@KERNEL_SETTINGS
@given(prime_matrices())
def test_prime_elimination_matches_per_op_reference(case):
    f, rows, rhs = case
    check_solve_and_rank_profile(f, rows, rhs)
    check_nullspace(f, rows)


@KERNEL_SETTINGS
@given(prime_matrices(square=True))
def test_prime_inverse_matches_per_op_reference(case):
    f, rows, _ = case
    check_inverse(f, rows)


# primes whose views take every lane width of the packed walk: 32-bit lanes
# with no fold (3, 43), one (331) and three (5003), 64-bit (65537) and
# 128-bit (2^31 - 1) ones
WALK_PRIMES = [3, 43, 331, 5003, 65537, 2 ** 31 - 1]


def lane_bound_rows(p, ncols, dependent):
    """Basis rows [0..0, 1, p-1, ..., p-1] and one last row whose lead is 1
    at every column, so that each of its ncols - 1 row operations adds
    (p-1)^2 to every lane after it: its lanes reach the bound `_lanes`
    sizes them for, and its last lane decides whether it is dependent
    (rank ncols - 1) or not (rank ncols)."""
    rows = [[0] * i + [1] + [p - 1] * (ncols - i - 1) for i in range(ncols - 1)]
    last = [(1 - j) % p for j in range(ncols)]
    last[-1] = (1 - ncols - (not dependent)) % p
    return rows + [last]


@st.composite
def walk_matrices(draw):
    """GF(p) rows up to 60 columns wide for `Matrix._walk`, with entries
    drawn in [0, p) or anywhere in (-3p, 3p), and a right-hand side:
    - "view": sparse or dense rows, unit rows and repeats, up to 70 of them;
    - "triangular": lower-triangular rows with every entry p-1, so the last
      row meets a row operation at every column but its own;
    - "lane bound": `lane_bound_rows`."""
    p = draw(st.sampled_from(WALK_PRIMES))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(["view", "triangular", "lane bound"]))
    ncols = draw(st.integers(1, 60))
    if kind == "triangular":
        rows = [[p - 1] * (i + 1) + [0] * (ncols - i - 1) for i in range(ncols)]
    elif kind == "lane bound":
        rows = lane_bound_rows(p, ncols, draw(st.booleans()))
    else:
        zero_share = draw(st.sampled_from([0.0, 0.5, 0.9]))
        rows = []
        for _ in range(draw(st.integers(1, 70))):
            if rows and rng.random() < 0.2:
                rows.append(rows[rng.randrange(len(rows))][:])
            elif rng.random() < 0.2:
                rows.append([0] * ncols)
                rows[-1][rng.randrange(ncols)] = rng.choice([1, rng.randrange(1, p)])
            else:
                rows.append([0 if rng.random() < zero_share else rng.randrange(p)
                             for _ in range(ncols)])
    if draw(st.booleans()):
        rhs = F.Matrix(F.prime_field(p), rows).matvec([rng.randrange(p) for _ in range(ncols)])
    else:
        rhs = [rng.randrange(p) for _ in rows]
    if draw(st.booleans()):  # the same rows and rhs, entries moved outside [0, p)
        rows = [[a + p * rng.randrange(-2, 3) for a in row] for row in rows]
        rhs = [a + p * rng.randrange(-2, 3) for a in rhs]
    return F.prime_field(p), rows, rhs


def check_packed_walk(f, raw, raw_rhs):
    """Rank, pivots, solve (NoSolutionError too), nullspace and inverse of
    the packed walk on `raw` against the per-entry reference on its reduced
    rows; rows packed ahead (`Matrix._of`, as a view's) give the same
    profile, and `_echelon` returns reduced entries only, its dependent rows
    zero with their aug entries reduced."""
    p, ncols = f.p, len(raw[0])
    rows = [[a % p for a in row] for row in raw]
    rhs = [a % p for a in raw_rhs]
    mat = F.Matrix(f, raw)
    _, _, pivots = echelon_per_op(f, rows)
    assert mat.rank_profile() == (len(pivots), pivots) == \
        F.Matrix._of(f, F.pack_rows(p, ncols, raw), ncols).rank_profile()
    got = outcome(mat.solve, raw_rhs)
    assert got == outcome(solve_per_op, f, rows, ncols, rhs)
    assert mat.nullspace() == nullspace_per_op(f, rows, ncols)
    augs = [[[v] for v in raw_rhs]]
    if len(raw) == ncols:
        got = outcome(mat.inverse)
        assert (got.rows if isinstance(got, F.Matrix) else got) == outcome(inverse_per_op, f, rows)
        augs.append([[3 * p - 1 if i == j else -j for j in range(ncols)] for i in range(ncols)])
    for aug in augs:
        a, b, got_pivots = mat._echelon(aug)
        assert got_pivots == pivots and len(a) == len(b) == len(raw)
        assert all(0 <= x < p for row in a + b for x in row)
        assert all(not any(row) for row in a[len(pivots):])


@settings(max_examples=90, deadline=None, derandomize=True, database=None)
@given(walk_matrices())
def test_packed_walk_matches_per_op_reference(case):
    check_packed_walk(*case)


# at 2^31 - 1 the lanes turn 128-bit past 4 columns: 6 to 8 columns overflow
# 64-bit lanes only at the bound
@pytest.mark.parametrize("p", WALK_PRIMES)
@pytest.mark.parametrize("ncols", [1, 2, 5, 6, 7, 8, 9, 16, 33, 60])
def test_packed_walk_at_the_lane_bound(p, ncols):
    f = F.prime_field(p)
    for dependent in (True, False):
        rows = lane_bound_rows(p, ncols, dependent)
        rank = ncols - dependent
        assert F.Matrix(f, rows).rank_profile() == (rank, list(range(rank)))
        x = [(7 * j + 1) % p for j in range(ncols)]
        rhs = F.Matrix(f, rows).matvec(x)
        if not dependent:
            assert F.Matrix(f, rows).solve(rhs) == x
        check_packed_walk(f, rows, rhs)
        check_packed_walk(f, rows, [v + 1 for v in rhs])


def row_operations(fn, *args):
    """(fn(*args), the row operations `Matrix._walk` ran meanwhile): the
    executions of its multiply-add line, counted by a line tracer."""
    walk = F.Matrix._walk
    lines, first = inspect.getsourcelines(walk)
    (target,) = [first + i for i, line in enumerate(lines) if "(p - v) * lead" in line]
    count = 0

    def on_line(frame, event, arg):
        nonlocal count
        if event == "line" and frame.f_lineno == target:
            count += 1
        return on_line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line if frame.f_code is walk.__code__ else None)
    try:
        return fn(*args), count
    finally:
        sys.settrace(previous)


def test_elimination_stops_at_full_column_rank_but_solve_sees_every_row():
    f = F.prime_field(11)
    # the unit rows reach full column rank; the last row is then inconsistent
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [3, 4, 5], [1, 1, 1]]
    rhs = [1, 2, 3, (3 + 8 + 15) % 11, 5]
    mat = F.Matrix(f, rows)
    profile, ops = row_operations(mat.rank_profile)
    assert profile == (3, [0, 1, 2])
    assert ops == 0  # the walk stopped after the three unit rows
    solved, ops = row_operations(outcome, mat.solve, rhs)
    assert solved is outcome(solve_per_op, f, rows, 3, rhs) is F.NoSolutionError
    assert ops == 6  # rows 4 and 5 each reduced at all three columns
    assert F.Matrix(f, rows[:4]).solve(rhs[:4]) == [1, 2, 3]
    assert F.Matrix(f, rows).nullspace() == []


def test_matrix_refuses_ncols_that_disagree_with_its_rows():
    f = F.prime_field(11)
    with pytest.raises(ValueError, match="ncols"):
        F.Matrix(f, [[1, 2]], ncols=3)
    assert F.Matrix(f, [[1, 2]], ncols=2).ncols == 2
    assert F.Matrix(f, [], ncols=3).ncols == 3


# p >= 256: two coordinate bytes (GF(257^2)), three on 64-bit words (GF(65537^8));
# m = 1 gives the prime fields
@pytest.mark.parametrize("p,m", [(257, 2), (65537, 8), (31, 30), (257, 1), (65537, 1)])
@KERNEL_SETTINGS
@given(data=st.data())
def test_symbol_bytes_roundtrip_and_range(p, m, data):
    f = F.ext_field(p, m)
    w = f.coord_width
    coords = data.draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m))
    a = f.from_coords(coords)
    raw = b"".join(c.to_bytes(w, "little") for c in coords)  # coordinate 0 first
    assert f.symbols_to_bytes([a]) == raw
    assert symbol_from_bytes(f, raw) == a
    assert f.coords(a) == tuple(coords)
    # any coordinate at or past p is rejected
    idx = data.draw(st.integers(0, m - 1))
    bad = data.draw(st.integers(p, 256 ** w - 1))
    bad_raw = raw[:idx * w] + bad.to_bytes(w, "little") + raw[(idx + 1) * w:]
    with pytest.raises(ValueError, match=f"coordinate {bad} out of range"):
        symbol_from_bytes(f, bad_raw)
    with pytest.raises(ValueError, match="wrong symbol width"):
        symbol_from_bytes(f, raw[:-1])
    # a run of symbols converts in one pass, each symbol as it would alone
    run = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=m, max_size=m),
                             max_size=3))
    symbols = [a] + [f.from_coords(cs) for cs in run]
    run_raw = raw + b"".join(c.to_bytes(w, "little") for cs in run for c in cs)
    assert f.symbols_to_bytes(symbols) == run_raw
    assert f.symbols_from_bytes(run_raw) == symbols
    with pytest.raises(ValueError, match=f"coordinate {bad} out of range"):
        f.symbols_from_bytes(run_raw + bad_raw)
    with pytest.raises(ValueError, match="wrong symbol width"):
        f.symbols_from_bytes(run_raw + raw[:-1])


# ---------------------------------------------------------
# linearized polynomials: Moore matrices against the term-by-term oracle
# ---------------------------------------------------------

def moore_eval(gf, coeffs, g):
    return F.moore_matrix(gf, [g], len(coeffs)).matvec(list(coeffs))[0]


def test_eval_linearized_degree_zero():
    gf = F.ext_field(5, 2)
    c = elem_from_int(gf, 9)
    g = elem_from_int(gf, 13)
    assert F.moore_matrix(gf, [g, gf.zero], 1).matvec([c]) == [gf.mul(c, g), gf.zero]
    assert linearized_eval(gf, (c,), g) == gf.mul(c, g)


def test_linearized_is_base_field_linear():
    gf = F.ext_field(7, 3)
    coeffs = rand_elems(gf, 3, 21)
    rng = random.Random(22)
    for _ in range(20):
        a1, a2 = rng.randrange(7), rng.randrange(7)
        g1, g2 = rand_elems(gf, 2, rng.randrange(10 ** 6))
        combo = gf.add(gf.scalar_mul(a1, g1), gf.scalar_mul(a2, g2))
        lhs = moore_eval(gf, coeffs, combo)
        rhs = gf.add(gf.scalar_mul(a1, moore_eval(gf, coeffs, g1)),
                     gf.scalar_mul(a2, moore_eval(gf, coeffs, g2)))
        assert lhs == rhs
        assert lhs == linearized_eval(gf, coeffs, combo)


def test_interpolate_single_point():
    gf = F.ext_field(7, 3)
    c = elem_from_int(gf, 5)
    g = O.basis_element(gf, 1)
    assert F.moore_matrix(gf, [g], 1).solve([gf.mul(c, g)]) == [c]


def test_interpolate_roundtrip():
    gf = F.ext_field(11, 5)
    coeffs = rand_elems(gf, 5, 31)
    pts = O.basis_elements(gf, 5)
    vals = [linearized_eval(gf, coeffs, g) for g in pts]
    assert F.moore_matrix(gf, pts, 5).solve(vals) == coeffs
    assert O.basis_moore_inverse(gf).matvec(vals) == coeffs


def test_interpolate_frobenius_on_gf4_basis():
    # f(g) = g^p on a quadratic field has linearized coefficients (0, 1);
    # GF(3^2) stands in for GF(4), which has no binomial modulus
    gf = F.ext_field(3, 2)
    pts = O.basis_elements(gf, 2)
    vals = [gf.mul(gf.mul(g, g), g) for g in pts]
    assert F.moore_matrix(gf, pts, 2).solve(vals) == [gf.zero, gf.one]


def test_interpolate_rejects_dependent_points():
    gf = F.ext_field(7, 3)
    g = O.basis_element(gf, 0)
    with pytest.raises(F.UnderdeterminedError):
        F.moore_matrix(gf, [g, g], 2).solve([g, g])


def test_evaluation_map_injective_on_independent_points():
    # distinct coefficient vectors give distinct value vectors when the
    # point count reaches the coefficient count
    gf = F.ext_field(3, 2)
    moore = F.moore_matrix(gf, O.basis_elements(gf, 2), 2)
    seen = {}
    elements = [elem_from_int(gf, i) for i in range(gf.order)]
    for c0 in elements:
        for c1 in elements:
            key = tuple(moore.matvec([c0, c1]))
            assert key not in seen, "evaluation map collided"
            seen[key] = (c0, c1)


# ---------------------------------------------------------
# basis elements
# ---------------------------------------------------------

def test_basis_elements_first_is_one():
    gf = F.ext_field(7, 3)
    assert O.basis_elements(gf, 1) == [gf.one]


def test_basis_elements_full_rank():
    gf = F.ext_field(7, 3)
    for count in (2, 3):
        basis = O.basis_elements(gf, count)
        rows = [list(gf.coords(b)) for b in basis]
        assert F.Matrix(F.prime_field(7), rows).rank() == count


def test_basis_elements_rejects_overlong():
    gf = F.ext_field(7, 3)
    with pytest.raises(ValueError):
        O.basis_elements(gf, 4)


def test_moore_matrix_rank_matches_point_independence():
    gf = F.ext_field(5, 4)
    pts = O.basis_elements(gf, 3)
    assert F.moore_matrix(gf, pts, 3).rank() == 3
    dep = pts + [gf.add(pts[0], pts[1])]
    assert F.moore_matrix(gf, dep, 4).rank() == 3


@pytest.mark.parametrize("p,m", [(2, 1), (3, 2), (5, 4), (7, 9), (31, 15)])
def test_basis_moore_cache_inverse(p, m):
    gf = F.ext_field(p, m)
    moore = O.basis_moore_matrix(gf)
    assert moore is O.basis_moore_matrix(gf)
    assert moore == F.moore_matrix(gf, O.basis_elements(gf, m), m)
    inv = O.basis_moore_inverse(gf)
    assert inv is O.basis_moore_inverse(gf)
    # Moore . Moore^-1 = I, one column at a time
    identity = F.Matrix.identity(gf, m).rows
    assert [moore.matvec(col) for col in zip(*inv.rows)] == identity
    assert O._BASIS_MOORE_CACHE[gf] == [moore, inv]


# binomial fields on 32-bit words, GF(29^56) the largest degree, and on
# 64-bit words (GF(257^16), GF(65537^8))
FROBENIUS_FIELDS = [(3, 2), (5, 4), (7, 9), (13, 6), (31, 15), (31, 30), (43, 21),
                    (29, 56), (257, 16), (65537, 8)]


@st.composite
def frobenius_inputs(draw):
    f = F.ext_field(*draw(st.sampled_from(FROBENIUS_FIELDS)))
    kind = draw(st.sampled_from(("zero", "top", "constant", "random")))
    if kind == "zero":
        return f, f.zero
    if kind == "top":
        return f, _all_digits_top(f)
    if kind == "constant":
        return f, f.from_coords([draw(st.integers(0, f.p - 1))])
    return f, elem_from_int(f, draw(st.integers(0, f.order - 1)))


@KERNEL_SETTINGS
@given(frobenius_inputs())
def test_frobenius_matches_pow(case):
    f, a = case
    assert f.frobenius(a) == O.power(f, a, f.p)


def _moore_inverse_fields():
    """The Gabidulin fields of the acceptance grids (criteria 2, 5 and 6),
    of the benchmark's datapath and lifetime instances, of mbcr-exact
    (8,4,7,1) (GF(89^44)) and the M = 1 prime field of mscr-dk (2,1,1,1)."""
    from coopdss.codes import make_scheme
    from coopdss.codes.base import SchemeParams
    params = [SchemeParams(n=n, k=k, d=d, t=t, scheme=scheme) for scheme, n, k, d, t in (
        ("mbcr-exact", 5, 3, 3, 2), ("mbcr-exact", 6, 5, 5, 1), ("mscr-dk", 7, 3, 3, 3),
        ("mscr-dk", 6, 3, 3, 3), ("mbcr-exact", 6, 3, 4, 2), ("mbcr-exact", 8, 4, 7, 1),
        ("mscr-dk", 2, 1, 1, 1))]
    return _acceptance_grid_fields() | {make_scheme(pa).field for pa in params}


def test_basis_moore_inverse_matches_elimination():
    fields = _moore_inverse_fields()
    assert F.ext_field(89, 44) in fields and F.prime_field(2) in fields
    for f in sorted(fields, key=lambda f: (f.char, f.degree)):
        assert O.basis_moore_inverse(f).rows == O.basis_moore_matrix(f).inverse().rows, f
    assert O.basis_moore_inverse(F.prime_field(2)).rows == [[1]]


def test_basis_moore_inverse_runs_no_elimination(monkeypatch):
    calls = []
    echelon = F.Matrix._echelon

    def counting_echelon(self, *args, **kwargs):
        calls.append(self.nrows)
        return echelon(self, *args, **kwargs)

    # an empty cache, put back afterwards, so the matrix and its inverse are built
    monkeypatch.setattr(O, "_BASIS_MOORE_CACHE", {})
    monkeypatch.setattr(F.Matrix, "_echelon", counting_echelon)
    for p, m in [(31, 30), (7, 9), (2, 1)]:
        gf = F.ext_field(p, m)
        inv = O.basis_moore_inverse(gf)
        assert calls == [], (p, m)
        identity = F.Matrix.identity(gf, m).rows
        assert [O.basis_moore_matrix(gf).matvec(col) for col in zip(*inv.rows)] \
            == identity


# ---------------------------------------------------------
# Gabidulin precoding tables against the dense Moore matrices
# ---------------------------------------------------------

# every Frobenius test field, the other multi-class field GF(13^24),
# mbcr-exact (8,4,7,1)'s GF(89^44) and mscr-dk (2,1,1,1)'s prime field
MOORE_TABLE_FIELDS = FROBENIUS_FIELDS + [(13, 24), (89, 44), (2, 1)]


@st.composite
def moore_table_inputs(draw):
    f = F.ext_field(*draw(st.sampled_from(MOORE_TABLE_FIELDS)))
    if draw(st.booleans()):
        return f, [f.from_coords([f.p - 1] * f.degree)] * f.degree
    return f, [elem_from_int(f, draw(st.integers(0, f.order - 1))) for _ in range(f.degree)]


@KERNEL_SETTINGS
@given(moore_table_inputs())
def test_basis_moore_tables_match_the_dense_matrices(case):
    f, v = case
    x = F.basis_moore_apply(f, v)
    assert x == O.basis_moore_matrix(f).matvec(v)
    assert F.basis_moore_inverse_apply(f, v) == O.basis_moore_inverse(f).matvec(v)
    assert F.basis_moore_inverse_apply(f, x) == v
    # a wrong length is refused, never truncated or padded
    for bad in (v[:-1], v + [f.zero]):
        for kernel in (F.basis_moore_apply, F.basis_moore_inverse_apply):
            with pytest.raises(ValueError, match="dimension mismatch"):
                kernel(f, bad)


def test_basis_moore_table_classes():
    # one Frobenius class when p = 1 mod m; GF(13^24), GF(29^56) and GF(7^9)
    # have more, and their columns group by p^j mod m
    for (p, m), count in [((31, 30), 1), ((89, 44), 1), ((13, 24), 2), ((29, 56), 2),
                          ((7, 9), 3)]:
        classes = F._basis_moore_table(F.ext_field(p, m))[0]
        assert len(classes) == count, (p, m)
        assert sorted(j for cols in classes for j in cols) == list(range(m))
        assert all(len({pow(p, j, m) for j in cols}) == 1 for cols in classes)


# ---------------------------------------------------------
# word-parallel normalisation against the per-digit pass
# ---------------------------------------------------------

# 32-bit words: GF(7^6), GF(43^21), GF(31^30), GF(89^44); 64-bit words:
# GF(331^55) (mbcr-exact (9,5,7,2)), GF(4099^2)
NORMALIZE_FIELDS = [(7, 6), (43, 21), (31, 30), (89, 44), (331, 55), (4099, 2)]


@st.composite
def packed_words(draw):
    """A packed int of m words, each digit anywhere in [0, 2^db), the
    extremes 0, p - 1, p and 2^db - 1 drawn often."""
    f = F.ext_field(*draw(st.sampled_from(NORMALIZE_FIELDS)))
    top = (1 << f._db) - 1
    digit = st.one_of(st.sampled_from((0, f.p - 1, f.p, top)), st.integers(0, top))
    return f, f._pack(draw(st.lists(digit, min_size=f.m, max_size=f.m)))


@KERNEL_SETTINGS
@given(packed_words())
def test_normalize_matches_per_digit_oracle(case):
    f, v = case
    assert f._normalize(v) == O.normalize_per_digit(f, v)


@pytest.mark.parametrize("p,m", NORMALIZE_FIELDS)
def test_normalize_extreme_words(p, m):
    f = F.ext_field(p, m)
    top = (1 << f._db) - 1
    for d in (0, 1, p - 1, p, p + 1, 2 * p - 1, top - 1, top):
        for digits in ([d] * m, [d] + [0] * (m - 1), [0] * (m - 1) + [d], [d, top] * (m // 2)):
            v = f._pack(digits)
            assert f._normalize(v) == O.normalize_per_digit(f, v), (d, digits[:2])


def _check_reduction_plan(p, db, m, folds, quotient):
    # each fold's digit bound stays below 2^db (no carry leaves a word), and
    # the quotient step's W c < 2^db and W e < 2^s hold for the final bound
    word_masks = lambda bits: sum(((1 << bits) - 1) << (db * i) for i in range(m))
    bound = (1 << db) - 1
    assert len(folds) <= 3
    for h, hi, r, lo in folds:
        assert 0 < h < db and r == (1 << h) % p
        assert hi == word_masks(db - h) and lo == word_masks(h)
        bound = (bound >> h) * r + (1 << h) - 1
        assert bound < 1 << db
    c, s, q = quotient
    e = c * p - (1 << s)
    assert 0 <= e < p  # c = ceil(2^s / p)
    assert bound * c < 1 << db and bound * e < 1 << s
    assert q == word_masks(db - s)


@pytest.mark.parametrize("p,m", sorted(set(FROBENIUS_FIELDS + NORMALIZE_FIELDS)))
def test_reduction_plan_keeps_every_word_exact(p, m):
    f = F.ext_field(p, m)
    _check_reduction_plan(p, f._db, m, f._folds, f._quotient)


def test_reduction_plan_ends_for_every_admissible_prime():
    # 32-bit words hold m products only for p < 2^11 and 64-bit ones for
    # p < 2^21 (`fits_word_slots`): every prime below 2^11 in both widths,
    # and in 64-bit words the primes next to powers of two and a seeded
    # sample up to 2^21
    rng = random.Random(24)
    small = [p for p in range(2, 1 << 11) if F._is_prime(p)]
    wide = [F.next_prime(x) for e in range(11, 21) for x in ((1 << e) - 40, 1 << e)]
    wide += [F.next_prime(rng.randrange(1 << 11, 1 << 21)) for _ in range(200)]
    for db, primes in ((32, small), (64, small + wide)):
        for p in primes:
            _check_reduction_plan(p, db, 2, *F._reduction_plan(p, db, 2))


# ---------------------------------------------------------
# bound-sized plans: the reduction of an L-term repair step
# ---------------------------------------------------------

def _step_lengths(p, db):
    """Row lengths L whose digit bound L (p-1)^2 fits a word: every L up to
    256, every power of two, and the word limit itself with its neighbour."""
    limit = ((1 << db) - 1) // (p - 1) ** 2
    lengths = set(range(1, min(limit, 256) + 1))
    lengths |= {1 << e for e in range(limit.bit_length()) if 1 << e <= limit}
    return sorted(lengths | {limit - 1, limit} - {0})


def _check_bounded_plan(p, db, m, bound, folds, quotient):
    # as `_check_reduction_plan`, from the entry bound given
    word_masks = lambda bits: sum(((1 << bits) - 1) << (db * i) for i in range(m))
    for h, hi, r, lo in folds:
        assert 0 < h < db and r == (1 << h) % p
        assert hi == word_masks(db - h) and lo == word_masks(h)
        bound = (bound >> h) * r + (1 << h) - 1
        assert bound < 1 << db
    c, s, q = quotient
    e = c * p - (1 << s)
    assert 0 <= e < p and bound * c < 1 << db and bound * e < 1 << s
    assert q == word_masks(db - s)


def _apply_plan(p, folds, quotient, v):
    for h, hi, r, lo in folds:
        v = ((v >> h) & hi) * r + (v & lo)
    c, s, q = quotient
    return v - p * (((v * c) >> s) & q)


@pytest.mark.parametrize("p,m", sorted(set(FROBENIUS_FIELDS + [(331, 55)])))
def test_step_plans_match_per_digit_oracle(p, m):
    # the plan for the digit bound W = L (p-1)^2 of an L-term step reduces
    # every digit in [0, W], the extremes included, as the per-digit pass does
    f = F.ext_field(p, m)
    rng = random.Random(p * 1000 + m)
    for length in _step_lengths(p, f._db):
        bound = length * (p - 1) ** 2
        folds, quotient = F._reduction_plan(p, f._db, m, bound)
        _check_bounded_plan(p, f._db, m, bound, folds, quotient)
        picks = (0, 1, p - 1, p, bound - 1, bound, bound - bound % p, rng.randrange(bound + 1))
        digits = [picks[(i + length) % len(picks)] for i in range(m)]
        for word in (digits, [bound] * m, [rng.randrange(bound + 1) for _ in range(m)]):
            v = f._pack(word)
            assert _apply_plan(p, folds, quotient, v) == O.normalize_per_digit(f, v), length


def test_step_plans_need_fewer_folds_than_a_full_word():
    # a 4-term step on GF(43^21) is one quotient step, where a full 32-bit
    # word takes folds first
    f = F.ext_field(43, 21)
    assert f._folds and F._reduction_plan(43, f._db, 21, 4 * 42 ** 2)[0] == ()
    assert F._reduction_plan(43, f._db, 21) == F._reduction_plan(43, f._db, 21, f._mask)


@pytest.mark.parametrize("p,m,lengths", [(43, 21, (1, 2, 4, 9)), (7, 9, (3, 5)),
                                          (331, 55, (7, 40)), (11, 1, (4, 8)),
                                          (1021, 2, (3, 4128, 4129, 6000))])
def test_run_steps_equals_dot(p, m, lengths):
    # each step appends the dot of its row with earlier slots; rows longer
    # than the word limit (GF(1021^2): 4128 terms) take dot's chunked path
    f = F.ext_field(p, m) if m > 1 else F.prime_field(p)
    rng = random.Random(p + m)
    vals = [f.from_coords([rng.randrange(p) for _ in range(m)]) for _ in range(8)]
    vals[0] = f.from_coords([p - 1] * m)  # the largest digits
    steps, expect = [], list(vals)
    for length in lengths:
        src = tuple(rng.randrange(len(expect)) for _ in range(length - 1)) + (0,)
        row = tuple([p - 1] * (length // 2) + [rng.randrange(p) for _ in range(length - length // 2)])
        # and the worst case: every digit of the sum reaches L (p-1)^2
        for step in ((row, src), ((p - 1,) * length, (0,) * length)):
            steps.append(step)
            expect.append(f.dot(step[0], [expect[j] for j in step[1]]))
    got = list(vals)
    O.run_steps(f, steps, got)
    assert got == expect


# ---------------------------------------------------------
# the word-parallel range check of a run of symbols
# ---------------------------------------------------------

# every extension field of the tables above
RANGE_FIELDS = sorted({(p, m) for p, m in CHUNKED_FIELDS + SMALL_FIELDS + INV_FIELDS
                       + WIDE_FIELDS + SMALL_EXT_FIELDS + MOORE_TABLE_FIELDS + NORMALIZE_FIELDS
                       if m > 1})


def test_range_fields_cover_both_words_and_every_coordinate_width():
    fields = [F.ext_field(p, m) for p, m in RANGE_FIELDS]
    assert {(f._db, f.coord_width) for f in fields} >= {(32, 1), (32, 2), (64, 2), (64, 3)}


def test_serialised_coordinates_leave_each_word_top_bit_clear():
    # the word-parallel test needs 8 coord_width <= db - 1 for every field
    # the word slots admit: p < 2^11 on 32-bit words, p < 2^21 on 64-bit ones
    ps = set(range(2, 600)) | {2 ** j + e for j in range(4, 23) for e in (-1, 0, 1)}
    ms = set(range(2, 130)) | {2 ** j + e for j in range(7, 17) for e in (-1, 0, 1)}
    admitted = 0
    for p in ps:
        for m in ms:
            if F.fits_word_slots(p, m):
                assert 8 * F.coordinate_bytes(p) <= F.word_bits(p, m) - 1, (p, m)
                admitted += 1
    assert admitted > 10000


@pytest.mark.parametrize("p,m", RANGE_FIELDS)
def test_word_parallel_range_check(p, m):
    f = F.ext_field(p, m)
    w = f.coord_width
    # 3 symbols, and a run past the kept constants (tested a slice at a time)
    long_run = 2 * F._RANGE_BYTES // (m * f._db // 8) + 3
    for count in (3, long_run):
        coords = [p - 1] * (count * m)  # the largest coordinate passes
        raw = b"".join(c.to_bytes(w, "little") for c in coords)
        top = f.from_coords([p - 1] * m)
        assert f.symbols_from_bytes(raw) == [top] * count
        assert f.symbols_to_bytes([top] * count) == raw
        for bad in (p, 256 ** w - 1):
            for pos in (0, len(coords) // 2, len(coords) - 1):  # first, middle, last word
                bad_coords = coords[:pos] + [bad] + coords[pos + 1:]
                message = rf"^coordinate {bad} out of range for GF\({p}\)$"
                bad_raw = b"".join(c.to_bytes(w, "little") for c in bad_coords)
                with pytest.raises(ValueError, match=message):
                    f.symbols_from_bytes(bad_raw)
                symbols = [f._pack(bad_coords[i:i + m]) for i in range(0, len(bad_coords), m)]
                with pytest.raises(ValueError, match=message):
                    f.symbols_to_bytes(symbols)
    assert f._range[0] <= F._RANGE_BYTES


@pytest.mark.parametrize("p,m", [(p, m) for p, m in RANGE_FIELDS if p < 256])
def test_one_byte_coordinates_keep_their_dropped_high_bytes_checked(p, m):
    # a one-byte coordinate is tested by its byte alone, but a digit of 256
    # or more has high bytes that serialisation drops: 257 would write as 1
    f = F.ext_field(p, m)
    assert f.coord_width == 1
    good = [f.from_coords([(i + j) % p for j in range(m)]) for i in range(5)]
    for bad in (256, 257, 256 + p, 1 << (f._db - 1), (1 << f._db) - 1):
        for pos in (0, 2 * m + 1, 5 * m - 1):  # first, middle and last digit
            coords = [c for a in good for c in f.coords(a)]
            coords[pos] = bad
            symbols = [f._pack(coords[i:i + m]) for i in range(0, len(coords), m)]
            with pytest.raises(ValueError, match=rf"^coordinate {bad} out of range for GF\({p}\)$"):
                f.symbols_to_bytes(symbols)
    assert f.symbols_from_bytes(f.symbols_to_bytes(good)) == good


def test_range_constants_stay_bounded_for_any_run_length():
    import tracemalloc

    f = F.ExtField(F.prime_field(7), 9)  # a fresh field: nothing kept yet
    counts = list(range(1, 200)) + list(range(200, 5000, 97)) + [5000]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for count in counts:
            raw = bytes(count * f.symbol_bytes)
            assert len(f.symbols_from_bytes(raw)) == count
        del raw
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert f._range[0] <= F._RANGE_BYTES
    # the two kept constants, each at most _RANGE_BYTES, and a little slack
    assert grown <= 2 * F._RANGE_BYTES + 2048, grown
