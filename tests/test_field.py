import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from coopdss import field as F


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
    return [field.from_int(rng.randrange(field.order)) for _ in range(count)]


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
    els = list(gf.elements())
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


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 4), (7, 3)])
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
            assert gf.mul(gf.div(a, b), b) == a
    # frobenius is additive and fixes the base field
    for a, b, _ in zip(rand_elems(gf, 10, 4), rand_elems(gf, 10, 5), range(10)):
        assert gf.frobenius(gf.add(a, b)) == gf.add(gf.frobenius(a), gf.frobenius(b))
    for c in range(p):
        assert gf.frobenius(gf.element(c)) == gf.element(c)


def test_ext_field_element_roundtrips():
    gf = F.ext_field(3, 4)
    for i in [0, 1, 5, 17, 80, gf.order - 1]:
        a = gf.from_int(i)
        assert gf.to_int(a) == i
        assert gf.from_coords(gf.coords(a)) == a
        assert gf.symbol_from_bytes(gf.symbol_to_bytes(a)) == a


def test_modulus_is_lex_first_irreducible():
    # GF(4): x^2 + x + 1 is the only (hence first) irreducible quadratic
    assert F.ext_field(2, 2).modulus == (1, 1, 1)
    # degree-2 over GF(3): candidates by ascending constant-first counter:
    # x^2+1 has no root (1+1=2, 4+1=2 mod 3 != 0 -> irreducible); lex-first
    assert F.ext_field(3, 2).modulus == (1, 0, 1)
    mod = F.ext_field(5, 6).modulus
    assert F.is_irreducible(mod, 5) and len(mod) == 7


# ---------------------------------------------------------
# rank / solve (worked examples first)
# ---------------------------------------------------------

def test_rank_identity_gf3():
    gf = F.prime_field(3)
    assert F.rank(F.Matrix.identity(gf, 2)) == 2


def test_rank_zeros():
    gf = F.prime_field(3)
    assert F.rank(F.Matrix.zeros(gf, 2, 2)) == 0


def test_rank_vandermonde_gf7():
    gf = F.prime_field(7)
    rows = [[1, 1, 1], [1, 2, 4], [1, 3, 2]]
    # oracle: permutation-expansion determinant is nonzero
    assert det_by_permutations(gf, rows) != 0
    assert F.rank(F.Matrix(gf, rows)) == 3


def test_rank_equals_rank_of_transpose():
    rng = random.Random(11)
    for p, m in [(5, 1), (3, 2)]:
        gf = F.ext_field(p, m)
        for _ in range(10):
            nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
            rows = [[gf.from_int(rng.randrange(gf.order)) for _ in range(nc)]
                    for _ in range(nr)]
            mat = F.Matrix(gf, rows)
            assert mat.rank() == mat.transpose().rank()


def test_solve_identity():
    gf = F.prime_field(7)
    assert F.solve_linear(F.Matrix.identity(gf, 3), [1, 5, 2]) == [1, 5, 2]


def test_solve_inconsistent():
    gf = F.prime_field(7)
    with pytest.raises(F.NoSolutionError):
        F.solve_linear(F.Matrix.zeros(gf, 2, 2), [1, 0])


def test_solve_underdetermined():
    gf = F.prime_field(7)
    with pytest.raises(F.UnderdeterminedError):
        F.solve_linear(F.Matrix(gf, [[1, 1], [2, 2]]), [3, 6])


def test_solve_vandermonde_roundtrip():
    # evaluate 1 + 2X at 3 distinct points, solve, recover (1, 2, 0)
    gf = F.prime_field(7)
    points = [1, 2, 3]
    vals = [gf.add(1, gf.mul(2, x)) for x in points]
    system = F.Matrix(gf, [[1, x, gf.mul(x, x)] for x in points])
    assert F.solve_linear(system, vals) == [1, 2, 0]


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
    assert [m.matvec(col) for col in inv.transpose().rows] == F.Matrix.identity(gf, 2).rows
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


@st.composite
def dot_inputs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    m = draw(st.integers(1, 3 if p == 13 else 4))
    f = F.ext_field(p, m)  # GF(p) itself when m = 1
    chunk = _headroom(f)
    # short inputs, and inputs one to two reductions past the slot headroom
    length = draw(st.one_of(st.integers(0, 12), st.integers(chunk + 1, 2 * chunk + 3)))
    elem = st.integers(0, f.order - 1).map(f.from_int)
    xs = draw(st.lists(elem, min_size=length, max_size=length))
    ys = draw(st.lists(elem, min_size=length, max_size=length))
    return f, xs, ys


@KERNEL_SETTINGS
@given(dot_inputs())
def test_dot_matches_per_add_reference(case):
    f, xs, ys = case
    assert f.dot(xs, ys) == dot_per_add(f, xs, ys)


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (5, 3), (7, 2)])
def test_dot_worst_case_digits_past_headroom(p, m):
    # every product has all digits p-1, the most a slot sum can grow per term
    f = F.ext_field(p, m)
    top = f.from_coords([p - 1] * m)
    for length in (f._dot_chunk, f._dot_chunk + 1, 3 * f._dot_chunk + 2):
        xs, ys = [top] * length, [f.one] * length
        assert f.dot(xs, ys) == dot_per_add(f, xs, ys)
        assert f.dot(xs, ys) == f.from_coords([(length * (p - 1)) % p] * m)


@st.composite
def matvec_inputs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 31]))
    m = draw(st.integers(1, 4))
    f = F.ext_field(p, m)
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    elem = st.integers(0, f.order - 1).map(f.from_int)
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
# linearized polynomials
# ---------------------------------------------------------

def test_eval_linearized_degree_zero():
    gf = F.ext_field(2, 4)
    c = gf.from_int(9)
    g = gf.from_int(13)
    poly = F.LinearizedPolynomial(gf, (c,))
    assert poly.evaluate(g) == gf.mul(c, g)
    assert poly.evaluate(gf.zero) == gf.zero


def test_linearized_is_base_field_linear():
    gf = F.ext_field(3, 4)
    poly = F.LinearizedPolynomial(gf, tuple(rand_elems(gf, 3, 21)))
    rng = random.Random(22)
    for _ in range(20):
        a1, a2 = rng.randrange(3), rng.randrange(3)
        g1, g2 = rand_elems(gf, 2, rng.randrange(10 ** 6))
        lhs = poly.evaluate(gf.add(gf.scalar_mul(a1, g1), gf.scalar_mul(a2, g2)))
        rhs = gf.add(gf.scalar_mul(a1, poly.evaluate(g1)),
                     gf.scalar_mul(a2, poly.evaluate(g2)))
        assert lhs == rhs


def test_interpolate_single_point():
    gf = F.ext_field(2, 3)
    c = gf.from_int(5)
    g = gf.basis_element(1)
    poly = F.interpolate_linearized(gf, [(g, gf.mul(c, g))], 1)
    assert poly.coeffs == (c,)


def test_interpolate_roundtrip():
    gf = F.ext_field(3, 5)
    coeffs = tuple(rand_elems(gf, 5, 31))
    poly = F.LinearizedPolynomial(gf, coeffs)
    pts = [(g, poly.evaluate(g)) for g in F.basis_elements(gf, 5)]
    assert F.interpolate_linearized(gf, pts, 5).coeffs == coeffs


def test_interpolate_frobenius_on_gf4_basis():
    # f(g) = g^2 over GF(2^2) has linearized coefficients (0, 1)
    gf = F.ext_field(2, 2)
    pts = [(g, gf.mul(g, g)) for g in F.basis_elements(gf, 2)]
    poly = F.interpolate_linearized(gf, pts, 2)
    assert poly.coeffs == (gf.zero, gf.one)


def test_interpolate_rejects_dependent_points():
    gf = F.ext_field(2, 3)
    g = gf.basis_element(0)
    with pytest.raises(F.DependentPointsError):
        F.interpolate_linearized(gf, [(g, g), (g, g)], 2)


def test_evaluation_map_injective_on_independent_points():
    # distinct coefficient vectors give distinct value vectors when the
    # point count reaches the coefficient count
    gf = F.ext_field(2, 3)
    pts = F.basis_elements(gf, 2)
    seen = {}
    for c0 in gf.elements():
        for c1 in gf.elements():
            poly = F.LinearizedPolynomial(gf, (c0, c1))
            key = tuple(poly.evaluate(g) for g in pts)
            assert key not in seen, "evaluation map collided"
            seen[key] = (c0, c1)


# ---------------------------------------------------------
# basis elements
# ---------------------------------------------------------

def test_basis_elements_first_is_one():
    gf = F.ext_field(2, 3)
    assert F.basis_elements(gf, 1) == [gf.one]


def test_basis_elements_full_rank():
    gf = F.ext_field(2, 3)
    for count in (2, 3):
        basis = F.basis_elements(gf, count)
        rows = [list(gf.coords(b)) for b in basis]
        assert F.Matrix(F.prime_field(2), rows).rank() == count


def test_basis_elements_rejects_overlong():
    gf = F.ext_field(2, 3)
    with pytest.raises(ValueError):
        F.basis_elements(gf, 4)


def test_moore_matrix_rank_matches_point_independence():
    gf = F.ext_field(3, 4)
    pts = F.basis_elements(gf, 3)
    assert F.moore_matrix(gf, pts, 3).rank() == 3
    dep = pts + [gf.add(pts[0], pts[1])]
    assert F.moore_matrix(gf, dep, 4).rank() == 3


@pytest.mark.parametrize("p,m", [(2, 1), (3, 2), (5, 4), (7, 9), (11, 15)])
def test_basis_moore_cache_inverse(p, m):
    gf = F.ext_field(p, m)
    moore = F.basis_moore_matrix(gf)
    assert moore is F.basis_moore_matrix(gf)
    assert moore == F.moore_matrix(gf, F.basis_elements(gf, m), m)
    inv = F.basis_moore_inverse(gf)
    assert inv is F.basis_moore_inverse(gf)
    # Moore . Moore^-1 = I, one column at a time
    identity = F.Matrix.identity(gf, m).rows
    assert [moore.matvec(col) for col in inv.transpose().rows] == identity
    assert F._BASIS_MOORE_CACHE[gf] == [moore, inv]
