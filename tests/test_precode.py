"""Coefficient order, seeded randomness, and the Gabidulin precoding map
x = Moore . (r || u) that GabidulinScheme runs, checked against the
term-by-term linearized-polynomial oracle and the dense Moore matrices of
`oracles`."""

import random
from collections import Counter

import pytest

from coopdss import field as F
from coopdss import precode as P
from coopdss.codes import make_scheme, mbcr_exact
from coopdss.codes.base import SchemeParams

import oracles as O
from scheme_utils import elem_from_int, linearized_eval


GABIDULIN = [
    SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mbcr-exact"),
    SchemeParams(n=5, k=3, d=3, t=2, l1=1, scheme="mbcr-exact"),
    SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mscr-dk"),
]


def rand_symbols(gf, count, seed):
    rng = random.Random(seed)
    return tuple(elem_from_int(gf, rng.randrange(gf.order)) for _ in range(count))


def runtime_precode(gf, u, r):
    """GabidulinScheme._precode for a scheme over `gf`: the per-field
    monomial table applied to (r || u)."""
    return F.basis_moore_apply(gf, P.coefficients(u, r))


def oracle_precode(gf, u, r):
    coeffs = P.coefficients(u, r)
    return [linearized_eval(gf, coeffs, g) for g in O.basis_elements(gf, len(coeffs))]


def recover_r(gf, a_r, a_u, u, e):
    """Solve A_r r = e - A_u u: r is determined by u and the view e."""
    return a_r.solve([gf.sub(x, y) for x, y in zip(e, a_u.matvec(list(u)))])


def test_splitmix64_known_stream():
    # reference values for seed 1234567 (published splitmix64 constants)
    stream = P.splitmix64(1234567)
    first = next(stream)
    assert 0 <= first < 2 ** 64
    # determinism
    assert list(zip(P.splitmix64(42), range(5))) == list(zip(P.splitmix64(42), range(5)))


def test_random_symbols_in_range_and_deterministic():
    gf = F.ext_field(7, 3)
    a = P.random_symbols(gf, 20, 99)
    b = P.random_symbols(gf, 20, 99)
    assert a == b
    assert all(all(c < 7 for c in gf.coords(v)) for v in a)
    assert P.random_symbols(gf, 20, 100) != a


@pytest.mark.parametrize("p,m", [(2, 1), (11, 1), (3, 2), (7, 9), (43, 21)])
def test_random_symbols_match_the_generator_reference(p, m):
    # the inline loop draws the same stream as splitmix64 with one rejection
    # draw per coordinate, seeds past 64 bits included (they wrap)
    gf = F.ext_field(p, m)
    for seed in (0, 1, 12345, 2 ** 64 - 1, 2 ** 70 + 5):
        for count in (0, 1, 16, 50):
            assert P.random_symbols(gf, count, seed) == O.random_symbols(gf, count, seed), \
                (seed, count)


def test_precode_single_random_symbol():
    # Ms = 0, r = (c), one point g: the block is (c*g)
    gf = F.ext_field(5, 4)
    c = elem_from_int(gf, 11)
    g = O.basis_element(gf, 2)
    assert P.coefficients((), (c,)) == (c,)
    assert F.moore_matrix(gf, [g], 1).matvec([c]) == [gf.mul(c, g)]


@pytest.mark.parametrize("params", GABIDULIN,
                         ids=lambda p: f"{p.scheme}-{p.n}{p.k}{p.d}{p.t}")
def test_scheme_precode_matches_oracle(params):
    scheme = make_scheme(params)
    gf = scheme.field
    u, r = scheme.random_inputs(5)
    x = scheme._precode(u, r)
    assert x == oracle_precode(gf, u, r)
    assert scheme._secret_from_evaluations(x) == tuple(u)


def test_precode_decode_roundtrip_gf256():
    # the MBCR n=4,k=2,d=2,t=2 shape: M=8, Ms=3, |r|=5 over GF(5^8), the
    # scheme's own field (GF(2^8) has no binomial modulus)
    gf = F.ext_field(5, 8)
    u = rand_symbols(gf, 3, 1)
    r = rand_symbols(gf, 5, 2)
    x = runtime_precode(gf, u, r)
    assert x == oracle_precode(gf, u, r)
    assert x == O.basis_moore_matrix(gf).matvec(list(r + u))
    assert O.basis_moore_inverse(gf).matvec(x) == list(r + u)
    assert F.basis_moore_inverse_apply(gf, x) == list(r + u)


def test_decode_all_zero():
    scheme = make_scheme(GABIDULIN[0])
    zero = scheme.field.zero
    u, r = (zero,) * scheme.secure_size, (zero,) * scheme.n_random
    x = scheme._precode(u, r)
    assert set(x) == {zero}
    assert scheme._secret_from_evaluations(x) == u


def test_precode_injective_in_inputs():
    gf = F.ext_field(5, 4)
    seen = set()
    for i in range(gf.order):
        u = (elem_from_int(gf, i % 4), )
        r = tuple(elem_from_int(gf, x) for x in divmod(i // 4, 4))
        x = tuple(runtime_precode(gf, u, (r + (gf.zero,))[:3]))
        assert x not in seen
        seen.add(x)


def test_decode_from_base_field_recombined_points():
    # apply a random invertible base-field matrix jointly to points and
    # values; interpolation must still recover the same coefficients
    gf = F.ext_field(7, 6)
    base = F.prime_field(7)
    u = rand_symbols(gf, 2, 5)
    r = rand_symbols(gf, 4, 6)
    points = O.basis_elements(gf, 6)
    values = runtime_precode(gf, u, r)
    rng = random.Random(7)
    while True:
        t_rows = [[rng.randrange(7) for _ in range(6)] for _ in range(6)]
        if F.Matrix(base, t_rows).rank() == 6:
            break
    new_pts, new_vals = [], []
    for row in t_rows:
        gp, vp = gf.zero, gf.zero
        for c, g, v in zip(row, points, values):
            gp = gf.add(gp, gf.scalar_mul(c, g))
            vp = gf.add(vp, gf.scalar_mul(c, v))
        new_pts.append(gp)
        new_vals.append(vp)
    assert F.moore_matrix(gf, new_pts, 6).solve(new_vals) == list(r + u)


def test_precode_rejects_dependent_points():
    gf = F.ext_field(5, 4)
    g = O.basis_element(gf, 0)
    moore = F.moore_matrix(gf, [g, g], 2)
    assert moore.rank() == 1
    with pytest.raises(F.UnderdeterminedError):
        moore.solve(moore.matvec([gf.one, gf.one]))


def test_precode_rejects_wrong_point_count():
    scheme = make_scheme(GABIDULIN[0])
    u, r = scheme.random_inputs(1)
    with pytest.raises(ValueError):
        scheme._precode(u[:-1], r)
    with pytest.raises(ValueError):
        scheme._secret_from_evaluations(scheme._precode(u, r)[:-1])


def test_solve_randomness_single_unknown():
    # f = r0 X + u0 X^2 seen at one point: subtracting the known u-term
    # leaves one equation in the single unknown r0
    gf = F.ext_field(5, 4)
    r0, u0 = elem_from_int(gf, 7), elem_from_int(gf, 12)
    g = O.basis_element(gf, 1)
    rows = F.moore_matrix(gf, [g], 2).rows
    e = [linearized_eval(gf, (r0, u0), g)]
    a_r = F.Matrix(gf, [row[:1] for row in rows])
    a_u = F.Matrix(gf, [row[1:] for row in rows])
    assert recover_r(gf, a_r, a_u, (u0,), e) == [r0]


def test_solve_randomness_full_block():
    # the first |r| = 5 of the 8 evaluations over GF(5^8) pin r down given u
    gf = F.ext_field(5, 8)
    u = rand_symbols(gf, 3, 8)
    r = rand_symbols(gf, 5, 9)
    e = runtime_precode(gf, u, r)[:5]
    rows = O.basis_moore_matrix(gf).rows[:5]
    a_r = F.Matrix(gf, [row[:5] for row in rows])
    a_u = F.Matrix(gf, [row[5:] for row in rows])
    assert recover_r(gf, a_r, a_u, u, e) == list(r)


def test_solve_randomness_underdetermined_signals():
    gf = F.ext_field(5, 4)
    g = O.basis_element(gf, 0)
    with pytest.raises(F.UnderdeterminedError):
        F.moore_matrix(gf, [g], 2).solve([g])


def test_solve_randomness_from_eavesdropped_mbcr_node():
    # an eavesdropped node stores exactly |r| symbols at independent points,
    # so r is recoverable from them and the secret: H(r | u, e) = 0 made
    # executable on the scheme's own observation; one row fewer cannot
    for params in GABIDULIN:
        scheme = make_scheme(params)
        gf = scheme.field
        u, r = scheme.random_inputs(12)
        obs = O.linear_view(scheme.observation_matrix([1], []))
        e = scheme.observed_symbols(u, r, [1], [])
        assert len(e) == scheme.n_random, params
        assert recover_r(gf, O.a_r(obs), O.a_u(obs), u, e) == list(r), params
        with pytest.raises(F.UnderdeterminedError):
            recover_r(gf, F.Matrix(gf, O.a_r(obs).rows[:-1]),
                      F.Matrix(gf, O.a_u(obs).rows[:-1]), u, e[:-1])


# the benchmark's datapath instances on GF(31^30) (one Frobenius class) and
# GF(7^9) (three)
COUNTED = [
    SchemeParams(n=6, k=5, d=5, t=1, l1=1, scheme="mbcr-exact"),
    SchemeParams(n=7, k=3, d=3, t=3, l1=1, scheme="mscr-dk"),
]


@pytest.mark.parametrize("params", COUNTED, ids=lambda p: f"{p.scheme}-{p.n}{p.k}{p.d}{p.t}")
def test_data_path_multiplies_no_two_extension_elements(params, monkeypatch):
    # from a cold table cache: building the table, encode, reconstruct and
    # repair run no GF(p^M) product, Frobenius map, Moore matrix, dense
    # matvec or elimination
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(F, "_BASIS_MOORE_TABLES", {})
    for cls, attr in ((F.ExtField, "mul"), (F.ExtField, "frobenius"),
                      (F.Matrix, "matvec"), (F.Matrix, "_echelon")):
        monkeypatch.setattr(cls, attr, counting(f"{cls.__name__}.{attr}", getattr(cls, attr)))
    moore = counting("moore_matrix", F.moore_matrix)
    for module in (F, O, mbcr_exact):
        monkeypatch.setattr(module, "moore_matrix", moore)

    scheme = make_scheme(params)
    n, k, t = params.n, params.k, params.t
    u, r = scheme.random_inputs(3)
    nodes = scheme.encode(u, r)
    assert list(F._BASIS_MOORE_TABLES) == [scheme.field]  # built under the counters
    assert scheme.reconstruct(nodes[n - k:]) == u
    failed = set(range(2, 2 + t))
    survivors = {c.node_id: c for c in nodes if c.node_id not in failed}
    tr = scheme.cooperative_repair(failed, survivors)
    assert [c.node_id for c in tr.results] == sorted(failed)
    assert all(c == nodes[c.node_id - 1] for c in tr.results)
    assert calls == Counter()

    # the counters see the dense path: the Moore rows of an observation
    assert O.a_u(O.linear_view(scheme.observation_matrix([1], []))).nrows == scheme.alpha
    assert calls["moore_matrix"] == 1 and calls["ExtField.frobenius"] > 0


@pytest.mark.parametrize("p,m", [(11, 1), (331, 55)])
def test_lane_parallel_draw_matches_the_generator_reference(p, m):
    # all count * m words are mixed at once in 128-bit lanes, in blocks of
    # at most 1024 words (GF(43^21) and GF(7^9) are in the test above): the
    # prime-field path, and GF(331^55) at count 40 spans three blocks
    gf = F.ext_field(p, m) if m > 1 else F.prime_field(p)
    for seed in (0, 1, 2 ** 64 - 1, 2 ** 70 + 5):
        for count in (0, 1, 16, 40):
            assert P.random_symbols(gf, count, seed) == O.random_symbols(gf, count, seed), \
                (seed, count)
    assert P._splitmix_lanes(5, 2500) == [w for w, _ in zip(P.splitmix64(5), range(2500))]


def test_a_rejected_lane_word_falls_back_to_the_stream(monkeypatch):
    # a word at the rejection limit anywhere in the draw: the symbols are
    # drawn one word at a time instead, so they are the generator's
    gf = F.ext_field(43, 21)
    limit = (1 << 64) - (1 << 64) % 43
    real = P._splitmix_lanes
    calls = []

    def at_limit(seed, count):
        calls.append(count)
        words = real(seed, count)
        words[count // 2] = limit
        return words

    monkeypatch.setattr(P, "_splitmix_lanes", at_limit)
    assert P.random_symbols(gf, 16, 3) == O.random_symbols(gf, 16, 3)
    assert calls == [16 * 21]
