import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from coopdss.codes import make_scheme, mbcr_bivariate
from coopdss.codes.base import ParameterError, SchemeParams
from coopdss.field import (Matrix, lagrange_row, prime_field, vandermonde_inverse,
                           vandermonde_inverse_rows)

from oracles import lagrange_at, segment
from scheme_utils import check_faithful, leakage_of, sweep_reconstruct, sweep_repair


def scheme_for(n, k, d, t, l1=0, l2=0):
    return make_scheme(SchemeParams(n=n, k=k, d=d, t=t, l1=l1, l2=l2,
                                    scheme="mbcr-bivariate"))


def test_sizes_and_field():
    s = scheme_for(5, 2, 2, 2, l1=1)
    assert s.field.p == 7  # smallest prime > n
    assert s.file_size == 8 and s.alpha == 5
    assert s.secure_size == 3 and s.n_random == 5
    assert len(s.r_support) == 5 and len(s.u_support) == 3


def test_node_stores_row_and_column_evaluations():
    s = scheme_for(5, 2, 2, 2)
    u, r = s.random_inputs(1)
    nodes = s.encode(u, r)
    assert all(len(segment(c, "row")) == 4 and len(segment(c, "col")) == 1 for c in nodes)


def test_requires_n_at_least_d_plus_t():
    with pytest.raises(ParameterError):
        scheme_for(4, 2, 3, 2)


def test_random_coefficient_split():
    # randomness is exactly the coefficients with X-degree < l or Y-degree < l
    s = scheme_for(5, 2, 2, 2, l1=1)
    assert all(i < 1 or j < 1 for (i, j) in s.r_support)
    assert all(i >= 1 and j >= 1 for (i, j) in s.u_support)


def test_reconstruct_all_collectors():
    for (n, k, d, t) in [(5, 2, 2, 2), (6, 2, 3, 2), (7, 3, 3, 2)]:
        s = scheme_for(n, k, d, t, l1=1)
        u, r = s.random_inputs(3)
        sweep_reconstruct(s, s.encode(u, r), u)


def test_repair_all_failure_sets():
    for (n, k, d, t) in [(5, 2, 2, 2), (6, 2, 3, 2), (6, 2, 2, 3)]:
        s = scheme_for(n, k, d, t)
        u, r = s.random_inputs(4)
        sweep_repair(s, s.encode(u, r))


def test_repair_with_nondefault_helpers():
    s = scheme_for(6, 2, 3, 2)
    u, r = s.random_inputs(8)
    nodes = s.encode(u, r)
    survivors = {c.node_id: c for c in nodes if c.node_id not in (1, 2)}
    tr = s.cooperative_repair({1, 2}, survivors, helpers=(4, 5, 6))
    assert all(res == nodes[res.node_id - 1] for res in tr.results)


def test_secrecy_every_single_node():
    for (n, k, d, t) in [(5, 2, 2, 2), (6, 2, 3, 2)]:
        s = scheme_for(n, k, d, t, l1=1)
        for e in range(1, n + 1):
            v = leakage_of(s, [e])
            assert v.leakage_qunits == 0
            assert v.lemma_cond_entropy_ok and v.lemma_recoverable_ok
            obs = s.observation_matrix([e], [])
            # the dependency count of the observed-symbol table:
            # rank = l1*alpha - l1(l1-1) with l1 = 1
            assert obs.matrix.rank() == s.alpha == s.n_random


def test_e2_fold_and_downloads():
    s = scheme_for(5, 2, 2, 2, l1=0, l2=1)
    assert s.secure_size == 3
    u, r = s.random_inputs(6)
    nodes = s.encode(u, r)
    survivors = {c.node_id: c for c in nodes if c.node_id not in (1, 2)}
    tr = s.cooperative_repair({1, 2}, survivors)
    v = leakage_of(s, [], [1], [tr])
    assert v.leakage_qunits == 0
    check_faithful(s, u, r, [], [1], [tr])


def test_observation_faithfulness():
    s = scheme_for(6, 2, 3, 2, l1=1)
    for seed in range(5):
        u, r = s.random_inputs(seed)
        check_faithful(s, u, r, e1=[4])


def test_achieved_size_matches_proposition():
    for (n, k, d, t) in [(5, 2, 2, 2), (6, 2, 3, 2), (8, 3, 4, 2)]:
        for l1 in range(min(k, 2)):
            s = scheme_for(n, k, d, t, l1=l1)
            assert s.secure_size == k * (2 * d - k + t) - l1 * (2 * d - l1 + t)


def test_file_size_cap_raises_before_the_support():
    # k = 1: M = 2d + t - 1 sits exactly on the cap, one more is refused
    d = mbcr_bivariate.MAX_FILE_SIZE // 2
    assert scheme_for(d + 1, 1, d, 1).file_size == mbcr_bivariate.MAX_FILE_SIZE
    with pytest.raises(ParameterError, match="too large"):
        scheme_for(d + 2, 1, d, 2)
    started = time.perf_counter()
    with pytest.raises(ParameterError, match="too large"):
        scheme_for(8000, 4000, 7999, 1)  # M = 48 million
    assert time.perf_counter() - started < 0.1


# ---------------------------------------------------------
# repair by evaluation against interpolate-then-evaluate
# ---------------------------------------------------------

def _interpolate(q, xs, ys):
    return [sum(a * b for a, b in zip(row, ys)) % q for row in vandermonde_inverse(q, xs)]


def _horner(q, coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def oracle_repair(s, failed, survivors, helpers):
    """Every helper's row and column polynomial, each newcomer's column and
    row polynomial built whole by interpolation, then evaluated.  Returns
    (live transfers, coop transfers, repaired symbols) in transcript order."""
    q = s.field.p
    d, t = s.params.d, s.params.t
    x, y = s.x_points, s.y_points
    window = lambda i, count: [s._wrap(i, j) for j in range(count)]
    rows, cols = {}, {}
    for h in helpers:
        c = survivors[h]
        rows[h] = _interpolate(q, [y[w - 1] for w in window(h, d + t)], segment(c, "row"))
        cols[h] = _interpolate(q, [x[w - 1] for w in window(h, d)],
                               [segment(c, "row")[0]] + list(segment(c, "col")))
    newcomers = sorted(failed)
    live = {(h, i): (_horner(q, rows[h], y[i - 1]), _horner(q, cols[h], x[i - 1]))
            for i in newcomers for h in helpers}
    new_cols = {j: _interpolate(q, [x[h - 1] for h in helpers],
                                [live[(h, j)][0] for h in helpers]) for j in newcomers}
    coop = {(j, i): (_horner(q, new_cols[j], x[i - 1]),)
            for i in newcomers for j in newcomers if j != i}
    results = []
    for i in newcomers:
        peers = [j for j in newcomers if j != i]
        ys = [y[h - 1] for h in helpers] + [y[j - 1] for j in peers] + [y[i - 1]]
        vals = ([live[(h, i)][1] for h in helpers] + [coop[(j, i)][0] for j in peers]
                + [_horner(q, new_cols[i], x[i - 1])])
        f_i = _interpolate(q, ys, vals)
        results.append(tuple(_horner(q, f_i, y[w - 1]) for w in window(i, d + t))
                       + tuple(_horner(q, new_cols[i], x[w - 1]) for w in window(i, d)[1:]))
    return list(live.items()), list(coop.items()), results


@pytest.mark.parametrize("n, k, d, t", [
    (5, 2, 2, 3), (6, 3, 4, 2),                                   # n = d+t
    (7, 3, 4, 2), (8, 3, 4, 2), (9, 3, 4, 2), (10, 4, 5, 3), (12, 3, 5, 2),
])
def test_repair_matches_interpolation_oracle(n, k, d, t):
    s = scheme_for(n, k, d, t, l1=1)
    u, r = s.random_inputs(n + t)
    nodes = s.encode(u, r)
    rng = random.Random(n * 100 + d * 10 + t)
    for failed in itertools.combinations(range(1, n + 1), t):
        survivors = {c.node_id: c for c in nodes if c.node_id not in failed}
        for helpers in (sorted(survivors)[:d], rng.sample(sorted(survivors), d)):
            tr = s.cooperative_repair(failed, survivors, helpers)
            live, coop, results = oracle_repair(s, failed, survivors, tr.helpers)
            assert list(tr.live_transfers.items()) == live, (failed, helpers)
            assert list(tr.coop_transfers.items()) == coop, (failed, helpers)
            assert [c.symbols for c in tr.results] == results, (failed, helpers)
            assert all(c == nodes[c.node_id - 1] for c in tr.results)


@st.composite
def lagrange_cases(draw):
    """A prime q, distinct points xs mod q, values ys and any point x of
    GF(q), one of xs included."""
    q = draw(st.sampled_from([3, 5, 7, 11, 13, 31, 257]))
    xs = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=min(8, q - 1), unique=True))
    ys = draw(st.lists(st.integers(0, q - 1), min_size=len(xs), max_size=len(xs)))
    x = draw(st.integers(0, q - 1))
    return q, tuple(xs), ys, x


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(lagrange_cases())
def test_cached_lagrange_rows_match_horner_and_elimination(case):
    q, xs, ys, x = case
    row = lagrange_row(q, xs, x)
    assert isinstance(row, tuple) and len(row) == len(xs)
    # the row is g(x)^T V^-1, with V^-1 by formula and by elimination
    system = Matrix(prime_field(q), [[pow(v, e, q) for e in range(len(xs))] for v in xs])
    for inverse in (vandermonde_inverse(q, xs), system.inverse().rows):
        assert list(row) == [_horner(q, col, x) for col in zip(*inverse)]
    if x in xs:
        assert row == tuple(int(v == x) for v in xs)
    assert lagrange_row(q, xs, x) is row
    assert sum(a * b for a, b in zip(row, ys)) % q == _horner(q, _interpolate(q, xs, ys), x)
    assert lagrange_at(q, xs, ys, x) == _horner(q, _interpolate(q, xs, ys), x)


def test_cached_lagrange_rows_stay_bounded():
    rows = lagrange_row
    maxsize = rows.cache_info().maxsize
    for x in range(maxsize + 10):
        rows(65537, (0, 1, 2), x)
    info = rows.cache_info()
    assert maxsize and info.currsize <= maxsize


def test_repair_builds_no_vandermonde_inverse(monkeypatch):
    calls = []

    def counting(p, xs):
        calls.append(len(xs))
        return vandermonde_inverse_rows(p, xs)

    monkeypatch.setattr(mbcr_bivariate, "vandermonde_inverse_rows", counting)
    s = scheme_for(9, 3, 4, 2, l1=1)  # n > d+t: the Lagrange-row branch runs
    u, r = s.random_inputs(5)
    nodes = s.encode(u, r)
    survivors = {c.node_id: c for c in nodes if c.node_id not in (2, 6)}
    tr = s.cooperative_repair({2, 6}, survivors, (1, 4, 7, 9))
    assert calls == []
    assert all(c == nodes[c.node_id - 1] for c in tr.results)
    s.reconstruct(nodes[:3])  # reconstruction still interpolates: the counter is live
    assert calls
