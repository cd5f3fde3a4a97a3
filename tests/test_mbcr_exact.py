import itertools
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from coopdss.codes import make_scheme, nodeio
from coopdss.codes.base import ParameterError, SchemeParams
from coopdss.codes.mbcr_exact import _phi_block_inverse, _phi_block_rows, find_structure
from coopdss.field import Matrix, prime_field

from oracles import (basis_elements, linear_view, mbcr_exact_stored_rows, mbcr_exact_z_point,
                     segment)
from scheme_utils import (
    check_faithful,
    leakage_of,
    linearized_eval,
    sweep_reconstruct,
    sweep_repair,
)


def scheme_for(n, k, d, t, l1=0, l2=0):
    return make_scheme(SchemeParams(n=n, k=k, d=d, t=t, l1=l1, l2=l2,
                                    scheme="mbcr-exact"))


def test_parameters_and_sizes():
    s = scheme_for(4, 2, 2, 2, l1=1)
    assert s.file_size == 8
    assert s.alpha == 5 and s.gamma == 5
    assert (s.beta, s.beta_prime) == (2, 1)
    assert s.secure_size == 3 and s.n_random == 5


def test_node_layout_matches_placement():
    # k + (d-k) + (n-1) symbols; d = k leaves the y segment empty
    s = scheme_for(4, 2, 2, 2)
    u, r = s.random_inputs(1)
    nodes = s.encode(u, r)
    assert all(len(c.symbols) == 5 for c in nodes)
    assert segment(nodes[0], "y") == ()
    assert len(segment(nodes[0], "x")) == 2 and len(segment(nodes[0], "z")) == 3
    s5 = scheme_for(5, 2, 3, 2)
    c = s5.encode(*s5.random_inputs(1))[2]
    assert len(segment(c, "x")) == 2 and len(segment(c, "y")) == 1 and len(segment(c, "z")) == 4


def test_requires_n_equal_d_plus_t():
    with pytest.raises(ParameterError):
        scheme_for(5, 2, 2, 2)


def test_direct_part_is_stored_verbatim():
    # node i stores x_{(i-1)k+1..ik}: check against a term-by-term
    # evaluation of the precoding polynomial at the canonical basis
    s = scheme_for(4, 2, 2, 2, l1=1)
    u, r = s.random_inputs(3)
    coeffs = tuple(r) + tuple(u)
    block = tuple(linearized_eval(s.field, coeffs, g)
                  for g in basis_elements(s.field, s.file_size))
    nodes = s.encode(u, r)
    for i in range(1, 5):
        assert segment(nodes[i - 1], "x") == block[(i - 1) * 2:i * 2]


def test_reconstruct_all_collectors():
    for (n, k, d, t) in [(4, 2, 2, 2), (4, 2, 3, 1), (5, 3, 3, 2), (5, 2, 2, 3)]:
        s = scheme_for(n, k, d, t, l1=1 if k > 1 else 0)
        u, r = s.random_inputs(7)
        sweep_reconstruct(s, s.encode(u, r), u)


def test_repair_all_failure_sets():
    for (n, k, d, t) in [(4, 2, 2, 2), (4, 3, 3, 1), (5, 3, 3, 2), (5, 2, 2, 3)]:
        s = scheme_for(n, k, d, t)
        u, r = s.random_inputs(9)
        sweep_repair(s, s.encode(u, r))


def test_repair_needs_all_survivors():
    s = scheme_for(5, 3, 3, 2)
    u, r = s.random_inputs(2)
    nodes = s.encode(u, r)
    survivors = {c.node_id: c for c in nodes if c.node_id not in (1, 2)}
    with pytest.raises(ParameterError):
        s.cooperative_repair({1, 2}, survivors, helpers=(3, 4))


def test_secrecy_rank_fact_all_placements():
    # the l1*alpha observed symbols hold exactly l1(2d+t-l1) independent
    # evaluations, which equals |r|: zero leakage with both lemma conditions
    for (n, k, d, t) in [(4, 2, 2, 2), (5, 3, 3, 2)]:
        for l1 in range(1, k):
            s = scheme_for(n, k, d, t, l1=l1)
            for e1 in itertools.combinations(range(1, n + 1), l1):
                v = leakage_of(s, e1)
                assert v.leakage_qunits == 0
                assert v.lemma_cond_entropy_ok and v.lemma_recoverable_ok
                obs = linear_view(s.observation_matrix(e1, []))
                assert obs.matrix.rank() == l1 * (2 * d + t - l1) == s.n_random


def test_dependent_z_rows():
    # z values exchanged between two eavesdropped nodes add no rank
    s = scheme_for(5, 3, 3, 2, l1=2)
    obs = linear_view(s.observation_matrix([1, 2], []))
    assert obs.n_rows == 2 * s.alpha
    assert obs.matrix.rank() == 2 * (2 * 3 + 2 - 2)  # < 2*alpha


def test_observation_faithfulness_random_draws():
    s = scheme_for(4, 2, 2, 2, l1=1)
    for seed in range(10):
        u, r = s.random_inputs(seed)
        check_faithful(s, u, r, e1=[3])


def test_e2_download_rows_and_fold():
    # downloads at MBCR span the stored rows; an E2 node changes nothing
    s = scheme_for(4, 2, 2, 2, l1=0, l2=1)
    assert s.secure_size == 3  # effective l = l1 + l2 folds into the size formula
    u, r = s.random_inputs(5)
    nodes = s.encode(u, r)
    survivors = {c.node_id: c for c in nodes if c.node_id not in (1, 2)}
    tr = s.cooperative_repair({1, 2}, survivors)
    obs = s.observation_matrix([], [1], [tr])
    assert obs.n_rows == s.alpha + 2 * s.params.d + (s.params.t - 1)
    v = leakage_of(s, [], [1], [tr])
    assert v.leakage_qunits == 0
    check_faithful(s, u, r, [], [1], [tr])


def test_point_matrix_cross_check():
    # independent route: base-field rank of the observation points equals
    # the extension-field joint rank
    s = scheme_for(5, 3, 3, 2, l1=2)
    for e1 in itertools.combinations(range(1, 6), 2):
        obs = linear_view(s.observation_matrix(e1, []))
        assert s.observation_point_matrix(e1, []).rank() == obs.matrix.rank()


@st.composite
def mbcr_exact_params(draw):
    """A valid mbcr-exact (n, k, d, t) with n <= 8, l1 = l2 = 0."""
    n = draw(st.integers(2, 8))
    t = draw(st.integers(1, n - 1))
    d = n - t
    return n, draw(st.integers(1, d)), d, t


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mbcr_exact_params())
def test_closed_form_points_match_scanning_oracle(nkdt):
    s = scheme_for(*nkdt)
    n = nkdt[0]
    for source in range(1, n + 1):
        for stored_at in range(1, n + 1):
            if stored_at != source:
                assert s._z_point(source, stored_at) == mbcr_exact_z_point(s, source, stored_at)
    for i in range(1, n + 1):
        assert s._stored_rows(i) == mbcr_exact_stored_rows(s, i)


def _criterion_2_keys():
    """(n, d, M) of every acceptance-criterion-2 instance."""
    return sorted({(n, n - t, k * (2 * (n - t) + t - k))
                   for n in (4, 5, 6) for t in (1, 2, 3) for k in range(1, n - t + 1)})


# the prime the former Vandermonde search settled on for each criterion-2 key;
# the closed form may only shrink the field
SEARCHED_PRIME = {
    (4, 1, 4): 5, (4, 2, 5): 11, (4, 2, 8): 5, (4, 3, 6): 7, (4, 3, 10): 11,
    (4, 3, 12): 13, (5, 2, 6): 7, (5, 2, 10): 11, (5, 3, 7): 29, (5, 3, 12): 13,
    (5, 3, 15): 31, (5, 4, 8): 13, (5, 4, 14): 29, (5, 4, 18): 13, (5, 4, 20): 41,
    (6, 3, 8): 13, (6, 3, 14): 29, (6, 3, 18): 13, (6, 4, 9): 19, (6, 4, 16): 17,
    (6, 4, 21): 43, (6, 4, 24): 37, (6, 5, 10): 11, (6, 5, 18): 31, (6, 5, 24): 37,
    (6, 5, 28): 29, (6, 5, 30): 31,
}


def _all_minors_nonsingular(rows, p):
    """Oracle: every square submatrix has full rank over GF(p)."""
    base = prime_field(p)
    nr, nc = len(rows), len(rows[0])
    for size in range(1, min(nr, nc) + 1):
        for rsel in itertools.combinations(range(nr), size):
            for csel in itertools.combinations(range(nc), size):
                sub = Matrix(base, [[rows[i][j] for j in csel] for i in rsel])
                if sub.rank() < size:
                    return False
    return True


def test_phi_structure_is_mds():
    # [I_d Phi] generates an MDS code: every square minor of Phi nonsingular
    for key in _criterion_2_keys() + [(7, 5, 32), (7, 6, 42), (8, 7, 56)]:
        n, d, m_total = key
        p, phi = find_structure(n, d, m_total)
        assert len(phi) == d and all(len(row) == n - 1 for row in phi)
        # the scaled Cauchy matrix, from its definition C[s][c] = 1/(s - (d+c))
        cauchy = [[pow(s - d - c, p - 2, p) for c in range(n - 1)] for s in range(d)]
        assert phi == [[cauchy[s][c] * cauchy[0][0]
                        * pow(cauchy[s][0] * cauchy[0][c], p - 2, p) % p
                        for c in range(n - 1)] for s in range(d)], key
        assert phi[0] == [1] * (n - 1) and [row[0] for row in phi] == [1] * d
        assert _all_minors_nonsingular(phi, p), key


def test_phi_block_inverse_inverts_every_block():
    # every square block of Phi that repair (size d) or reconstruction
    # (size k) can meet: rows are Phi columns, columns the first `size` s
    for key in _criterion_2_keys() + [(7, 5, 32), (7, 6, 42), (8, 7, 56)]:
        n, d, m_total = key
        p, phi = find_structure(n, d, m_total)
        for size in range(1, d + 1):
            identity = [[int(i == j) for j in range(size)] for i in range(size)]
            for cols in itertools.combinations(range(n - 1), size):
                block = [[phi[s][c] for s in range(size)] for c in cols]
                inv = _phi_block_inverse(p, d, cols, size)
                assert [[sum(inv[s][h] * block[h][s2] for h in range(size)) % p
                         for s2 in range(size)] for s in range(size)] == identity, (key, cols)


@st.composite
def phi_blocks(draw):
    """A Phi of a criterion-2 or larger instance and a block of it: `size`
    distinct columns, in any order, on the first `size` rows."""
    n, d, m_total = draw(st.sampled_from(_criterion_2_keys() + [(7, 5, 32), (8, 7, 56)]))
    size = draw(st.integers(1, d))
    cols = draw(st.lists(st.integers(0, n - 2), min_size=size, max_size=size, unique=True))
    return n, d, m_total, tuple(cols)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(phi_blocks())
def test_cached_phi_block_rows_match_formula_and_elimination(case):
    n, d, m_total, cols = case
    p, phi = find_structure(n, d, m_total)
    size = len(cols)
    rows = _phi_block_rows(p, d, cols, size)
    assert isinstance(rows, tuple) and all(isinstance(row, tuple) for row in rows)
    block = Matrix(prime_field(p), [[phi[s][c] for s in range(size)] for c in cols])
    assert [list(row) for row in rows] == _phi_block_inverse(p, d, cols, size) \
        == block.inverse().rows
    assert _phi_block_rows(p, d, cols, size) is rows


def test_cached_phi_block_rows_stay_bounded():
    p, _ = find_structure(8, 7, 56)
    maxsize = _phi_block_rows.cache_info().maxsize
    blocks = list(itertools.islice(itertools.permutations(range(7), 3), maxsize + 10))
    assert len(blocks) > maxsize
    for cols in blocks:
        _phi_block_rows(p, 7, cols, 3)
    info = _phi_block_rows.cache_info()
    assert maxsize and info.currsize <= maxsize


def _rad(m):
    return prod(q for q in range(2, m + 1) if m % q == 0 and all(q % r for r in range(2, q)))


def _admissible(q, m_total):
    """q prime, q = 1 mod rad(M), and q = 1 mod 4 when 4 | M."""
    step = 4 if m_total % 4 == 0 else 1
    return (q > 1 and all(q % r for r in range(2, q))
            and (q - 1) % _rad(m_total) == 0 and (q - 1) % step == 0)


def test_prime_rule_is_least_admissible_prime():
    for key in _criterion_2_keys() + [(7, 5, 32), (8, 7, 44), (8, 7, 56)]:
        n, d, m_total = key
        p, phi = find_structure(n, d, m_total)
        assert find_structure(n, d, m_total) == (p, phi)  # deterministic
        assert p >= d + n - 1 and _admissible(p, m_total), key
        assert not any(_admissible(q, m_total) for q in range(d + n - 1, p)), key
        if key in SEARCHED_PRIME:
            assert p <= SEARCHED_PRIME[key], key
    assert set(_criterion_2_keys()) == set(SEARCHED_PRIME)
    assert find_structure(6, 5, 18)[0] == 13  # the search needed GF(31)


# n >= 7: instances the former minor search took seconds (n = 7) or did not
# finish (n = 8) to build
@pytest.mark.parametrize("n,k,d,t", [(7, 4, 5, 2), (8, 4, 7, 1)])
def test_large_n_roundtrip_repair_and_secrecy(n, k, d, t):
    l1 = 2
    s = scheme_for(n, k, d, t, l1=l1)
    u, r = s.random_inputs(8)
    nodes = s.encode(u, r)
    for ids in [(1, 2, 3, 4), (n - 3, n - 2, n - 1, n), (1, 3, 5, 7), (2, 4, 6, n)]:
        assert s.reconstruct([nodes[i - 1] for i in ids]) == u, ids
    failed = {2, n - 1} if t == 2 else {3}
    survivors = {c.node_id: c for c in nodes if c.node_id not in failed}
    tr = s.cooperative_repair(failed, survivors)
    for res in tr.results:
        assert (nodeio.write_nodes(s, [res])
                == nodeio.write_nodes(s, [nodes[res.node_id - 1]])), res.node_id
    assert all(tr.downloads(i) == s.gamma for i in failed)
    assert leakage_of(s, (3, 5)).leakage_qunits == 0
    assert leakage_of(s, (1, 3, 5)).leakage_qunits == 2 * d + t - 2 * l1 - 1


def test_achieved_size_matches_proposition():
    for (n, k, d, t) in [(4, 2, 2, 2), (5, 3, 3, 2), (6, 3, 3, 3)]:
        for l1 in range(k):
            s = scheme_for(n, k, d, t, l1=l1)
            assert s.secure_size == k * (2 * d - k + t) - l1 * (2 * d - l1 + t)
