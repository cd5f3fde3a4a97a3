import itertools

import pytest

from coopdss.codes import make_scheme
from coopdss.field import lagrange_row
from coopdss.precode import random_symbols
from coopdss.codes.base import (
    ParameterError,
    PositiveSecrecyImpossibleError,
    SchemeParams,
)

from oracles import linear_view
from scheme_utils import check_faithful, leakage_of, sweep_reconstruct, sweep_repair


def scheme_for(n, k, t, l1=0, l2=0):
    return make_scheme(SchemeParams(n=n, k=k, d=k, t=t, l1=l1, l2=l2,
                                    scheme="mscr-dk"))


def e2_transcript(scheme, nodes, e2_node, partner_pool=None):
    """One repair round in which e2_node fails (plus lowest other ids)."""
    failed = {e2_node}
    cursor = 1
    pool = partner_pool or range(1, scheme.params.n + 1)
    for extra in pool:
        if len(failed) == scheme.params.t:
            break
        if extra not in failed:
            failed.add(extra)
    survivors = {c.node_id: c for c in nodes if c.node_id not in failed}
    return scheme.cooperative_repair(failed, survivors)


def test_sizes():
    s = scheme_for(4, 2, 2, l1=1)
    assert s.file_size == 4 and s.alpha == 2 and s.gamma == 3
    assert s.secure_size == 2
    s = scheme_for(5, 3, 2, l1=1)
    assert s.secure_size == 4  # (3-1) * 2
    s = scheme_for(4, 2, 2, l2=1)
    assert s.secure_size == 1


def test_requires_d_equal_k():
    with pytest.raises(ParameterError):
        make_scheme(SchemeParams(n=5, k=2, d=3, t=2, scheme="mscr-dk"))


def test_encode_refuses_zero_secure_size():
    s = scheme_for(6, 3, 2, l2=2)
    assert s.secure_size == 0
    with pytest.raises(PositiveSecrecyImpossibleError):
        s.encode((), tuple([s.field.zero] * s.n_random))


def test_reconstruct_and_repair_sweeps():
    for (n, k, t) in [(4, 2, 2), (5, 3, 2), (5, 2, 3), (6, 3, 3), (6, 2, 2)]:
        s = scheme_for(n, k, t, l1=1)
        u, r = s.random_inputs(5)
        nodes = s.encode(u, r)
        sweep_reconstruct(s, nodes, u)
        sweep_repair(s, nodes)


@pytest.mark.parametrize("n", [6, 7])
def test_composed_repair_rows_equal_solve_then_share(n):
    # repair applies g_i^T V_H^-1 as one cached Lagrange row; it must equal
    # solving m from the helpers' shares, then taking m^T g_i, for every
    # helper set H and node i of (n, 3, 3, 3)
    s = scheme_for(n, 3, 3)
    p = s.base.p
    for helpers in itertools.combinations(range(1, n + 1), 3):
        shares = [random_symbols(s.field, 3, sum(helpers) * 10 + j) for j in range(2)]
        m_vecs = s._solve_vectors(helpers, shares)
        for i in range(1, n + 1):
            row = lagrange_row(p, tuple(h - 1 for h in helpers), i - 1)
            for vals, m in zip(shares, m_vecs):
                assert s.field.dot(row, vals) == s._share_value(m, i), (helpers, i)


def test_prime_field_gabidulin_round_trip():
    # M = kt = 1: the field is GF(2) itself and the Moore matrix is [[1]]
    s = scheme_for(2, 1, 1)
    assert s.file_size == 1 and s.field.degree == 1 and s.field.order == 2
    for u in range(s.field.order):
        nodes = s.encode((u,), ())
        for node in nodes:
            assert s.reconstruct([node]) == (u,)
        tr = s.cooperative_repair({1}, {2: nodes[1]})
        assert tr.results == (nodes[0],)


def test_repair_with_chosen_helpers():
    s = scheme_for(6, 2, 2)
    u, r = s.random_inputs(2)
    # l1 = 0: secure size is full file; still encodable
    nodes = s.encode(u, r)
    survivors = {c.node_id: c for c in nodes if c.node_id not in (1, 2)}
    tr = s.cooperative_repair({1, 2}, survivors, helpers=(5, 6))
    assert all(res == nodes[res.node_id - 1] for res in tr.results)


def test_secrecy_rank_fact_all_placements():
    # independent-evaluation count = l2(k+t-l2) + l1(t-l2) = M - Ms
    for (n, k, t) in [(4, 2, 2), (5, 3, 2)]:
        for l1 in range(k):
            for l2 in range(k - l1):
                s = scheme_for(n, k, t, l1=l1, l2=l2)
                if s.secure_size == 0:
                    continue
                u, r = s.random_inputs(6)
                nodes = s.encode(u, r)
                for e_all in itertools.combinations(range(1, n + 1), l1 + l2):
                    for e2 in itertools.combinations(e_all, l2):
                        e1 = tuple(x for x in e_all if x not in e2)
                        trs = [e2_transcript(s, nodes, e) for e in e2]
                        v = leakage_of(s, e1, e2, trs)
                        assert v.leakage_qunits == 0, (n, k, t, l1, l2, e1, e2)
                        obs = linear_view(s.observation_matrix(e1, e2, trs))
                        assert obs.matrix.rank() == l2 * (k + t - l2) + l1 * (t - l2)
                        assert obs.matrix.rank() == s.n_random


def test_e1_e2_overlap_dependency():
    # symbols stored by E1 for a vector revealed to E2 add no rank
    s = scheme_for(5, 3, 2, l1=1, l2=1)
    u, r = s.random_inputs(7)
    nodes = s.encode(u, r)
    tr = e2_transcript(s, nodes, 1)
    obs = linear_view(s.observation_matrix([3], [1], [tr]))
    assert obs.matrix.rank() == s.n_random == 1 * (3 + 2 - 1) + 1 * (2 - 1)
    assert obs.n_rows > obs.matrix.rank()


def test_observation_faithfulness():
    s = scheme_for(4, 2, 2, l2=1)
    u, r = s.random_inputs(8)
    nodes = s.encode(u, r)
    tr = e2_transcript(s, nodes, 1)
    check_faithful(s, u, r, [], [1], [tr])
    s2 = scheme_for(5, 3, 2, l1=1)
    u2, r2 = s2.random_inputs(9)
    check_faithful(s2, u2, r2, [2])


def test_point_matrix_cross_check():
    s = scheme_for(4, 2, 2, l2=1)
    u, r = s.random_inputs(1)
    nodes = s.encode(u, r)
    tr = e2_transcript(s, nodes, 2)
    obs = linear_view(s.observation_matrix([], [2], [tr]))
    assert s.observation_point_matrix([], [2], [tr]).rank() == obs.matrix.rank()


def test_achieved_matches_formula_and_bound():
    from coopdss.bounds import mscr_dk_achievable, mscr_secure_bound
    for k in (2, 3):
        for t in (2, 3):
            for l1 in range(k):
                for l2 in range(k - l1):
                    s = scheme_for(k + t, k, t, l1=l1, l2=l2)
                    assert s.secure_size == mscr_dk_achievable(k, t, l1, l2)
                    bound = mscr_secure_bound(k, k, t, l1, l2)
                    assert s.secure_size <= bound
                    if l2 <= 1:
                        assert s.secure_size == bound
