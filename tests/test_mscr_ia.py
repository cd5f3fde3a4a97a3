import itertools
import math

import pytest

from coopdss import sim as sim_mod
from coopdss.codes import make_scheme, mscr_ia
from coopdss.codes.base import ParameterError, RepairInfeasibleError, SchemeParams
from coopdss.codes.mscr_ia import find_placement
from coopdss.field import prime_field
from coopdss.secrecy import rank_leakage

from scheme_utils import check_faithful, leakage_of, sweep_reconstruct, sweep_repair


def scheme_for(n, l1, l2):
    return make_scheme(SchemeParams(n=n, k=2, d=n - 2, t=2, l1=l1, l2=l2,
                                    scheme="mscr-ia"))


def test_placement_search_results():
    # n=4 keeps the literal exponent profile over the first secure prime;
    # n=5 needs the Vandermonde profile (see the mscr_ia module docstring)
    assert find_placement(4) == (7, "arithmetic")
    assert find_placement(5) == (11, "vandermonde")


# -- the placement search: the oracle behind mscr_ia's table ----------------------

PROFILES = ("arithmetic", "vandermonde")
SEARCH_LIMIT = 512


def prefilter_placement(n, q, profile):
    """Cheap necessary conditions: per-coordinate MDS distinctness, nonzero
    multipliers, and no multiplier equal to -1 (which would strip the pad)."""
    alpha = n - 2
    try:
        w = prime_field(q).primitive_element()
    except ValueError:
        return False
    for j in range(alpha):
        col = [pow(w, mscr_ia._exponent(profile, i, j), q) for i in range(1, alpha + 1)]
        if len(set(col)) != alpha or 0 in col or (q - 1) in col:
            return False
    return True


def validate_placement(n):
    """Every reconstruction and cooperative repair works, and the Case-1/Case-2
    secrecy rank checks pass for every placement, under the current
    find_placement."""
    for l1, l2 in ((1, 0), (0, 1)):
        try:
            scheme = scheme_for(n, l1, l2)
        except (ParameterError, ZeroDivisionError):
            return False
        u, r = scheme.random_inputs(0x1A)
        try:
            nodes = scheme.encode(u, r)
            for pair in itertools.combinations(range(1, n + 1), 2):
                if scheme.reconstruct([nodes[i - 1] for i in pair]) != u:
                    return False
            transcripts = {}
            for pair in itertools.combinations(range(1, n + 1), 2):
                surv = {c.node_id: c for c in nodes if c.node_id not in pair}
                tr = scheme.cooperative_repair(pair, surv)
                if any(res != nodes[res.node_id - 1] for res in tr.results):
                    return False
                transcripts[pair] = tr
        except (RepairInfeasibleError, ParameterError, ZeroDivisionError, ValueError):
            return False
        if (l1, l2) == (1, 0):
            checks = [((e,), (), ()) for e in range(1, n + 1)]
        else:
            checks = [((), (e,), (transcripts[pair],))
                      for pair in transcripts for e in pair]
        for e1, e2, trs in checks:
            obs = scheme.observation_matrix(e1, e2, trs)
            rank, pivots = obs.joint().rank_profile()
            if rank != sum(1 for c in pivots if c < obs.n_random):
                return False
    return True


def search_placement(n, monkeypatch):
    """Smallest odd prime q, then first profile, passing both checks; None if
    there is none below SEARCH_LIMIT."""
    for q in range(3, SEARCH_LIMIT, 2):
        if any(q % f == 0 for f in range(3, math.isqrt(q) + 1, 2)):
            continue
        for profile in PROFILES:
            if not prefilter_placement(n, q, profile):
                continue
            # the table entry is restored before the caller compares with it
            with monkeypatch.context() as patch:
                patch.setitem(mscr_ia._PLACEMENTS, n, (q, profile))
                valid = validate_placement(n)
            if valid:
                return q, profile
    return None


@pytest.mark.parametrize("n", [4, 5])
def test_search_agrees_with_table(n, monkeypatch):
    assert search_placement(n, monkeypatch) == find_placement(n)


def test_search_finds_nothing_past_the_table(monkeypatch):
    assert search_placement(6, monkeypatch) is None
    with pytest.raises(ParameterError, match=r"only for n in \{4, 5\}, not n=6"):
        find_placement(6)


def test_requires_k_t_two_and_n_d_plus_t():
    with pytest.raises(ParameterError):
        make_scheme(SchemeParams(n=5, k=3, d=3, t=2, scheme="mscr-ia"))
    with pytest.raises(ParameterError):
        make_scheme(SchemeParams(n=5, k=2, d=2, t=2, scheme="mscr-ia"))


def test_sizes():
    s = scheme_for(4, 1, 0)
    assert s.alpha == 2 and s.file_size == 4 and s.secure_size == 2
    s = scheme_for(4, 0, 1)
    assert s.secure_size == 1 and s.n_random == 3
    s = scheme_for(5, 1, 0)
    assert s.alpha == 3 and s.secure_size == 3
    s = scheme_for(5, 0, 1)
    assert s.secure_size == 2 and s.n_random == 4


def test_case1_placement_formula():
    # redundancy node i stores a_j + w^e(i,j) b_j; spot-check node 3 shape
    s = scheme_for(4, 1, 0)
    f = s.field
    u, r = s.random_inputs(1)
    a = list(r)
    b = [f.add(rj, uj) for rj, uj in zip(r, u)]
    nodes = s.encode(u, r)
    assert nodes[0].symbols == tuple(a)
    assert nodes[1].symbols == tuple(b)
    mult = s.multipliers[0]
    assert nodes[2].symbols == tuple(f.add(a[j], f.mul(mult[j], b[j])) for j in range(2))


def test_reconstruct_is_pad_removal():
    s = scheme_for(4, 1, 0)
    f = s.field
    u, r = s.random_inputs(2)
    nodes = s.encode(u, r)
    a, b = nodes[0].symbols, nodes[1].symbols
    assert tuple(f.sub(b[j], a[j]) for j in range(2)) == u


def test_sweeps_all_cases():
    for n in (4, 5):
        for (l1, l2) in ((0, 0), (1, 0), (0, 1)):
            s = scheme_for(n, l1, l2)
            u, r = s.random_inputs(3)
            nodes = s.encode(u, r)
            sweep_reconstruct(s, nodes, u)
            sweep_repair(s, nodes)


def test_case1_secrecy_every_node():
    for n in (4, 5):
        s = scheme_for(n, 1, 0)
        for e in range(1, n + 1):
            v = leakage_of(s, [e])
            assert v.leakage_qunits == 0, (n, e)
            assert v.lemma_cond_entropy_ok and v.lemma_recoverable_ok


def test_case2_secrecy_every_node_and_pair():
    for n in (4, 5):
        s = scheme_for(n, 0, 1)
        u, r = s.random_inputs(4)
        nodes = s.encode(u, r)
        for pair in itertools.combinations(range(1, n + 1), 2):
            survivors = {c.node_id: c for c in nodes if c.node_id not in pair}
            tr = s.cooperative_repair(pair, survivors)
            for e in pair:
                v = leakage_of(s, [], [e], [tr])
                assert v.leakage_qunits == 0, (n, pair, e)
                # H(e) <= alpha + 1 in log-q units
                obs = s.observation_matrix([], [e], [tr])
                assert obs.joint().rank() <= s.alpha + 1


# The (0,1) guarantee covers one repair round of the E2 node; repaired again
# with a different partner, it leaks one symbol (rank and brute force agree).
# Strict: a construction that closes the leak turns these into failures.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="mscr-ia Case 2 is secure for one repair round only")
@pytest.mark.parametrize("n,e2,plan", [(4, 1, ((1, 2), (1, 3))), (5, 2, ((2, 5), (1, 2)))])
def test_case2_secrecy_over_two_rounds(n, e2, plan):
    config = sim_mod.SimConfig(params=scheme_for(n, 0, 1).params, rounds=len(plan),
                               failure_plan=tuple(frozenset(p) for p in plan), e2=(e2,))
    trace = sim_mod.run(config)
    assert rank_leakage(sim_mod.observation(trace)).leakage_qunits == 0


def test_observation_faithfulness():
    for n in (4, 5):
        s = scheme_for(n, 0, 1)
        u, r = s.random_inputs(5)
        nodes = s.encode(u, r)
        pair = (1, 3)
        survivors = {c.node_id: c for c in nodes if c.node_id not in pair}
        tr = s.cooperative_repair(pair, survivors)
        check_faithful(s, u, r, [], [1], [tr])
        check_faithful(s, u, r, [2], [], [])


def test_achieved_is_secrecy_capacity():
    from coopdss.bounds import mscr_secure_bound
    for n in (4, 5):
        alpha = n - 2
        s1 = scheme_for(n, 1, 0)
        assert s1.secure_size == alpha == mscr_secure_bound(2, n - 2, 2, 1, 0)
        s2 = scheme_for(n, 0, 1)
        assert s2.secure_size == alpha - 1 == mscr_secure_bound(2, n - 2, 2, 0, 1)


def test_bandwidth_is_mscr_point():
    for n in (4, 5):
        s = scheme_for(n, 1, 0)
        assert s.beta == 1 and s.beta_prime == 1
        assert s.gamma == s.params.d + 1  # d*beta + (t-1)*beta'
