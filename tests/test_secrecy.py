import itertools

import pytest

from coopdss import secrecy as S
from coopdss.codes import make_scheme
from coopdss.codes.base import ObservationMatrix, SchemeParams
from coopdss.field import Matrix, ext_field, prime_field


def obs_from_rows(field, u_rows, r_rows):
    labels = tuple(("row", i) for i in range(len(u_rows)))
    return ObservationMatrix(
        a_u=Matrix(field, u_rows, ncols=len(u_rows[0]) if u_rows else 0),
        a_r=Matrix(field, r_rows, ncols=len(r_rows[0]) if r_rows else 0),
        labels=labels)


# ---------------------------------------------------------
# rank_leakage
# ---------------------------------------------------------

def test_rank_leakage_zero_when_u_unseen():
    gf = prime_field(5)
    obs = obs_from_rows(gf, [[0, 0], [0, 0]], [[1, 2], [3, 4]])
    v = S.rank_leakage(obs)
    assert v.leakage_qunits == 0 and v.secure and v.method == "rank"


def test_rank_leakage_total_leak():
    gf = prime_field(5)
    obs = obs_from_rows(gf, [[1, 0], [0, 1]], [[0], [0]])
    v = S.rank_leakage(obs)
    assert v.leakage_qunits == 2  # = Ms
    assert not v.lemma_cond_entropy_ok or obs.n_random >= 2


def test_rank_leakage_empty_observation():
    gf = prime_field(5)
    obs = ObservationMatrix(a_u=Matrix(gf, [], ncols=2), a_r=Matrix(gf, [], ncols=3),
                            labels=())
    v = S.rank_leakage(obs)
    assert v.leakage_qunits == 0
    assert v.lemma_cond_entropy_ok and not v.lemma_recoverable_ok


def test_rank_leakage_lemma_booleans():
    scheme = make_scheme(SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mbcr-exact"))
    obs = scheme.observation_matrix([2], [])
    v = S.rank_leakage(obs)
    assert (v.lemma_cond_entropy_ok, v.lemma_recoverable_ok) == (True, True)
    assert obs.joint().rank() == 5 == obs.n_random  # H(e) = H(r)
    # bivariate: rank = l1*alpha - l1(l1-1) = 5 = |r|
    scheme = make_scheme(SchemeParams(n=5, k=2, d=2, t=2, l1=1, scheme="mbcr-bivariate"))
    obs = scheme.observation_matrix([4], [])
    v = S.rank_leakage(obs)
    assert (v.lemma_cond_entropy_ok, v.lemma_recoverable_ok) == (True, True)
    assert obs.joint().rank() == 5 == obs.n_random


def test_monotonicity_adding_rows():
    # appending rows never decreases leakage
    gf = prime_field(7)
    base_u, base_r = [[1, 1]], [[1, 0]]
    v0 = S.rank_leakage(obs_from_rows(gf, base_u, base_r))
    v1 = S.rank_leakage(obs_from_rows(gf, base_u + [[2, 3]], base_r + [[0, 0]]))
    assert v1.leakage_qunits >= v0.leakage_qunits >= 0


# ---------------------------------------------------------
# brute force
# ---------------------------------------------------------

def test_brute_force_guard():
    scheme = make_scheme(SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mbcr-exact"))
    with pytest.raises(S.InstanceTooLargeError):
        S.brute_force_leakage(scheme, [1], [])


def test_brute_force_negative_control():
    scheme = make_scheme(SchemeParams(n=3, k=2, d=2, t=1, l1=1, scheme="insecure-demo"))
    v = S.brute_force_leakage(scheme, [1], [])
    assert v.method == "bruteforce"
    assert v.leakage_qunits == scheme.secure_size == 1
    assert not v.lemma_recoverable_ok
    r = S.rank_leakage(scheme.observation_matrix([1], []))
    assert r.leakage_qunits == 1


def test_brute_force_masked_node_is_secure():
    scheme = make_scheme(SchemeParams(n=3, k=2, d=2, t=1, l1=1, scheme="insecure-demo"))
    for e, expected in ((1, 1), (2, 0), (3, 0)):
        v = S.brute_force_leakage(scheme, [e], [])
        r = S.rank_leakage(scheme.observation_matrix([e], []))
        assert v.leakage_qunits == r.leakage_qunits == expected


def test_agreement_mscr_ia_all_placements():
    # oracle agreement over every admissible placement, both cases, n in {4,5}
    for n in (4, 5):
        # case 1
        scheme = make_scheme(SchemeParams(n=n, k=2, d=n - 2, t=2, l1=1, scheme="mscr-ia"))
        for e in range(1, n + 1):
            bf = S.brute_force_leakage(scheme, [e], [])
            rk = S.rank_leakage(scheme.observation_matrix([e], []))
            assert bf.leakage_qunits == rk.leakage_qunits == 0, (n, e)
            assert bf.lemma_recoverable_ok == rk.lemma_recoverable_ok
            assert bf.lemma_cond_entropy_ok == rk.lemma_cond_entropy_ok
        # case 2 with repair downloads
        scheme = make_scheme(SchemeParams(n=n, k=2, d=n - 2, t=2, l2=1, scheme="mscr-ia"))
        u, r = scheme.random_inputs(1)
        nodes = scheme.encode(u, r)
        pairs = [(1, 2), (1, n), (2, 3)]
        for pair in pairs:
            survivors = {c.node_id: c for c in nodes if c.node_id not in pair}
            tr = scheme.cooperative_repair(pair, survivors)
            for e in pair:
                bf = S.brute_force_leakage(scheme, [], [e], [tr])
                rk = S.rank_leakage(scheme.observation_matrix([], [e], [tr]))
                assert bf.leakage_qunits == rk.leakage_qunits == 0, (n, pair, e)


def test_brute_force_small_ext_field():
    # tiny GF(4) toy: e = u + r is secure, e = u leaks
    gf = ext_field(2, 2)

    class Toy:
        field = gf
        file_size = 2
        secure_size = 1
        n_random = 1

        def __init__(self, leak):
            self.leak = leak

        def observed_symbols(self, u, r, e1, e2, plans):
            if self.leak:
                return [u[0]]
            return [gf.add(u[0], r[0])]

    secure = S.brute_force_leakage(Toy(False), [1], [])
    assert secure.leakage_qunits == 0 and secure.lemma_recoverable_ok
    leaky = S.brute_force_leakage(Toy(True), [1], [])
    assert leaky.leakage_qunits == 1


def test_lemma_implication_across_verdicts():
    # whenever both booleans are true the leakage is zero (Lemma as code)
    checks = []
    scheme = make_scheme(SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mbcr-exact"))
    checks += [S.rank_leakage(scheme.observation_matrix([e], [])) for e in range(1, 5)]
    scheme = make_scheme(SchemeParams(n=3, k=2, d=2, t=1, l1=1, scheme="insecure-demo"))
    checks += [S.rank_leakage(scheme.observation_matrix([e], [])) for e in (1, 2, 3)]
    assert any(v.lemma_cond_entropy_ok and v.lemma_recoverable_ok for v in checks)
    for v in checks:
        if v.lemma_cond_entropy_ok and v.lemma_recoverable_ok:
            assert v.leakage_qunits == 0


# ---------------------------------------------------------
# Gabidulin schemes: GF(p) point rank vs GF(p^M) Moore elimination
# ---------------------------------------------------------

def _verdict(v):
    return v.leakage_qunits, v.lemma_cond_entropy_ok, v.lemma_recoverable_ok


def _assert_point_rank_matches_moore(scheme, e1, e2=(), transcripts=()):
    obs = scheme.observation_matrix(e1, e2, transcripts)
    assert obs.points is not None
    fast = S.rank_leakage(obs)
    oracle = S.joint_rank_leakage(obs)  # builds the Moore rows on first access
    assert fast.method == "rank"
    assert _verdict(fast) == _verdict(oracle), (scheme.params, e1, e2)
    return fast


def test_point_rank_verdict_matches_moore_mbcr_exact():
    for n in (4, 5):
        for t in (1, 2, 3):
            d = n - t
            for k in range(1, d + 1):
                for l1 in range(k):
                    s = make_scheme(SchemeParams(n=n, k=k, d=d, t=t, l1=l1,
                                                 scheme="mbcr-exact"))
                    if l1:
                        for e1 in itertools.combinations(range(1, n + 1), l1):
                            assert _assert_point_rank_matches_moore(s, e1).secure
                    # one storage node more than the scheme is built for leaks
                    # its 2d+t-2l1-1 evaluations independent of the other l1
                    for e1 in itertools.combinations(range(1, n + 1), l1 + 1):
                        v = _assert_point_rank_matches_moore(s, e1)
                        assert v.leakage_qunits == 2 * d + t - 2 * l1 - 1


def test_point_rank_verdict_matches_moore_mscr_dk():
    for k in (2, 3):
        for t in (2, 3):
            n = k + t
            for l1 in range(k):
                for l2 in range(k - l1):
                    s = make_scheme(SchemeParams(n=n, k=k, d=k, t=t, l1=l1, l2=l2,
                                                 scheme="mscr-dk"))
                    if s.secure_size == 0:
                        continue
                    e2 = tuple(range(1, l2 + 1))
                    transcripts = ()
                    if e2:
                        nodes = s.encode(*s.random_inputs(3))
                        failed = frozenset(range(1, t + 1))
                        survivors = {c.node_id: c for c in nodes if c.node_id not in failed}
                        transcripts = (s.cooperative_repair(failed, survivors),)
                    rest = range(l2 + 1, n + 1)
                    for e1 in itertools.combinations(rest, l1):
                        if e1 or e2:
                            v = _assert_point_rank_matches_moore(s, e1, e2, transcripts)
                            assert v.secure
                    # an extra storage node reveals its t - l2 unseen vectors
                    for e1 in itertools.combinations(rest, l1 + 1):
                        v = _assert_point_rank_matches_moore(s, e1, e2, transcripts)
                        assert v.leakage_qunits == t - l2
    s = make_scheme(SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mscr-dk"))
    assert _assert_point_rank_matches_moore(s, (1, 2)).leakage_qunits == 2


@pytest.mark.parametrize("scheme, n, k, d, t", [
    ("mbcr-exact", 2, 1, 1, 1),
    ("mscr-dk", 3, 1, 1, 2),
])
def test_point_rank_verdict_matches_brute_force(scheme, n, k, d, t):
    # M = 2 instances built for no eavesdropper: node 1 alone leaks both symbols
    s = make_scheme(SchemeParams(n=n, k=k, d=d, t=t, scheme=scheme))
    assert s.file_size == 2
    v = _assert_point_rank_matches_moore(s, (1,))
    bf = S.brute_force_leakage(s, [1], [])
    assert _verdict(v) == _verdict(bf)
    assert v.leakage_qunits == 2
