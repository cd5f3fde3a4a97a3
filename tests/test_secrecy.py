import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from coopdss import secrecy as S
from coopdss import sim as sim_mod
from coopdss.codes import make_scheme
from coopdss.codes.base import ObservationMatrix, PointObservation, SchemeParams
from coopdss.field import Matrix, ext_field, prime_field

from oracles import linear_view


def obs_from_rows(field, u_rows, r_rows):
    labels = tuple(("row", i) for i in range(len(u_rows)))
    return ObservationMatrix(Matrix(field, [r + u for u, r in zip(u_rows, r_rows)]),
                             len(r_rows[0]) if r_rows else 0, labels)


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
    obs = ObservationMatrix(Matrix(gf, [], ncols=5), 3, ())
    v = S.rank_leakage(obs)
    assert v.leakage_qunits == 0
    assert v.lemma_cond_entropy_ok and not v.lemma_recoverable_ok


def test_rank_leakage_lemma_booleans():
    scheme = make_scheme(SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mbcr-exact"))
    obs = scheme.observation_matrix([2], [])
    v = S.rank_leakage(obs)
    assert (v.lemma_cond_entropy_ok, v.lemma_recoverable_ok) == (True, True)
    assert linear_view(obs).matrix.rank() == 5 == obs.n_random  # H(e) = H(r)
    # bivariate: rank = l1*alpha - l1(l1-1) = 5 = |r|
    scheme = make_scheme(SchemeParams(n=5, k=2, d=2, t=2, l1=1, scheme="mbcr-bivariate"))
    obs = scheme.observation_matrix([4], [])
    v = S.rank_leakage(obs)
    assert (v.lemma_cond_entropy_ok, v.lemma_recoverable_ok) == (True, True)
    assert obs.matrix.rank() == 5 == obs.n_random


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


def test_brute_force_guard_message_follows_the_constant(monkeypatch):
    scheme = make_scheme(SchemeParams(n=3, k=2, d=2, t=1, l1=1, scheme="insecure-demo"))
    monkeypatch.setattr(S, "BRUTE_FORCE_GUARD", 1 << 2)
    with pytest.raises(S.InstanceTooLargeError, match=r"exceeds the 2\^2 brute-force guard"):
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
    # tiny GF(9) toy: e = u + r is secure, e = u leaks
    gf = ext_field(3, 2)

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
    assert isinstance(obs, PointObservation)
    fast = S.rank_leakage(obs)
    oracle = S.joint_rank_leakage(linear_view(obs))  # the Moore rows of the points
    assert fast.method == "rank"
    assert _verdict(fast) == _verdict(oracle), (scheme.params, e1, e2)
    return fast


def test_joint_rank_leakage_refuses_points():
    scheme = make_scheme(SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mbcr-exact"))
    with pytest.raises(TypeError):
        S.joint_rank_leakage(scheme.observation_matrix([1], []))


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


# ---------------------------------------------------------
# brute force: mixed-radix enumeration against the rank verdicts
# ---------------------------------------------------------

class _LinearToy:
    """Toy scheme whose eavesdropper sees rows . (u || r) over GF(q)."""

    def __init__(self, q, secure_size, n_random, rows):
        self.field = prime_field(q)
        self.secure_size = secure_size
        self.n_random = n_random
        self.file_size = secure_size + n_random
        self.rows = rows

    def observed_symbols(self, u, r, e1, e2, plans):
        return [self.field.dot(row, list(u) + list(r)) for row in self.rows]

    def rank_verdict(self):
        ms = self.secure_size
        gf = self.field
        obs = ObservationMatrix(Matrix(gf, [row[ms:] + row[:ms] for row in self.rows],
                                       ncols=self.file_size),
                                self.n_random, tuple(("row", i) for i in range(len(self.rows))))
        return S.joint_rank_leakage(obs)


@st.composite
def _linear_toys(draw):
    q = draw(st.sampled_from((2, 3, 5, 7)))
    m_total = draw(st.integers(1, 6))
    ms = draw(st.integers(1, m_total))
    n_obs = draw(st.integers(0, 8))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=m_total,
                                  max_size=m_total),
                         min_size=n_obs, max_size=n_obs))
    return _LinearToy(q, ms, m_total - ms, rows)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_linear_toys())
def test_brute_force_matches_joint_rank_on_random_maps(toy):
    assert _verdict(S.brute_force_leakage(toy, [1], [])) == _verdict(toy.rank_verdict())


# ---------------------------------------------------------
# joint verdict on distinct rows
# ---------------------------------------------------------

def _eliminated_rows(obs):
    """The rows the view's verdict eliminates: the distinct ones when the
    matrix has more than twice as many rows as columns, every row otherwise."""
    matrix = obs.matrix
    if matrix.nrows > 2 * matrix.ncols:
        return len(set(map(tuple, matrix.rows)))
    return matrix.nrows


def _spy_rank_profile(verdict, obs):
    """verdict(obs), and the (rows, pivots) of every elimination it ran."""
    eliminated = []
    rank_profile = Matrix.rank_profile

    def spy(matrix):
        out = rank_profile(matrix)
        eliminated.append((matrix.nrows, out[1]))
        return out

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(Matrix, "rank_profile", spy)
        return verdict(obs), eliminated


def _assert_distinct_rows_verdict(obs):
    """joint_rank_leakage eliminates the distinct rows only on a tall view,
    and that elimination has the full matrix's verdict and pivot columns."""
    rank, pivots = obs.matrix.rank_profile()
    rank_r = sum(1 for c in pivots if c < obs.n_random)
    got, eliminated = _spy_rank_profile(S.joint_rank_leakage, obs)
    assert _verdict(got) == (rank - rank_r, rank <= obs.n_random, rank_r == obs.n_random)
    assert eliminated == [(_eliminated_rows(obs), pivots)]


def test_joint_verdict_on_distinct_rows_of_a_lifetime():
    params = SchemeParams(n=7, k=3, d=4, t=2, l1=1, l2=1, scheme="mbcr-bivariate")
    # the E2 node 2 fails in every other round
    plan = tuple(frozenset({2, 3 + r % 5} if r % 2 == 0 else {3 + r % 5, 4 + r % 4})
                 for r in range(10))
    trace = sim_mod.run(sim_mod.SimConfig(params=params, rounds=10, failure_plan=plan,
                                          seed=3, e1=(1,), e2=(2,), helper_mode="random"))
    obs = sim_mod.observation(trace)
    assert len(set(map(tuple, obs.matrix.rows))) < obs.n_rows
    _assert_distinct_rows_verdict(obs)
    assert S.joint_rank_leakage(obs).leakage_qunits == 0


@st.composite
def _matrices_with_repeats(draw):
    q = draw(st.sampled_from((2, 3, 7, 11)))
    n_random = draw(st.integers(0, 4))
    n_secret = draw(st.integers(1, 4))
    width = n_random + n_secret
    base = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=width, max_size=width),
                         min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=12))
    rows = base + [base[i] for i in picks]
    rows = draw(st.permutations(rows))
    return obs_from_rows(prime_field(q), [row[n_random:] for row in rows],
                         [row[:n_random] for row in rows])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_matrices_with_repeats())
def test_joint_verdict_on_distinct_rows_of_random_matrices(obs):
    _assert_distinct_rows_verdict(obs)


@pytest.mark.parametrize("scheme,nkdt,e1,e2,plan", [
    # E2 node 1 keeps sorted position 0 in every failure set
    ("mscr-dk", (6, 3, 3, 3), (6,), (1,),
     ({1, 2, 3}, {1, 4, 5}, {1, 2, 4}, {1, 3, 5}, {1, 2, 5})),
    ("mbcr-exact", (6, 3, 4, 2), (1,), (2,),
     ({2, 3}, {4, 5}, {2, 6}, {3, 4}, {2, 5}, {1, 6})),
])
def test_point_verdict_on_distinct_rows_of_a_lifetime(scheme, nkdt, e1, e2, plan):
    # rank_leakage on points drops repeated rows once the rows outnumber the
    # columns twice over, with the full matrix's rank
    n, k, d, t = nkdt
    params = SchemeParams(n=n, k=k, d=d, t=t, l1=1, l2=1, scheme=scheme)
    trace = sim_mod.run(sim_mod.SimConfig(
        params=params, rounds=len(plan), failure_plan=tuple(map(frozenset, plan)),
        seed=3, e1=e1, e2=e2))
    obs = sim_mod.observation(trace)
    assert obs.n_rows > 2 * obs.matrix.ncols
    assert len(set(map(tuple, obs.matrix.rows))) < obs.n_rows
    rank, _ = obs.matrix.rank_profile()
    got, eliminated = _spy_rank_profile(S.rank_leakage, obs)
    assert [rows for rows, _ in eliminated] == [_eliminated_rows(obs)]
    assert _verdict(got) == (max(0, rank - obs.n_random), rank <= obs.n_random,
                             rank >= obs.n_random)
    assert got.leakage_qunits == 0


def test_short_views_are_eliminated_whole():
    # at most twice as many rows as columns: the verdict eliminates every
    # row, repeats included, since the scan would cost more than it saves
    field = prime_field(7)
    obs = obs_from_rows(field, [[1, 2], [1, 2], [0, 1], [1, 2], [0, 1], [1, 2]],
                        [[3], [3], [5], [3], [5], [3]])
    assert obs.n_rows == 2 * obs.matrix.ncols
    got, eliminated = _spy_rank_profile(S.joint_rank_leakage, obs)
    assert [rows for rows, _ in eliminated] == [6]
    assert _verdict(got) == _verdict(S.joint_rank_leakage(
        obs_from_rows(field, [[1, 2], [0, 1]], [[3], [5]])))


def _balanced_digits(value, base, count):
    """Digits in [-base//2, base//2], most significant first."""
    digits = []
    for _ in range(count):
        d = (value + base // 2) % base - base // 2
        digits.append(d)
        value = (value - d) // base
    assert value == 0
    return digits[::-1]


@pytest.mark.parametrize("leak", [False, True])
def test_brute_force_codes_past_int64(leak):
    # 19 observed GF(11) symbols, so codes reach 11^19 > 2^64.  With d the
    # balanced base-11 digits of 2^64, e = 5 + d and e = (5, ..., 5) are both
    # observed and their base-11 codes differ by exactly 2^64: folding past
    # int64 without a dense relabel would merge them
    d = _balanced_digits(1 << 64, 11, 19)
    if leak:  # e = u a + r 1: u shifts e along a
        rows = [[di % 11, 1] for di in d]
    else:  # e = (u + r1) a + r2 1: r hides u
        rows = [[di % 11, di % 11, 1] for di in d]
    toy = _LinearToy(11, 1, len(rows[0]) - 1, rows)
    bf = S.brute_force_leakage(toy, [1], [])
    expected = (1, False, True) if leak else (0, True, True)
    assert _verdict(bf) == _verdict(toy.rank_verdict()) == expected


def _assert_brute_force_matches_rank(scheme, e1, e2=(), transcripts=()):
    bf = S.brute_force_leakage(scheme, e1, e2, transcripts)
    rk = S.rank_leakage(scheme.observation_matrix(e1, e2, transcripts))
    assert _verdict(bf) == _verdict(rk), (scheme.params, e1, e2)
    return bf


@pytest.mark.parametrize("n, p", [(4, 5), (3, 3)])
def test_brute_force_matches_rank_mscr_dk_ext_field(n, p):
    s = make_scheme(SchemeParams(n=n, k=2, d=2, t=1, l1=1, scheme="mscr-dk"))
    assert (s.field.char, s.field.degree) == (p, 2)
    for e in range(1, n + 1):
        assert _assert_brute_force_matches_rank(s, (e,)).secure
    # two storage nodes, one more than the scheme is built for
    for e1 in itertools.combinations(range(1, n + 1), 2):
        assert _assert_brute_force_matches_rank(s, e1).leakage_qunits == 1


def test_brute_force_matches_rank_mbcr_bivariate():
    s = make_scheme(SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mbcr-bivariate"))
    assert s.field.order ** s.file_size == 5 ** 8
    for e in range(1, 5):
        assert _assert_brute_force_matches_rank(s, (e,)).secure
    for e1 in itertools.combinations(range(1, 5), 2):
        assert not _assert_brute_force_matches_rank(s, e1).secure
    s = make_scheme(SchemeParams(n=4, k=2, d=2, t=2, l2=1, scheme="mbcr-bivariate"))
    nodes = s.encode(*s.random_inputs(1))
    for failed in itertools.combinations(range(1, 5), 2):
        survivors = {c.node_id: c for c in nodes if c.node_id not in failed}
        tr = s.cooperative_repair(failed, survivors)
        for e in failed:
            assert _assert_brute_force_matches_rank(s, (), (e,), (tr,)).secure


def test_brute_force_matches_rank_insecure_demo():
    s = make_scheme(SchemeParams(n=3, k=2, d=2, t=1, l1=1, scheme="insecure-demo"))
    leaks = [_assert_brute_force_matches_rank(s, (e,)).leakage_qunits for e in (1, 2, 3)]
    assert leaks == [1, 0, 0]


_RSS_PROBE = """
import resource
from coopdss import secrecy
from coopdss.codes import make_scheme
from coopdss.codes.base import SchemeParams
scheme = make_scheme(SchemeParams(n=5, k=2, d=3, t=2, l1=1, scheme="mscr-ia"))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
verdict = secrecy.brute_force_leakage(scheme, [1], [])
assert verdict.secure
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_brute_force_peak_memory_growth():
    # the largest oracle instance, 11^6 assignments, in a fresh process;
    # ru_maxrss is in KiB on Linux
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _RSS_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert int(out) / 1024 <= 100
