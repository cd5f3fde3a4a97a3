import dataclasses
import itertools
import math

import pytest

from coopdss import sim as sim_mod
from coopdss.codes import base, make_scheme, mscr_ia
from coopdss.codes.base import ParameterError, PlanCache, RepairInfeasibleError, SchemeParams
from coopdss.codes.mscr_ia import find_placement
from coopdss.field import Matrix, prime_field
from coopdss.secrecy import brute_force_leakage, rank_leakage

from scheme_utils import check_faithful, leakage_of, sweep_reconstruct, sweep_repair


def scheme_for(n, l1, l2):
    return make_scheme(SchemeParams(n=n, k=2, d=n - 2, t=2, l1=l1, l2=l2,
                                    scheme="mscr-ia"))


def test_placement_search_results():
    # n=4 keeps the literal exponent profile over the first secure prime;
    # n=5 needs the Vandermonde profile (see the mscr_ia module docstring)
    assert find_placement(4) == (7, "arithmetic", (0, 0, 2, 3))
    assert find_placement(5) == (11, "vandermonde", (0, 1, 2, 4, 1))


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


def placed_scheme(n, entry, monkeypatch, l1=1, l2=0):
    """The scheme built under the table entry `entry` for this n; the table
    itself is restored before the caller compares with it."""
    with monkeypatch.context() as patch:
        patch.setitem(mscr_ia._PLACEMENTS, n, entry)
        return scheme_for(n, l1, l2)


def alignment_rank_ok(scheme):
    """Exponent-free necessary condition: for every ordered failed pair
    (X, Y), the helpers' sX rows up to the target's scaling, G[m][j] =
    D_mY[j] / D_Xm[j], have rank alpha with the all-ones column appended."""
    f, n, alpha = scheme.field, scheme.params.n, scheme.alpha
    for x, y in itertools.permutations(range(1, n + 1), 2):
        rows = [[dmy * pow(dxm, -1, f.p) % f.p
                 for dmy, dxm in zip(scheme._det(m, y), scheme._det(x, m))] + [1]
                for m in range(1, n + 1) if m not in (x, y)]
        if Matrix(f, rows, ncols=alpha + 1).rank() != alpha:
            return False
    return True


def feasible_exponents(n, q, profile, monkeypatch):
    """pair -> the (e_X, e_Y) in range(q-1)^2 for which the pair's repair
    strategy exists; the other nodes' exponents do not enter it."""
    feasible = {}
    for pair in itertools.combinations(range(1, n + 1), 2):
        feasible[pair] = set()
        for ex, ey in itertools.product(range(q - 1), repeat=2):
            table = tuple(ex if v == pair[0] else ey if v == pair[1] else 0
                          for v in range(1, n + 1))
            try:
                placed_scheme(n, (q, profile, table), monkeypatch)._repair_strategy(pair)
            except RepairInfeasibleError:
                continue
            feasible[pair].add((ex, ey))
    return feasible


def exponent_tables(n, q, feasible, prefix=()):
    """Every (e_1, ..., e_n) in range(q-1)^n, lexicographically, with
    (e_X, e_Y) feasible for every pair X < Y."""
    v = len(prefix) + 1
    if v > n:
        yield prefix
        return
    for e in range(q - 1):
        if all((prefix[u - 1], e) in feasible[(u, v)] for u in range(1, v)):
            yield from exponent_tables(n, q, feasible, prefix + (e,))


# the process-wide tables a candidate placement must not share
TABLES = ("STORED_ROWS", "DOWNLOAD_ROWS", "REPAIR_PLANS", "ENCODE_PLANS", "RECONSTRUCT_PLANS")


def validate_placement(n, entry, monkeypatch):
    """Every reconstruction and cooperative repair works, the Case-1 secrecy
    rank check passes for every node, and the Case-2 one passes for every E2
    node over its all-partners lifetime, under the table entry `entry`.

    The process-wide row and plan tables key by the params alone, which the
    patched entry does not change, so each candidate runs against empty
    tables of the same bounds and never reads another placement's rows."""
    with monkeypatch.context() as patch:
        for name in TABLES:
            table = getattr(base, name)
            patch.setattr(base, name, PlanCache(table.maxsize, table.build_on_reuse))
        return _validate_placement(n, entry, monkeypatch)


def _validate_placement(n, entry, monkeypatch):
    for l1, l2 in ((1, 0), (0, 1)):
        scheme = placed_scheme(n, entry, monkeypatch, l1, l2)
        u, r = scheme.random_inputs(0x1A)
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
        if (l1, l2) == (1, 0):
            checks = [((e,), (), ()) for e in range(1, n + 1)]
        else:
            checks = [((), (e,), [tr for pair, tr in transcripts.items() if e in pair])
                      for e in range(1, n + 1)]
        for e1, e2, trs in checks:
            obs = scheme.observation_matrix(e1, e2, trs)
            (e,) = e1 + e2
            assert obs.rows[:scheme.alpha] == [tuple(row) for row in scheme._stored_rows(e)]
            rank, pivots = obs.matrix.rank_profile()
            if rank != sum(1 for c in pivots if c < obs.n_random):
                return False
    return True


def search_placement(n, monkeypatch):
    """Smallest odd prime q, then first profile, then the lexicographically
    first feasible exponent table passing every check; None if there is none
    below SEARCH_LIMIT."""
    for q in range(3, SEARCH_LIMIT, 2):
        if any(q % f == 0 for f in range(3, math.isqrt(q) + 1, 2)):
            continue
        for profile in PROFILES:
            if not prefilter_placement(n, q, profile):
                continue
            if not alignment_rank_ok(placed_scheme(n, (q, profile, (0,) * n), monkeypatch)):
                continue
            feasible = feasible_exponents(n, q, profile, monkeypatch)
            for table in exponent_tables(n, q, feasible):
                if validate_placement(n, (q, profile, table), monkeypatch):
                    return q, profile, table
    return None


@pytest.mark.parametrize("n", [4, 5])
def test_search_agrees_with_table(n, monkeypatch):
    assert search_placement(n, monkeypatch) == find_placement(n)


def test_search_finds_nothing_past_the_table(monkeypatch):
    assert search_placement(6, monkeypatch) is None
    with pytest.raises(ParameterError, match=r"only for n in \{4, 5\}, not n=6"):
        find_placement(6)


def test_exponent_table_gap_is_refused(monkeypatch):
    # a table the closed form cannot serve fails loudly instead of searching
    scheme = placed_scheme(4, (7, "arithmetic", (0, 0, 0, 0)), monkeypatch)
    feasible = feasible_exponents(4, 7, "arithmetic", monkeypatch)
    pair = next(pair for pair, ok in feasible.items() if (0, 0) not in ok)
    with pytest.raises(RepairInfeasibleError, match="no alignment strategy"):
        scheme._repair_strategy(pair)


def _refusals(request):
    """The (type, message) of the refusal of each of three requests."""
    out = []
    for _ in range(3):
        with pytest.raises((ParameterError, RepairInfeasibleError)) as err:
            request()
        out.append((type(err.value), str(err.value)))
    return out


def test_a_refusal_is_the_same_on_every_request(monkeypatch):
    # a key's first request evaluates the construction, its second builds
    # the plan, and a build that raised kept nothing, so the third builds
    # again: each refuses alike.  The infeasible pair's placement shares
    # the real one's params, so it runs against empty tables
    for name in TABLES:
        table = getattr(base, name)
        monkeypatch.setattr(base, name, PlanCache(table.maxsize, table.build_on_reuse))
    scheme = placed_scheme(4, (7, "arithmetic", (0, 0, 0, 0)), monkeypatch)
    nodes = {c.node_id: c for c in scheme.encode(*scheme.random_inputs(3))}
    pair = next(pair for pair in itertools.combinations(range(1, 5), 2)
                if not _has_strategy(scheme, pair))
    survivors = {i: c for i, c in nodes.items() if i not in pair}
    refusals = _refusals(lambda: scheme.cooperative_repair(pair, survivors))
    assert refusals == [(RepairInfeasibleError, f"no alignment strategy for failed pair "
                                                f"{list(pair)}")] * 3
    demo = make_scheme(SchemeParams(n=3, k=2, d=2, t=1, l1=1, scheme="insecure-demo"))
    nodes = {c.node_id: c for c in demo.encode(*demo.random_inputs(3))}
    wide = dataclasses.replace(nodes[3], symbols=nodes[3].symbols * 2, layout=(("shares", 2),))
    for survivors, helpers in (({1: nodes[1], 2: nodes[2]}, None),
                               ({2: nodes[2], 3: nodes[3]}, (2, 2)),
                               ({2: nodes[2], 4: nodes[3]}, None),
                               ({2: nodes[2], 3: wide}, None)):
        refusals = _refusals(lambda: demo.cooperative_repair({1}, survivors, helpers))
        assert refusals == [refusals[0]] * 3


def _has_strategy(scheme, pair):
    try:
        scheme._repair_strategy(pair)
    except RepairInfeasibleError:
        return False
    return True


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
                assert obs.matrix.rank() <= s.alpha + 1


# Helper m sends newcomer X the same symbol whoever X's partner is, so X's
# view over any lifetime lies in its view after one repair with each partner
# (the all-partners plans): its content and one more functional, rank
# alpha + 1 = |r|.  Rank and brute force both see no leakage.
LIFETIME_PLANS = [(4, 1, ((1, 2), (1, 3))), (5, 2, ((2, 5), (1, 2)))] + [
    (5, e, tuple(sorted((e, m)) for m in range(1, 6) if m != e)) for e in range(1, 6)]


@pytest.mark.parametrize("n,e2,plan", LIFETIME_PLANS)
def test_case2_secrecy_over_any_lifetime(n, e2, plan):
    scheme = scheme_for(n, 0, 1)
    config = sim_mod.SimConfig(params=scheme.params, rounds=len(plan),
                               failure_plan=tuple(frozenset(p) for p in plan), e2=(e2,))
    trace = sim_mod.run(config)
    assert sim_mod.replay_check(trace)[0] and trace.final == trace.initial
    obs = sim_mod.observation(trace)
    assert obs.matrix.rank() <= scheme.n_random == scheme.alpha + 1
    assert rank_leakage(obs).leakage_qunits == 0
    if len(plan) == 4:
        verdict = brute_force_leakage(scheme, (), (e2,), trace.transcripts)
        assert verdict.leakage_qunits == 0


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
