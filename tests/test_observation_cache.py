"""Each scheme instance builds a node's stored observation rows once and
keeps them (`Scheme._node_rows`): the rows it returns must equal a fresh
instance's, no caller may alter them, and the cache must die with the
instance.  mbcr-bivariate also keeps one monomial row per observed point
(`_monomial_rows`), which a lifetime's downloads read again and again."""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from coopdss import sim
from coopdss.codes import make_scheme
from coopdss.codes.base import SchemeParams

PARAMS = {
    "mbcr-exact": SchemeParams(5, 3, 3, 2, 1, 1, "mbcr-exact"),
    "mbcr-bivariate": SchemeParams(6, 2, 3, 2, 1, 0, "mbcr-bivariate"),
    "mscr-ia": SchemeParams(5, 2, 3, 2, 0, 1, "mscr-ia"),
    "mscr-dk": SchemeParams(5, 3, 3, 2, 1, 1, "mscr-dk"),
    "insecure-demo": SchemeParams(3, 2, 2, 1, 1, 0, "insecure-demo"),
}

# one instance per scheme, warmed by every draw that uses it
WARM = {name: make_scheme(params) for name, params in PARAMS.items()}


def _rows(obs):
    return [obs.matrix.rows]


def _one_round(scheme, failed, helpers):
    """The transcript of one repair of `failed` from a fresh encoding."""
    nodes = scheme.encode(*scheme.random_inputs(1))
    survivors = {c.node_id: c for c in nodes if c.node_id not in failed}
    return scheme.cooperative_repair(failed, survivors, helpers)


@st.composite
def views(draw):
    """(scheme name, E1, E2, transcripts) with at most one repair round."""
    name = draw(st.sampled_from(sorted(PARAMS)))
    p = PARAMS[name]
    ids = list(range(1, p.n + 1))
    transcripts = ()
    e2 = ()
    if draw(st.booleans()):
        failed = frozenset(draw(st.permutations(ids))[:p.t])
        survivors = [i for i in ids if i not in failed]
        helpers = tuple(sorted(draw(st.permutations(survivors))[:p.d]))
        transcripts = (_one_round(WARM[name], failed, helpers),)
        e2 = tuple(draw(st.sets(st.sampled_from(sorted(failed)))))
    e1 = tuple(draw(st.sets(st.sampled_from([i for i in ids if i not in e2]), max_size=2)))
    return name, e1, e2, transcripts


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(views())
def test_warm_observation_equals_fresh(view):
    name, e1, e2, transcripts = view
    warm = WARM[name].observation_matrix(e1, e2, transcripts)
    fresh = make_scheme(PARAMS[name]).observation_matrix(e1, e2, transcripts)
    assert _rows(warm) == _rows(fresh)
    assert warm.labels == fresh.labels
    assert len(WARM[name]._stored_cache) <= PARAMS[name].n


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_overwritten_observation_leaves_cache_intact(name):
    p = PARAMS[name]
    scheme = make_scheme(p)
    tr = _one_round(scheme, frozenset(range(1, p.t + 1)), None)
    everyone = range(2, p.n + 1)
    first = scheme.observation_matrix(everyone, [1], [tr])
    for matrix in _rows(first):
        for row in matrix:
            row[:] = [7] * len(row)
    again = scheme.observation_matrix(everyone, [1], [tr])
    fresh = make_scheme(p).observation_matrix(everyone, [1], [tr])
    assert _rows(again) == _rows(fresh) and again.labels == fresh.labels


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_cache_holds_at_most_n_nodes_per_instance(name):
    p = PARAMS[name]
    scheme = make_scheme(p)
    assert scheme._stored_cache == {}
    tr = _one_round(scheme, frozenset(range(1, p.t + 1)), None)
    for _ in range(2):
        obs = scheme.observation_matrix(range(2, p.n + 1), [1], [tr])
        # one matrix, one row of file_size ints per observed symbol
        assert obs.matrix.ncols == scheme.file_size
        assert obs.n_secret + obs.n_random == scheme.file_size
    assert sorted(scheme._stored_cache) == list(range(1, p.n + 1))
    for rows in scheme._stored_cache.values():
        hash(rows)  # raises on a list at any depth
        assert all(type(row) is tuple and len(row) == scheme.file_size
                   and all(type(x) is int for x in row) for row in rows)
    assert make_scheme(p)._stored_cache == {}


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_instances_leave_no_rows_behind(name):
    # a process-wide table would grow with every instance; the per-instance
    # cache dies with it, so 1000 instances, in ten blocks of 100, leave the
    # traced peak of a block where the first block left it.  Each block
    # starts from a full collection, which also empties the interpreter's
    # free lists: a freed tuple parked there still counts as traced.
    p = PARAMS[name]
    everyone = range(1, p.n + 1)
    make_scheme(p).observation_matrix(everyone, [])  # warm process-wide caches
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(10):
            gc.collect()
            tracemalloc.reset_peak()
            for _ in range(100):
                make_scheme(p).observation_matrix(everyone, [])
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[-1] - peaks[0] < 4 << 10


def test_bivariate_lifetime_rows_from_a_bounded_point_table():
    # a lifetime view repeats download points; the warm instance's view
    # equals a fresh one's, and its table holds one tuple per point, at most
    # n^2 of them
    params = SchemeParams(7, 3, 4, 2, 1, 1, "mbcr-bivariate")
    plan = tuple(frozenset({2, 3 + r % 5} if r % 2 == 0 else {3 + r % 5, 4 + r % 4})
                 for r in range(10))
    trace = sim.run(sim.SimConfig(params=params, rounds=10, failure_plan=plan, seed=3,
                                  e1=(1,), e2=(2,), helper_mode="random"))
    warm = make_scheme(params)
    for _ in range(2):
        view = warm.observation_matrix((1,), (2,), trace.transcripts)
        fresh = make_scheme(params).observation_matrix((1,), (2,), trace.transcripts)
        assert _rows(view) == _rows(fresh) and view.labels == fresh.labels
    table = warm._monomial_rows
    assert len(set(map(tuple, view.matrix.rows))) == len(table) < view.n_rows
    assert len(table) <= params.n ** 2
    assert all(type(row) is tuple and len(row) == warm.file_size for row in table.values())
    # every point of the grid fills the table to n^2 and no further
    for xi in range(1, params.n + 1):
        for yi in range(1, params.n + 1):
            warm._monomial_row(xi, yi)
    assert len(table) == params.n ** 2
