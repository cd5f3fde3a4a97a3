"""Observation rows depend on public parameters alone, so bounded
process-wide tables keep them: a node's stored rows under (params, node)
(`STORED_ROWS`, filled by `Scheme._row_entry`), every newcomer's download
rows of a round under (params, failed, helpers) (`DOWNLOAD_ROWS`, filled by
`Scheme._round_rows`) and mbcr-bivariate's monomial row of each point
under (params, point) (`MONOMIAL_ROWS`).  The rows they return must equal
rows built with every table empty, no caller may alter them, every table
stays at its bound, and building more instances of the same params adds
nothing."""

import copy
import gc
import tracemalloc
from contextlib import contextmanager
from itertools import combinations, islice
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from coopdss import sim
from coopdss.codes import SCHEME_CLASSES, base, make_scheme, mbcr_bivariate
from coopdss.codes.base import (DOWNLOAD_ROWS, STORED_ROWS, PlanCache, PointObservation,
                                RepairTranscript, SchemeParams)
from coopdss.codes.mbcr_bivariate import MONOMIAL_ROWS
from coopdss.field import pack_rows
from coopdss.secrecy import rank_leakage

from oracles import download_rows, observation_rows_and_labels

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


@contextmanager
def cold_tables():
    """Every row table replaced by an empty one of the same bound, so that
    a view built inside builds each of its rows afresh."""
    with mock.patch.object(base, "STORED_ROWS", PlanCache(STORED_ROWS.maxsize)), \
            mock.patch.object(base, "DOWNLOAD_ROWS", PlanCache(DOWNLOAD_ROWS.maxsize)), \
            mock.patch.object(mbcr_bivariate, "MONOMIAL_ROWS",
                              PlanCache(MONOMIAL_ROWS.maxsize)):
        yield


def _entries(table, params):
    """The (key, rows) entries of a row table under `params`, whose keys
    start with the params' repr, a download entry's rows by newcomer; each
    entry's packed rows are its rows packed (`pack_rows`)."""
    p = SCHEME_CLASSES[params.scheme].node_format(params)[0]
    entries = [(key, value) for key, (value, _) in table._plans.items() if key[0] == repr(params)]
    out = []
    for key, value in entries:
        by_newcomer = value if isinstance(value, dict) else {None: value}
        for rows, packed in by_newcomer.values():
            assert packed == tuple(pack_rows(p, len(rows[0]), rows))
        out.append((key, {i: rows for i, (rows, _) in by_newcomer.items()}
                    if isinstance(value, dict) else value[0]))
    return out


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
    with cold_tables():
        fresh = make_scheme(PARAMS[name]).observation_matrix(e1, e2, transcripts)
        assert len(base.STORED_ROWS) <= PARAMS[name].n
    assert _rows(warm) == _rows(fresh)
    assert warm.labels == fresh.labels
    assert len(_entries(STORED_ROWS, PARAMS[name])) <= PARAMS[name].n


@st.composite
def lifetime_views(draw):
    """(scheme name, E1, E2, transcripts) with up to two repair rounds, each
    E2 node a newcomer in at least one of them."""
    name = draw(st.sampled_from(sorted(PARAMS)))
    p = PARAMS[name]
    ids = list(range(1, p.n + 1))
    transcripts = []
    for _ in range(draw(st.integers(0, 2))):
        failed = frozenset(draw(st.permutations(ids))[:p.t])
        survivors = [i for i in ids if i not in failed]
        helpers = tuple(sorted(draw(st.permutations(survivors))[:p.d]))
        transcripts.append(_one_round(WARM[name], failed, helpers))
    repaired = sorted(set().union(*(tr.failed for tr in transcripts)))
    e2 = tuple(draw(st.sets(st.sampled_from(repaired), max_size=2))) if repaired else ()
    e1 = tuple(draw(st.sets(st.sampled_from([i for i in ids if i not in e2]), max_size=2)))
    return name, e1, e2, tuple(transcripts)


def _table_entries():
    """Every (key, (rows, packed rows)) entry of the stored and download row tables."""
    return [(key, value) for table in (STORED_ROWS, DOWNLOAD_ROWS)
            for key, (value, _) in table._plans.items()]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(lifetime_views())
def test_view_keeps_table_rows_and_builds_labels_on_first_use(view):
    # the view holds the tables' own tuples, in the eager walk's order; the
    # verdict and n_rows build neither the copied matrix nor the labels, the
    # verdict is that of the copied matrix's rank profile, and it leaves
    # every table entry as it was; the labels, walked on first use, are the
    # eager walk's
    name, e1, e2, transcripts = view
    scheme = WARM[name]
    obs = scheme.observation_matrix(e1, e2, transcripts)
    rows, labels = observation_rows_and_labels(scheme, e1, e2, transcripts)
    before = copy.deepcopy(_table_entries())
    verdict = rank_leakage(obs)
    assert obs.n_rows == len(rows) == len(obs.rows)
    assert "labels" not in vars(obs) and "matrix" not in vars(obs)
    assert _table_entries() == before
    assert obs.rows == rows
    stored = (len(e1) + len(e2)) * scheme.alpha  # the reference reads these from the table
    assert all(got is want for got, want in zip(obs.rows[:stored], rows[:stored], strict=True))
    assert obs.labels == tuple(labels)
    assert obs.matrix.rows == [list(row) for row in rows]
    rank, pivots = obs.matrix.rank_profile()
    nr = obs.n_random
    if isinstance(obs, PointObservation):
        want = (max(0, rank - nr), rank <= nr, rank >= nr)
    else:
        rank_r = sum(1 for c in pivots if c < nr)
        want = (rank - rank_r, rank <= nr, rank_r == nr)
    assert (verdict.leakage_qunits, verdict.lemma_cond_entropy_ok,
            verdict.lemma_recoverable_ok) == want


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
    with cold_tables():
        fresh = make_scheme(p).observation_matrix(everyone, [1], [tr])
    assert _rows(again) == _rows(fresh) and again.labels == fresh.labels


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_cache_holds_at_most_n_nodes_per_instance(name):
    # the stored rows live in the process-wide table, at most n entries per
    # params; a second instance of the same params builds none of them
    p = PARAMS[name]
    scheme = make_scheme(p)
    tr = _one_round(scheme, frozenset(range(1, p.t + 1)), None)
    for _ in range(2):
        obs = scheme.observation_matrix(range(2, p.n + 1), [1], [tr])
        # one matrix, one row of file_size ints per observed symbol
        assert obs.matrix.ncols == scheme.file_size
        assert obs.n_secret + obs.n_random == scheme.file_size
    entries = _entries(STORED_ROWS, p)
    assert sorted(node for (_, node), _ in entries) == list(range(1, p.n + 1))
    for _, rows in entries:
        hash(rows)  # raises on a list at any depth
        assert all(type(row) is tuple and len(row) == scheme.file_size
                   and all(type(x) is int for x in row) for row in rows)
    misses = (STORED_ROWS.misses, DOWNLOAD_ROWS.misses)
    make_scheme(p).observation_matrix(range(2, p.n + 1), [1], [tr])
    assert (STORED_ROWS.misses, DOWNLOAD_ROWS.misses) == misses
    assert len(_entries(STORED_ROWS, p)) == p.n


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
    # equals one built with every table empty, and the point table, which
    # the stored rows of the view's nodes and of each round's helpers and
    # newcomers read, holds one tuple per point, at most n^2 of them per
    # params
    params = SchemeParams(7, 3, 4, 2, 1, 1, "mbcr-bivariate")
    plan = tuple(frozenset({2, 3 + r % 5} if r % 2 == 0 else {3 + r % 5, 4 + r % 4})
                 for r in range(10))
    trace = sim.run(sim.SimConfig(params=params, rounds=10, failure_plan=plan, seed=3,
                                  e1=(1,), e2=(2,), helper_mode="random"))
    with cold_tables():
        warm = make_scheme(params)
        for _ in range(2):
            view = warm.observation_matrix((1,), (2,), trace.transcripts)
            with cold_tables():
                fresh = make_scheme(params).observation_matrix((1,), (2,), trace.transcripts)
            assert _rows(view) == _rows(fresh) and view.labels == fresh.labels
        table = mbcr_bivariate.MONOMIAL_ROWS
        assert len(set(map(tuple, view.matrix.rows))) < view.n_rows
        assert len(table) == len(set(pt for i in range(1, params.n + 1)
                                     for pt in warm._stored_points(i))) <= params.n ** 2
        assert all(type(row) is tuple and len(row) == warm.file_size
                   for row, _ in table._plans.values())
        # every point of the grid fills the table to n^2 and no further
        for xi in range(1, params.n + 1):
            for yi in range(1, params.n + 1):
                warm._monomial_row(xi, yi)
        assert len(table) == params.n ** 2
        for xi in range(1, params.n + 1):
            warm._monomial_row(xi, 1)
        assert len(table) == params.n ** 2


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_download_rows_read_only_the_round_keys(name):
    # a download row depends on (params, failed, helpers, newcomer) alone:
    # the rows of a transcript with no transfers at all are those of the
    # executed round, from the table and built afresh
    p = PARAMS[name]
    failed = frozenset(range(1, p.t + 1))
    helpers = tuple(range(p.t + 1, p.t + 1 + p.d))
    tr = _one_round(make_scheme(p), failed, helpers)
    bare = RepairTranscript(failed, helpers, {}, {}, ())
    views = [make_scheme(p).observation_matrix((), (1,), [tr])]
    with cold_tables():
        views.append(make_scheme(p).observation_matrix((), (1,), [bare]))
    views.append(make_scheme(p).observation_matrix((), (1,), [bare]))
    assert all(_rows(v) == _rows(views[0]) and v.labels == views[0].labels for v in views)


def test_download_row_table_stays_at_its_bound():
    # mbcr-bivariate (12,3,4,2) has C(12,2) C(10,4) = 13860 rounds: 1000
    # distinct (failed, helpers) keys overfill the table, which keeps the
    # newest maxsize of them, each newcomer's rows the closed-form ones
    params = SchemeParams(12, 3, 4, 2, 1, 1, "mbcr-bivariate")
    scheme = make_scheme(params)
    keys = [(frozenset(failed), helpers, failed[0])
            for failed in combinations(range(1, 13), 2)
            for helpers in islice(combinations(sorted(set(range(1, 13)) - set(failed)), 4), 16)
            ][:1000]
    assert len(set(keys)) == 1000 > DOWNLOAD_ROWS.maxsize
    for failed, helpers, newcomer in keys:
        scheme.observation_matrix((), (newcomer,), [RepairTranscript(failed, helpers, {}, {}, ())])
        assert len(DOWNLOAD_ROWS) <= DOWNLOAD_ROWS.maxsize
    assert len(DOWNLOAD_ROWS) == DOWNLOAD_ROWS.maxsize
    newest = _entries(DOWNLOAD_ROWS, params)
    assert [(*key[1:], min(key[1])) for key, _ in newest[-3:]] == keys[-3:]
    for (_, failed, helpers), by_newcomer in newest[-3:]:
        assert sorted(by_newcomer) == sorted(failed)
        for newcomer, rows in by_newcomer.items():
            assert list(rows) == download_rows(scheme, failed, helpers, newcomer)
    # an evicted key is built again on its next use
    misses = DOWNLOAD_ROWS.misses
    failed, helpers, newcomer = keys[0]
    scheme.observation_matrix((), (newcomer,), [RepairTranscript(failed, helpers, {}, {}, ())])
    assert DOWNLOAD_ROWS.misses == misses + 1
