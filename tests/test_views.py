"""A view is the eavesdropper's rows in the shared row order, built by
`Scheme._view` in one validating pass as one record.  These tests hold it
to the eager reference walk (`oracles.observation_rows_and_labels`) and
its refusals to the reference checks (`oracles.validate_eaves`), whatever
iterable the rounds come in, and pin what the benchmark's tracer relies
on: every scheme class defines `observation_matrix` in its own body, and
one verdict runs one `Matrix.rank_profile`."""

from contextlib import contextmanager, nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from coopdss import secrecy
from coopdss.codes import SCHEME_CLASSES, base, make_scheme, mbcr_bivariate
from coopdss.codes.base import (DOWNLOAD_ROWS, STORED_ROWS, ObservationMatrix, ParameterError,
                                PlanCache, PointObservation, RepairTranscript, SchemeParams)
from coopdss.codes.mbcr_bivariate import MONOMIAL_ROWS
from coopdss.field import Matrix, pack_rows
from coopdss.secrecy import brute_force_leakage, rank_leakage

from oracles import node_rows, observation_rows_and_labels, validate_eaves

PARAMS = {
    "mbcr-exact": SchemeParams(5, 3, 3, 2, 1, 1, "mbcr-exact"),
    "mbcr-bivariate": SchemeParams(6, 2, 3, 2, 1, 0, "mbcr-bivariate"),
    "mscr-ia": SchemeParams(5, 2, 3, 2, 0, 1, "mscr-ia"),
    "mscr-dk": SchemeParams(6, 3, 3, 3, 1, 1, "mscr-dk"),
    "insecure-demo": SchemeParams(3, 2, 2, 1, 1, 0, "insecure-demo"),
}
# mbcr-exact and mscr-ia repair from all d = n - t survivors; the others
# take any d of them
ALL_SURVIVORS = ("mbcr-exact", "mscr-ia")

WARM = {name: make_scheme(params) for name, params in PARAMS.items()}

# the iterables a caller may hand over its rounds in
WRAPS = {
    "tuple": tuple,
    "list": list,
    "iterator": iter,
    "generator": lambda rounds: (tr for tr in rounds),
}


@contextmanager
def cold_tables():
    """Every row table replaced by an empty one of the same bound."""
    with mock.patch.object(base, "STORED_ROWS", PlanCache(STORED_ROWS.maxsize)), \
            mock.patch.object(base, "DOWNLOAD_ROWS", PlanCache(DOWNLOAD_ROWS.maxsize)), \
            mock.patch.object(mbcr_bivariate, "MONOMIAL_ROWS",
                              PlanCache(MONOMIAL_ROWS.maxsize)):
        yield


def _lifetime(scheme, plan):
    """The transcripts of repairing each (failed, helpers) of `plan` in
    turn, every round on the contents the earlier rounds left."""
    contents = {c.node_id: c for c in scheme.encode(*scheme.random_inputs(0))}
    rounds = []
    for failed, helpers in plan:
        survivors = {i: c for i, c in contents.items() if i not in failed}
        tr = scheme.cooperative_repair(failed, survivors, helpers)
        contents.update({c.node_id: c for c in tr.results})
        rounds.append(tr)
    return tuple(rounds)


# -- an iterator of rounds is read as the same rounds --------------------------

@pytest.mark.parametrize("wrap", ["iterator", "generator"])
def test_rounds_from_an_iterator_keep_every_download_row(wrap):
    # mscr-dk's documented two-position leak: node 2 repaired at two sorted
    # positions sees the whole secret, in 8 rows; an iterator of the same
    # rounds once left only its 2 stored rows and read leakage 0
    scheme = make_scheme(SchemeParams(4, 2, 2, 2, 0, 1, "mscr-dk"))
    rounds = _lifetime(scheme, [({1, 2}, None), ({2, 3}, None)])
    expected = scheme.observation_matrix((), (2,), rounds)
    view = scheme.observation_matrix((), (2,), WRAPS[wrap](rounds))
    assert expected.n_rows == view.n_rows == 8
    assert view.rows == expected.rows and view.labels == expected.labels
    verdict = rank_leakage(view)
    assert verdict == rank_leakage(expected)
    assert (verdict.leakage_qunits, verdict.lemma_recoverable_ok) == (1, True)


@pytest.mark.parametrize("wrap", ["iterator", "generator"])
def test_brute_force_probes_every_round_of_an_iterator(wrap):
    # the oracle validated the rounds and then replayed none of them: 2
    # observed symbols instead of 8, and H(r | u, e) = 0 read as failing
    scheme = make_scheme(SchemeParams(4, 2, 2, 2, 0, 1, "mscr-ia"))
    rounds = _lifetime(scheme, [({1, 2}, None), ({1, 3}, None)])
    probed = []

    def counted(*args):
        a = probe(*args)
        probed.append(a.shape[0])
        return a

    probe = secrecy._probed_map
    with mock.patch.object(secrecy, "_probed_map", counted):
        expected = brute_force_leakage(scheme, (), (1,), rounds)
        verdict = brute_force_leakage(scheme, (), (1,), WRAPS[wrap](rounds))
    assert probed == [8, 8]
    assert verdict == expected
    rank = rank_leakage(scheme.observation_matrix((), (1,), rounds))
    assert (verdict.leakage_qunits, verdict.lemma_cond_entropy_ok, verdict.lemma_recoverable_ok) \
        == (rank.leakage_qunits, rank.lemma_cond_entropy_ok, rank.lemma_recoverable_ok)


# -- a view is the reference walk ------------------------------------------------

@st.composite
def observations(draw):
    """(scheme name, E1, E2, rounds, wrap): 0-3 repair rounds with random
    failed sets, and random helpers where the scheme takes any d survivors;
    E2 among the repaired nodes, E1 among the rest."""
    name = draw(st.sampled_from(sorted(PARAMS)))
    p = PARAMS[name]
    ids = list(range(1, p.n + 1))
    plan = []
    for _ in range(draw(st.integers(0, 3))):
        failed = frozenset(draw(st.permutations(ids))[:p.t])
        helpers = None
        if name not in ALL_SURVIVORS:
            helpers = draw(st.permutations([i for i in ids if i not in failed]))[:p.d]
        plan.append((failed, helpers))
    rounds = _lifetime(WARM[name], plan)
    repaired = sorted(set().union(*(tr.failed for tr in rounds)))
    e2 = draw(st.sets(st.sampled_from(repaired), max_size=2)) if repaired else set()
    e1 = draw(st.sets(st.sampled_from([i for i in ids if i not in e2]), max_size=3))
    return name, sorted(e1), sorted(e2), rounds, draw(st.sampled_from(sorted(WRAPS)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(observations(), st.booleans())
def test_view_is_the_reference_walk(drawn, cold):
    name, e1, e2, rounds, wrap = drawn
    warm = WARM[name]
    with cold_tables() if cold else nullcontext():
        scheme = make_scheme(PARAMS[name]) if cold else warm
        view = scheme.observation_matrix(e1, e2, WRAPS[wrap](rounds))
    rows, labels = observation_rows_and_labels(warm, e1, e2, rounds)
    point = name in ("mbcr-exact", "mscr-dk")
    assert type(view) is (PointObservation if point else ObservationMatrix)
    assert view.field == (warm.base if point else warm.field)
    assert (view.ncols, view.n_random, view.n_secret) \
        == (warm.file_size, warm.n_random, warm.secure_size)
    assert view.rows == rows
    assert view.packed == pack_rows(view.field.p, view.ncols, rows)
    assert view.labels == tuple(labels)
    assert view.matrix.rows == [list(row) for row in rows]
    reference = type(view)(Matrix(view.field, rows, ncols=view.ncols), warm.n_random, labels)
    assert rank_leakage(view) == rank_leakage(reference)


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_a_view_and_the_row_reads_share_their_table_entries(name):
    # `_view` binds the row tables' lookups itself: what it enters under a
    # key, `oracles.node_rows` finds under its own, and its download rows are the
    # round entry's own tuples, keyed (params, failed, helpers)
    p = PARAMS[name]
    with cold_tables():
        scheme = make_scheme(p)
        rounds = _lifetime(scheme, [(frozenset(range(1, p.t + 1)), None)])
        view = scheme.observation_matrix((p.n,), (1,), rounds)
        misses = (base.STORED_ROWS.misses, base.DOWNLOAD_ROWS.misses)
        tr = rounds[0]
        round_rows = base.DOWNLOAD_ROWS._plans[(scheme._key, tr.failed, tr.helpers)][0]
        rows = [*node_rows(scheme, p.n), *node_rows(scheme, 1), *round_rows[1][0]]
        assert (base.STORED_ROWS.misses, base.DOWNLOAD_ROWS.misses) == misses
    assert all(a is b for a, b in zip(view.rows, rows, strict=True))
    assert rows == observation_rows_and_labels(scheme, (p.n,), (1,), rounds)[0]


# -- every refusal is the reference's --------------------------------------------

@st.composite
def eavesdroppers(draw):
    """(scheme name, E1, E2, rounds): ids in [-1, n + 2], E1 and E2 free to
    overlap, and rounds that are well formed or have the wrong number of
    failed ids, a repeated or failed helper, or an id outside [1, n]."""
    name = draw(st.sampled_from(sorted(PARAMS)))
    p = PARAMS[name]
    n = p.n
    ids = list(range(1, n + 1))
    outside = st.sampled_from([-1, 0, n + 1, n + 2])
    rounds = []
    for _ in range(draw(st.integers(0, 3))):
        order = draw(st.permutations(ids))
        failed, helpers = list(order[:p.t]), list(order[p.t:p.t + p.d])
        fault = draw(st.sampled_from(["none", "none", "more failed", "fewer failed", "few helpers",
                                      "repeated helper", "failed helper", "failed outside",
                                      "helper outside"]))
        if fault == "more failed" and p.t + p.d < n:
            failed.append(order[-1])
        elif fault == "fewer failed":
            failed.pop()
        elif fault == "few helpers":
            helpers.pop()
        elif fault == "repeated helper" and p.d > 1:
            helpers[-1] = helpers[0]
        elif fault == "failed helper":
            helpers[-1] = failed[0]
        elif fault == "failed outside":
            failed[-1] = draw(outside)
        elif fault == "helper outside":
            helpers[-1] = draw(outside)
        rounds.append(RepairTranscript(frozenset(failed), tuple(helpers), {}, {}, ()))
    node = st.one_of(st.integers(-1, n + 2),
                     st.sampled_from(sorted(set().union(*(tr.failed for tr in rounds)))
                                     or ids))
    e1 = draw(st.lists(node, max_size=3))
    e2 = draw(st.lists(node, max_size=3))
    return name, e1, e2, tuple(rounds)


def _outcome(check):
    try:
        return check()
    except ParameterError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(eavesdroppers())
def test_every_refusal_is_the_reference_refusal(drawn):
    name, e1, e2, rounds = drawn
    scheme = WARM[name]
    expected = _outcome(lambda: validate_eaves(scheme, e1, e2, rounds))
    assert _outcome(lambda: scheme._validate_eaves(e1, e2, rounds)) == expected
    if expected[0] is ParameterError:  # refused before any row is looked up
        assert _outcome(lambda: scheme.observation_matrix(iter(e1), iter(e2), iter(rounds))) \
            == expected


# -- what the benchmark's tracer wraps and counts ----------------------------------

def test_every_scheme_class_defines_observation_matrix_in_its_own_body():
    # the tracer wraps `cls.__dict__["observation_matrix"]` per scheme class
    for name, cls in SCHEME_CLASSES.items():
        assert "observation_matrix" in cls.__dict__, name


@pytest.mark.parametrize("name", sorted(PARAMS))
@pytest.mark.parametrize("n_rounds", [0, 3])
def test_one_verdict_runs_one_rank_profile(name, n_rounds):
    # the tracer counts `rank_profile` calls and rows by `n_rows`: one
    # elimination per point view (mbcr-exact, mscr-dk) and per joint view,
    # a tall lifetime view too
    p = PARAMS[name]
    scheme = WARM[name]
    plan = [(frozenset({1 + (i + j) % p.n for j in range(p.t)}), None) for i in range(n_rounds)]
    rounds = _lifetime(scheme, plan)
    view = scheme.observation_matrix((p.n,), (1,) if rounds else (), rounds)
    calls = []
    rank_profile = Matrix.rank_profile

    def counted(self):
        calls.append(self.nrows)
        return rank_profile(self)

    with mock.patch.object(Matrix, "rank_profile", counted):
        rank_leakage(view)
    assert len(calls) == 1
    assert view.n_rows == len(view.rows) == len(view.labels)
