"""Repair plans: the executor against the value-level reference repairs of
`oracles`, the plan's shape, and the bounded process-wide plan cache."""

from dataclasses import replace
from functools import cache
from itertools import combinations
from types import FunctionType
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from coopdss.codes import base, make_scheme
from coopdss.codes.base import (REPAIR_PLANS, NodeContent, ParameterError, PlanBuilder,
                                PlanCache, RepairTranscript, SchemeParams)
from coopdss.field import ext_field, pack_rows, prime_field
from coopdss.precode import coefficients

import oracles as O


def scheme_for(name, n, k, d, t, l1=1, l2=0):
    return make_scheme(SchemeParams(n=n, k=k, d=d, t=t, l1=l1, l2=l2, scheme=name))


def every_round(scheme):
    """Every (failed, helpers) of the scheme: each t-set of failures, and
    each d-set of helpers among its survivors."""
    n, d, t = scheme.params.n, scheme.params.d, scheme.params.t
    for failed in combinations(range(1, n + 1), t):
        survivors = [i for i in range(1, n + 1) if i not in failed]
        for helpers in combinations(survivors, d):
            yield frozenset(failed), helpers


PLAN_SCHEMES = [
    ("mbcr-exact", (5, 3, 3, 2)),
    ("mbcr-exact", (6, 3, 4, 2)),
    ("mscr-dk", (6, 3, 3, 3)),
    ("mscr-dk", (7, 3, 3, 3)),
    ("mbcr-bivariate", (7, 3, 4, 2)),
    ("mbcr-bivariate", (8, 3, 4, 2)),
    ("insecure-demo", (3, 2, 2, 1)),
    # mscr-ia at both n in each of its three packings (l1, l2)
    *[("mscr-ia", (n, 2, n - 2, 2, l1, l2)) for n in (4, 5) for l1, l2 in ((0, 0), (1, 0), (0, 1))],
]


@pytest.mark.parametrize("name,nkdt", PLAN_SCHEMES)
def test_executor_transcripts_equal_the_reference_repair(name, nkdt):
    scheme = scheme_for(name, *nkdt)
    reference = O.REFERENCE_REPAIRS[name]
    nodes = {c.node_id: c for c in scheme.encode(*scheme.random_inputs(7))}
    rounds = 0
    for failed, helpers in every_round(scheme):
        survivors = {i: c for i, c in nodes.items() if i not in failed}
        want = reference(scheme, failed, survivors, helpers)
        for _ in range(3):  # the plan built, then cached
            got = scheme.cooperative_repair(failed, survivors, helpers)
            assert got == want, (failed, helpers)
        assert got.results == tuple(nodes[i] for i in sorted(failed))
        rounds += 1
    assert rounds > 0


@pytest.mark.parametrize("name,nkdt", PLAN_SCHEMES)
def test_executor_records_equal_constructed_ones(name, nkdt):
    # the executor builds its records without the dataclass constructors;
    # each must be the record those constructors build from the same fields
    scheme = scheme_for(name, *nkdt)
    nodes = {c.node_id: c for c in scheme.encode(*scheme.random_inputs(5))}
    for failed, helpers in every_round(scheme):
        survivors = {i: c for i, c in nodes.items() if i not in failed}
        got = scheme.cooperative_repair(failed, survivors, helpers)
        results = tuple(NodeContent(c.node_id, c.symbols, c.layout) for c in got.results)
        built = RepairTranscript(got.failed, got.helpers, dict(got.live_transfers),
                                 dict(got.coop_transfers), results)
        assert got == built and repr(got) == repr(built)
        for mine, theirs in zip(got.results, results):
            assert mine == theirs and hash(mine) == hash(theirs) and repr(mine) == repr(theirs)
            assert type(mine.symbols) is tuple and len(mine.symbols) == scheme.alpha
        assert all(type(v) is tuple for v in [*got.live_transfers.values(),
                                              *got.coop_transfers.values()])


def _shape(records):
    """Records as the executor returns them, with each dict's key order
    and the type of every symbol run made visible."""
    live, coop, results = records
    return ([(key, type(v), v) for key, v in live.items()],
            [(key, type(v), v) for key, v in coop.items()],
            type(results), [(key, type(v), v) for key, v in results])


@pytest.mark.parametrize("name,nkdt", PLAN_SCHEMES)
def test_every_plan_kind_returns_the_same_records_on_every_path(name, nkdt, monkeypatch):
    # against empty tables, each request is evaluated, then built and run,
    # then run cached: the encode, every reconstruct and every repair round
    # must give the same records each time, transfer dicts in the same key
    # order, and the table keeps the plan as its compiled function alone
    scheme = scheme_for(name, *nkdt)
    n, k = scheme.params.n, scheme.params.k
    u, r = scheme.random_inputs(3)
    x = scheme._precode(u, r) if hasattr(scheme, "base") else coefficients(u, r)
    nodes = {c.node_id: c for c in scheme.encode(u, r)}
    tables = {}
    for table in ("ENCODE_PLANS", "RECONSTRUCT_PLANS", "REPAIR_PLANS"):
        real = getattr(base, table)
        tables[table] = PlanCache(real.maxsize, real.build_on_reuse)
        monkeypatch.setattr(base, table, tables[table])
    requests = [(tables["ENCODE_PLANS"], scheme._key, scheme._encode_plan,
                 {0: NodeContent(0, tuple(x), (("inputs", len(x)),))})]
    for ids in combinations(range(1, n + 1), k):
        requests.append((tables["RECONSTRUCT_PLANS"], (scheme._key, ids), scheme._reconstruct_plan,
                         {i: nodes[i] for i in ids}, ids))
    for failed, helpers in every_round(scheme):
        requests.append((tables["REPAIR_PLANS"], (scheme._key, failed, helpers), scheme._repair_plan,
                         {i: c for i, c in nodes.items() if i not in failed}, failed, helpers))
    for table, key, build, given, *args in requests:
        got = [_shape(scheme._run_plan(table, key, build, given, *args)) for _ in range(3)]
        assert got[0] == got[1] == got[2], key
        assert type(table._plans[key][0]) is FunctionType
        assert all(t is tuple for group in (got[0][0], got[0][1], got[0][3]) for _, t, _ in group)
    for table in tables.values():  # each key: evaluated and built (two misses), then a hit
        assert table.misses == 2 * table.hits > 0


@pytest.mark.parametrize("extra", [-1, 1])
def test_plan_refuses_a_result_of_other_than_alpha_slots(extra):
    b = O.DescribingBuilder(3, prime_field(11))
    slots = [b.symbol(5, s) for s in range(3)]
    b.live[(5, 1)] = slots[:1]
    result = slots[:2] if extra < 0 else slots + [b.step((1, 1), slots[:2])]
    with pytest.raises(ValueError, match=f"newcomer 1 gets {3 + extra} result slots, alpha is 3"):
        b.plan([(1, result)])
    assert O.plan_values(b.plan([(1, slots)]), [7, 8, 9]) == (7, 7, 8, 9)


@pytest.mark.parametrize("extra", [-1, 1])
def test_scheme_plan_of_a_wrong_result_width_is_refused_and_not_kept(extra):
    # a scheme whose plan rebuilds a node of alpha -/+ 1 symbols is refused
    # when the plan is built, before any repair runs, and the cache keeps
    # nothing, so the next repair of the same round is refused again
    scheme = scheme_for("mscr-dk", 7, 3, 3, 3)
    nodes = {c.node_id: c for c in scheme.encode(*scheme.random_inputs(2))}
    failed, helpers = frozenset({1, 2, 3}), (4, 5, 6)
    survivors = {i: c for i, c in nodes.items() if i not in failed}
    plan = PlanBuilder.plan

    def resized(self, results):
        return plan(self, [(i, list(v)[:extra] if extra < 0 else [*v, v[0]])
                           for i, v in results])

    with mock.patch.object(base, "REPAIR_PLANS", PlanCache(4)) as cache, \
            mock.patch.object(PlanBuilder, "plan", resized):
        for _ in range(2):
            with pytest.raises(ValueError, match=f"gets {3 + extra} result slots, alpha is 3"):
                scheme.cooperative_repair(failed, survivors, helpers)
        assert len(cache) == 0 and cache.misses == 2


def test_single_output_plan_gathers_a_tuple():
    # itemgetter of one slot returns the bare value; the compiled plan still
    # returns a 1-tuple, packed over GF(p) and run by the steps over GF(p^m)
    for field in (prime_field(11), ext_field(7, 2)):
        b = PlanBuilder(1, field)
        plan = b.plan([(1, [b.symbol(2, 0)])])
        assert plan({2: NodeContent(2, (7,), (("x", 1),))}) == ({}, {}, ((1, (7,)),))


@pytest.mark.parametrize("name,nkdt", PLAN_SCHEMES)
def test_plans_hold_no_data(name, nkdt):
    # one plan serves two files: the first file's requests evaluate, build
    # and then read the plan, the second file's are all cache hits, and
    # each transcript is the reference's for its file
    scheme = scheme_for(name, *nkdt)
    failed, helpers = next(every_round(scheme))
    for seed in (1, 2):
        nodes = {c.node_id: c for c in scheme.encode(*scheme.random_inputs(seed))}
        survivors = {i: c for i, c in nodes.items() if i not in failed}
        hits = REPAIR_PLANS.hits
        for _ in range(3):  # evaluated, then built, then cached
            got = scheme.cooperative_repair(failed, survivors, helpers)
            assert got == O.REFERENCE_REPAIRS[name](scheme, failed, survivors, helpers)
    assert REPAIR_PLANS.hits == hits + 3


@pytest.mark.parametrize("name,nkdt", PLAN_SCHEMES)
def test_plan_slots_are_inputs_then_steps(name, nkdt):
    # inputs take the first slots; each step reads only earlier slots and
    # appends the next one; every input is read by a step or an output
    scheme = scheme_for(name, *nkdt)
    for failed, helpers in list(every_round(scheme))[:20]:
        plan = O.describe(scheme, "repair", failed, helpers)
        n_in = len(plan.inputs)
        assert all(h in helpers and 0 <= s < scheme.alpha for h, s in plan.inputs)
        for pos, (row, src) in enumerate(plan.steps):
            assert len(row) == len(src) and all(j < n_in + pos for j in src)
        outputs = [slots for _, slots in plan.live + plan.coop + plan.results]
        read = {j for src in [*outputs, *(src for _, src in plan.steps)] for j in src}
        assert read >= set(range(n_in))
        assert [i for i, _ in plan.results] == sorted(failed)
        assert all(len(slots) == scheme.alpha for _, slots in plan.results)


def test_mbcr_exact_steps_per_round():
    # t(2d+t-1) steps: t d primary symbols, then t d helper z values and
    # t(t-1) cooperative ones; the first-phase z values are verbatim
    scheme = scheme_for("mbcr-exact", 6, 3, 4, 2)
    plan = O.describe(scheme, "repair", frozenset({1, 4}), (2, 3, 5, 6))
    assert len(plan.steps) == 2 * (2 * 4 + 2 - 1)
    assert len(plan.inputs) == 4 * 2 + 4 * 4


def test_validation_runs_before_the_plan_lookup():
    scheme = scheme_for("mbcr-exact", 5, 3, 3, 2)
    nodes = {c.node_id: c for c in scheme.encode(*scheme.random_inputs(3))}
    misses, hits = REPAIR_PLANS.misses, REPAIR_PLANS.hits
    survivors = {i: nodes[i] for i in (1, 2, 3)}
    with pytest.raises(ParameterError, match="exactly t=2 failures"):
        scheme.cooperative_repair({4}, survivors)
    with pytest.raises(ParameterError, match="contacts all d = n-t survivors"):
        scheme.cooperative_repair({4, 5}, {**survivors, 6: nodes[4]}, (1, 2, 3))
    with pytest.raises(ParameterError, match="helpers must be d distinct"):
        scheme.cooperative_repair({4, 5}, survivors, (1, 2, 2))
    assert (REPAIR_PLANS.misses, REPAIR_PLANS.hits) == (misses, hits)


def test_plan_cache_evicts_the_least_recently_used():
    cache = PlanCache(3)
    built = []

    def build(key):
        built.append(key)
        return key

    for key in "abc":
        cache.get(key, lambda: build(key))
    assert cache.get("a", lambda: build("a")) == "a"   # a is now the newest
    cache.get("d", lambda: build("d"))                 # evicts b
    assert len(cache) == 3 and built == ["a", "b", "c", "d"]
    cache.get("b", lambda: build("b"))
    assert built[-1] == "b" and len(cache) == 3
    assert (cache.hits, cache.misses) == (1, 5)


def test_plan_cache_stays_at_its_bound():
    # mbcr-bivariate (12,3,4,2) has C(12,2) C(10,4) = 13860 rounds: more
    # distinct keys than the cache holds, each repaired exactly
    scheme = scheme_for("mbcr-bivariate", 12, 3, 4, 2)
    nodes = {c.node_id: c for c in scheme.encode(*scheme.random_inputs(9))}
    rounds = list(every_round(scheme))[:REPAIR_PLANS.maxsize + 40]
    for failed, helpers in rounds:
        survivors = {i: c for i, c in nodes.items() if i not in failed}
        tr = scheme.cooperative_repair(failed, survivors, helpers)
        assert tr.results == tuple(nodes[i] for i in sorted(failed))
        assert len(REPAIR_PLANS) <= REPAIR_PLANS.maxsize
    assert len(REPAIR_PLANS) == REPAIR_PLANS.maxsize
    # the first keys were evicted: repairing them again builds their plans
    misses = REPAIR_PLANS.misses
    failed, helpers = rounds[0]
    scheme.cooperative_repair(failed, {i: c for i, c in nodes.items() if i not in failed},
                              helpers)
    assert REPAIR_PLANS.misses == misses + 1


# every process-wide table a repair or a reconstruct request can reach
DATA_TABLES = ("REPAIR_PLANS", "ENCODE_PLANS", "RECONSTRUCT_PLANS", "STORED_ROWS", "DOWNLOAD_ROWS")


def _table_states():
    return [(list(table._plans), table.hits, table.misses)
            for table in (getattr(base, name) for name in DATA_TABLES)]


@cache
def _encoded(name, nkdt):
    scheme = scheme_for(name, *nkdt)
    return scheme, {c.node_id: c for c in scheme.encode(*scheme.random_inputs(11))}


def _resized(c, extra):
    """Node c with alpha -/+ 1 symbols, its layout one segment."""
    symbols = c.symbols[:-1] if extra < 0 else c.symbols + c.symbols[:1]
    return NodeContent(c.node_id, symbols, (("symbols", len(symbols)),))


@st.composite
def bad_requests(draw):
    """A `PLAN_SCHEMES` scheme and a repair or reconstruct request with one
    defect: an id outside [1, n] among the survivors, the explicit helpers
    or the contents, or a survivor or content of alpha -/+ 1 symbols."""
    name, nkdt = draw(st.sampled_from(PLAN_SCHEMES))
    scheme, nodes = _encoded(name, nkdt)
    n, k, d, t = nkdt[:4]
    bad = draw(st.integers(-2, 0) | st.integers(n + 1, n + 100))
    extra = draw(st.sampled_from([-1, 1]))
    defect = draw(st.sampled_from(["survivor", "helper", "survivor size", "content",
                                   "content size"]))
    if defect.startswith("content"):
        contents = [nodes[i] for i in draw(st.lists(st.integers(1, n), min_size=k, max_size=n,
                                                    unique=True))]
        j = draw(st.integers(0, len(contents) - 1))
        contents[j] = (_resized(contents[j], extra) if defect == "content size"
                       else replace(contents[j], node_id=bad))
        return scheme, lambda: scheme.reconstruct(contents)
    failed = frozenset(draw(st.sets(st.integers(1, n), min_size=t, max_size=t)))
    survivors = {i: c for i, c in nodes.items() if i not in failed}
    victim = draw(st.sampled_from(sorted(survivors)))
    helpers = None
    if defect == "survivor size":
        survivors[victim] = _resized(survivors[victim], extra)
    else:
        survivors[bad] = survivors.pop(victim)
    if defect == "helper":
        helpers = (bad, *draw(st.permutations(sorted(set(survivors) - {bad})))[:d - 1])
    return scheme, lambda: scheme.cooperative_repair(failed, survivors, helpers)


@settings(max_examples=150, deadline=None)
@given(bad_requests())
def test_node_boundary_refuses_before_any_table(request):
    # never a KeyError, IndexError or bare ValueError, never a transcript
    # from a node that is not there, and no table sees the request
    scheme, call = request
    before = _table_states()
    with pytest.raises(ParameterError):
        call()
    assert _table_states() == before


@pytest.mark.parametrize("name,nkdt", PLAN_SCHEMES)
def test_a_survivor_or_content_keyed_99_is_refused(name, nkdt):
    # a real survivor's key, or a content's id, replaced by 99: mscr-dk
    # (6,3,3,3) used to repair at the wrong point, other schemes raised
    # KeyError or IndexError
    scheme, nodes = _encoded(name, nkdt)
    failed, helpers = next(every_round(scheme))
    survivors = {i: c for i, c in nodes.items() if i not in failed}
    survivors[99] = survivors.pop(helpers[0])
    for given_helpers in (None, (99, *helpers[1:])):
        with pytest.raises(ParameterError, match=r"node ids must lie in \[1, n\]"):
            scheme.cooperative_repair(failed, survivors, given_helpers)
    contents = [replace(nodes[1], node_id=99), *(nodes[i] for i in range(2, nkdt[1] + 1))]
    with pytest.raises(ParameterError, match=r"node ids must lie in \[1, n\]"):
        scheme.reconstruct(contents)
    with pytest.raises(ParameterError, match=f"node 1 holds {scheme.alpha + 1} symbols"):
        scheme.reconstruct([_resized(nodes[1], 1), *contents[1:]])


# -- a round's download rows are its repair plan run on stored rows -------------

@cache
def _scheme(name, nkdt):
    return scheme_for(name, *nkdt)


@st.composite
def plan_rounds(draw):
    """A `PLAN_SCHEMES` scheme, a random failed set and d random helpers
    among its survivors (every survivor where the scheme contacts them
    all), sorted as the program picks them or in any order, as a view may
    be given them."""
    name, nkdt = draw(st.sampled_from(PLAN_SCHEMES))
    scheme = _scheme(name, nkdt)
    n, d, t = scheme.params.n, scheme.params.d, scheme.params.t
    failed = frozenset(draw(st.permutations(range(1, n + 1)))[:t])
    survivors = [i for i in range(1, n + 1) if i not in failed]
    helpers = draw(st.permutations(survivors))[:d]
    return scheme, failed, tuple(sorted(helpers) if draw(st.booleans()) else helpers)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(plan_rounds())
def test_round_rows_are_the_closed_form_download_rows(drawn):
    # `_round_rows` runs the round's own repair plan on packed stored rows:
    # every newcomer's download rows are the scheme's closed form, packed
    # alike, and the run rebuilt every newcomer's stored rows (else it
    # raises), which is exact repair for all data
    scheme, failed, helpers = drawn
    rows = scheme._round_rows(failed, helpers)
    assert sorted(rows) == sorted(failed)
    for i, (tuples, packed) in rows.items():
        assert len(tuples) == scheme.gamma
        assert list(tuples) == O.download_rows(scheme, failed, helpers, i)
        assert packed == tuple(pack_rows(scheme.field.char, scheme.file_size, tuples))


@pytest.mark.parametrize("name,nkdt", PLAN_SCHEMES)
def test_views_leave_the_repair_plan_table_as_it_was(name, nkdt):
    # download rows come from `_repair_plan` itself, never through
    # `REPAIR_PLANS` or `_run_plan`: views of repaired rounds, built with an
    # empty download row table, leave its keys, values, hits and misses
    scheme = scheme_for(name, *nkdt)
    nodes = {c.node_id: c for c in scheme.encode(*scheme.random_inputs(6))}
    rounds = []
    for failed, helpers in list(every_round(scheme))[:4]:
        survivors = {i: c for i, c in nodes.items() if i not in failed}
        rounds.append(scheme.cooperative_repair(failed, survivors, helpers))

    def state():
        return ([(key, id(value), used) for key, (value, used) in REPAIR_PLANS._plans.items()],
                REPAIR_PLANS.hits, REPAIR_PLANS.misses)

    before = state()
    with mock.patch.object(base, "DOWNLOAD_ROWS", PlanCache(base.DOWNLOAD_ROWS.maxsize)) as table:
        for tr in rounds:
            view = scheme.observation_matrix((), (min(tr.failed),), [tr])
            assert view.n_rows == scheme.alpha + scheme.gamma
        assert table.misses == len({(tr.failed, tr.helpers) for tr in rounds}) > 0
    assert state() == before
