"""Encode and reconstruct plans: the executor against the value-level
oracles of `oracles`, the plans' composite rows against the stored rows, the
packed GF(p) kernel against per-step execution, and the bounded tables that
keep the plans."""

import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from coopdss.codes import base, make_scheme
from coopdss.codes.base import (ENCODE_PLANS, RECONSTRUCT_PLANS, REPAIR_PLANS, NodeContent,
                                ParameterError, PlanBuilder, PlanCache, SchemeParams)
from coopdss.field import prime_field
from coopdss.precode import random_symbols

import oracles as O

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


def scheme_for(name, n, k, d, t, l1=1, l2=0):
    return make_scheme(SchemeParams(n=n, k=k, d=d, t=t, l1=l1, l2=l2, scheme=name))


@st.composite
def plan_instances(draw):
    """A plan scheme with small random params, a seed and a set of k or more
    contacted nodes."""
    name = draw(st.sampled_from(["mbcr-exact", "mscr-dk", "mbcr-bivariate", "mscr-ia",
                                 "insecure-demo"]))
    t = draw(st.integers(1, 2))
    if name == "insecure-demo":
        n, k, d, t, l1, l2 = 3, 2, 2, 1, 1, 0
    elif name == "mscr-ia":
        n, k, t = draw(st.integers(4, 5)), 2, 2
        d = n - 2
        l1, l2 = draw(st.sampled_from([(0, 0), (1, 0), (0, 1)]))
    elif name == "mscr-dk":
        k = d = draw(st.integers(1, 3))
        t = draw(st.integers(1, 3))
        n = draw(st.integers(k + t, k + t + 2))
    else:
        k = draw(st.integers(1, 3))
        d = draw(st.integers(k, 4))
        n = d + t if name == "mbcr-exact" else draw(st.integers(d + t, d + t + 2))
    if name in ("mbcr-exact", "mscr-dk", "mbcr-bivariate"):
        l2 = draw(st.integers(0, min(1, k - 1, t - 1 if name == "mscr-dk" else 1)))
        l1 = draw(st.integers(0, k - 1 - l2))
    ids = draw(st.lists(st.integers(1, n), min_size=k, max_size=n, unique=True))
    return SchemeParams(n=n, k=k, d=d, t=t, l1=l1, l2=l2, scheme=name), \
        draw(st.integers(0, 2**32)), ids


@settings(max_examples=60, deadline=None)
@given(plan_instances())
def test_plan_encode_and_reconstruct_equal_the_oracles(instance):
    # a key's first request evaluates the construction, its second builds
    # the plan and its third runs the cached plan: all three equal the oracle
    params, seed, ids = instance
    scheme = make_scheme(params)
    u, r = scheme.random_inputs(seed)
    nodes = O.REFERENCE_ENCODES[params.scheme](scheme, u, r)
    given_nodes = [nodes[i - 1] for i in ids]
    for _ in range(3):
        assert scheme.encode(u, r) == nodes
        assert scheme.reconstruct(given_nodes) == u
    assert O.REFERENCE_RECONSTRUCTS[params.scheme](scheme, given_nodes) == u


@settings(max_examples=40, deadline=None)
@given(plan_instances())
def test_reconstruct_of_arbitrary_symbols_equals_the_oracle(instance):
    # decoding is linear, so the plan, its first-request evaluation and the
    # oracle agree on any stored symbols, codewords or not (a corrupted node)
    params, seed, ids = instance
    scheme = make_scheme(params)
    nodes = [NodeContent(i, tuple(random_symbols(scheme.field, scheme.alpha, seed + i)),
                         scheme.layout) for i in ids]
    want = O.REFERENCE_RECONSTRUCTS[params.scheme](scheme, nodes)
    assert [scheme.reconstruct(nodes) for _ in range(3)] == [want] * 3


def _unit(size, j):
    return [int(i == j) for i in range(size)]


@pytest.mark.parametrize("name,nkdt", PLAN_SCHEMES)
def test_encode_plan_rows_equal_the_stored_rows(name, nkdt):
    # every symbol is GF(p)-linear in the plan's inputs (the evaluations of a
    # Gabidulin scheme, r || u otherwise): run on unit inputs, the plan gives
    # the columns of its composite matrix, whose rows must be the stored rows
    scheme = scheme_for(name, *nkdt)
    m = scheme.file_size
    plan = O.describe(scheme, "encode")
    assert plan.inputs == tuple((0, j) for j in range(m))
    columns = [O.plan_values(plan, _unit(m, j)) for j in range(m)]
    stored = [row for i in range(1, scheme.params.n + 1) for row in O.node_rows(scheme, i)]
    assert [tuple(col[s] for col in columns) for s in range(len(stored))] == stored


@pytest.mark.parametrize("name,nkdt", PLAN_SCHEMES)
def test_reconstruct_plan_inverts_the_stored_rows(name, nkdt):
    # fed coordinate j of each input symbol's row, the plan must give unit
    # row j: of the evaluations for a Gabidulin scheme, of u otherwise
    scheme = scheme_for(name, *nkdt)
    m, n, k = scheme.file_size, scheme.params.n, scheme.params.k
    gabidulin = hasattr(scheme, "base")
    for ids in list(combinations(range(1, n + 1), k))[::7]:
        plan = O.describe(scheme, "reconstruct", ids)
        rows = [O.node_rows(scheme, i)[s] for i, s in plan.inputs]
        for j in range(m):
            want = _unit(m, j) if gabidulin else _unit(m, j)[scheme.n_random:]
            assert list(O.plan_values(plan, [row[j] for row in rows])) == want, (ids, j)


def _reference_run(field, plan, vals):
    vals = list(vals)
    O.run_steps(field, plan.steps, vals)
    return tuple(vals[j] for _, slots in plan.live + plan.coop + plan.results for j in slots)


@st.composite
def random_prime_plans(draw):
    """A random straight-line program over GF(p) and input values."""
    p = draw(st.sampled_from([2, 11, 65537]))
    b = O.DescribingBuilder(1, prime_field(p))
    slots = [b.symbol(h, 0) for h in range(draw(st.integers(1, 12)))]
    for _ in range(draw(st.integers(0, 15))):
        src = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=6))
        slots.append(b.step(tuple(draw(st.integers(0, p - 1)) for _ in src), src))
    outs = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=10))
    plan = b.plan([(j, [slot]) for j, slot in enumerate(outs)])
    vals = [draw(st.integers(0, p - 1)) for _ in plan.inputs]
    return p, plan, vals


@settings(max_examples=150, deadline=None)
@given(random_prime_plans())
def test_packed_kernel_equals_per_step_execution(instance):
    p, plan, vals = instance
    want = _reference_run(prime_field(p), plan, vals)
    assert O.plan_values(plan, vals) == want and O.plan_values(plan, vals) == want


@pytest.mark.parametrize("extra", [0, 1])
def test_packed_kernel_at_and_past_the_64_bit_lane_bound(extra):
    # over p = 134223443, 1023 terms of (p-1)^2 fill a 64-bit lane: a plan
    # of 1023 inputs is one packed sum, one of 1024 is chunked
    p = 134223443
    cap = ((1 << 64) - 1) // (p - 1) ** 2
    assert cap == 1023 and (cap + 1) * (p - 1) ** 2 >= 1 << 64
    rng = random.Random(extra)
    b = O.DescribingBuilder(1, prime_field(p))
    layer = [b.symbol(h, 0) for h in range(cap + extra)]
    outs = layer[:3]
    while len(layer) > 1:  # a tree of short steps that reads every input
        layer = [b.step(tuple(rng.randrange(p) for _ in group), group)
                 for group in (layer[i:i + 8] for i in range(0, len(layer), 8))]
        outs += layer[:2]
    plan = b.plan([(j, [slot]) for j, slot in enumerate(outs)])
    assert len(plan.inputs) == cap + extra
    assert plan.run.__qualname__.startswith("PrimeField.compile_plan")  # packed, not per step
    vals = [rng.randrange(p) for _ in plan.inputs]
    assert O.plan_values(plan, vals) == _reference_run(prime_field(p), plan, vals)


@pytest.mark.parametrize("bad", [-1, 11, 11 ** 6 + 3])
def test_symbols_outside_the_prime_field(bad):
    # encode refuses a u or r symbol outside [0, 11); reconstruct and
    # repair read a stored symbol outside it mod 11, on every request path
    # (evaluated, then built, then cached), since the packed kernel's lane
    # bound holds for reduced inputs only
    scheme = scheme_for("mbcr-bivariate", 8, 3, 4, 2)
    assert scheme.field.p == 11
    u, r = scheme.random_inputs(1)
    for args in [((bad, *u[1:]), r), (u, (*r[:-1], bad))]:
        with pytest.raises(ParameterError, match=r"must lie in \[0, 11\)"):
            scheme.encode(*args)
    nodes = scheme.encode(u, r)
    low = NodeContent(1, tuple(random_symbols(scheme.field, scheme.alpha, 5)), scheme.layout)
    high = NodeContent(1, tuple(v + bad - bad % 11 for v in low.symbols), scheme.layout)
    want = O.REFERENCE_RECONSTRUCTS["mbcr-bivariate"](scheme, [low, *nodes[1:3]])
    assert [scheme.reconstruct([high, *nodes[1:3]]) for _ in range(3)] == [want] * 3
    survivors = {c.node_id: c for c in nodes[3:]}
    got = [scheme.cooperative_repair({2, 3}, {1: node, **survivors}, (1, 4, 5, 6))
           for node in (low, high, high)]
    assert got[1] == got[2] == got[0]


def test_a_prime_too_large_for_64_bit_lanes_runs_the_steps():
    # 2^31 - 1: no 64-bit reduction plan covers two terms of (p-1)^2
    p = (1 << 31) - 1
    b = O.DescribingBuilder(1, prime_field(p))
    slots = [b.symbol(h, 0) for h in range(4)]
    slots.append(b.step((p - 1, 2, p - 3), slots[:3]))
    plan = b.plan([(0, [slots[-1]]), (1, [slots[3]])])
    assert plan.run.__qualname__.startswith("ExtField.compile_plan")
    vals = [p - 1, p - 2, 5, 7]
    assert O.plan_values(plan, list(vals)) == _reference_run(prime_field(p), plan, vals)


def test_a_new_entry_survives_a_table_of_hot_entries():
    # every resident entry was hit since the last pass: eviction passes over
    # each once, unmarking it, and drops the oldest, never the new key
    cache = PlanCache(3)
    built = []

    def build(key):
        built.append(key)
        return key

    for key in "abc":
        cache.get(key, build, key)
    for key in "abc":
        assert cache.get(key, build, key) == key
    assert cache.get("d", build, "d") == "d"
    assert cache.get("d", build, "d") == "d" and built == ["a", "b", "c", "d"]
    assert list(cache._plans) == ["b", "c", "d"] and (cache.hits, cache.misses) == (4, 4)
    cache.get("e", build, "e")  # b, c unmarked since the pass; d marked
    assert list(cache._plans) == ["c", "d", "e"]


def test_first_request_of_a_key_builds_nothing():
    # the first request enters the key with no value, the second builds it
    # in its place; keys asked for once are bounded with the rest
    cache = PlanCache(2, build_on_reuse=True)
    built = []

    def build(key):
        built.append(key)
        return key

    assert cache.get("a", build, "a") is None and built == [] and len(cache) == 1
    assert cache.get("a", build, "a") == "a" and built == ["a"]
    assert cache.get("a", build, "a") == "a" and built == ["a"]
    assert (cache.hits, cache.misses) == (1, 2)
    for key in "bcdef":
        assert cache.get(key, build, key) is None
    assert len(cache) == 2 and built == ["a"]
    assert list(cache._plans) == ["e", "f"]  # "a" was passed over once, then went


def test_encode_table_stays_at_its_bound():
    # mscr-dk (n, 1, 1, 1) for 2 <= n <= 40: more params than the table
    # holds, each encoded three times: an evaluation, a build, then a hit
    for n in range(2, 41):
        scheme = scheme_for("mscr-dk", n, 1, 1, 1, l1=0)
        u, r = scheme.random_inputs(n)
        for _ in range(3):
            assert scheme.encode(u, r) == O.mscr_dk_encode(scheme, u, r)
            assert len(ENCODE_PLANS) <= ENCODE_PLANS.maxsize
    assert len(ENCODE_PLANS) == ENCODE_PLANS.maxsize


def test_reconstruct_table_stays_at_its_bound():
    # mbcr-bivariate (12,3,4,2) and (11,3,4,2): 220 + 165 contacted sets,
    # more keys than the table holds, each decoded twice: an evaluation,
    # then a build
    for n in (12, 11):
        scheme = scheme_for("mbcr-bivariate", n, 3, 4, 2)
        u, r = scheme.random_inputs(n)
        nodes = scheme.encode(u, r)
        for ids in combinations(range(1, n + 1), 3):
            for _ in range(2):
                assert scheme.reconstruct([nodes[i - 1] for i in ids]) == u
            assert len(RECONSTRUCT_PLANS) <= RECONSTRUCT_PLANS.maxsize
    assert len(RECONSTRUCT_PLANS) == RECONSTRUCT_PLANS.maxsize


@pytest.mark.parametrize("name,nkdt", PLAN_SCHEMES)
def test_scheme_construction_builds_no_plan(name, nkdt):
    tables = (ENCODE_PLANS, RECONSTRUCT_PLANS, REPAIR_PLANS)
    before = [(len(t), t.hits, t.misses) for t in tables]
    scheme_for(name, *nkdt)
    assert [(len(t), t.hits, t.misses) for t in tables] == before


def test_a_build_that_raises_leaves_nothing():
    # the key's first request evaluates and enters the key with no value;
    # its builds then raise and keep no value, so each later request builds
    # again, until one succeeds and is kept
    scheme = scheme_for("mscr-dk", 7, 3, 3, 3)
    u, r = scheme.random_inputs(4)
    with mock.patch.object(base, "ENCODE_PLANS", PlanCache(4, build_on_reuse=True)) as cache:
        assert scheme.encode(u, r) == O.mscr_dk_encode(scheme, u, r)
        with mock.patch.object(PlanBuilder, "plan", side_effect=ValueError("no plan")):
            for _ in range(2):
                with pytest.raises(ValueError, match="no plan"):
                    scheme.encode(u, r)
        assert [value for value, _ in cache._plans.values()] == [None]
        for _ in range(2):
            assert scheme.encode(u, r) == O.mscr_dk_encode(scheme, u, r)
        assert (cache.hits, cache.misses) == (1, 4)
