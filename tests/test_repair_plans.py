"""Repair plans: the executor against the value-level reference repairs of
`oracles`, the plan's shape, and the bounded process-wide plan cache."""

from itertools import combinations

import pytest

from coopdss.codes import make_scheme
from coopdss.codes.base import REPAIR_PLANS, ParameterError, PlanCache, SchemeParams

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
]


@pytest.mark.parametrize("name,nkdt", PLAN_SCHEMES)
def test_executor_transcripts_equal_the_reference_repair(name, nkdt):
    scheme = scheme_for(name, *nkdt)
    reference = O.REFERENCE_REPAIRS[name]
    nodes = {c.node_id: c for c in scheme.encode(*scheme.random_inputs(7))}
    rounds = 0
    for failed, helpers in every_round(scheme):
        survivors = {i: c for i, c in nodes.items() if i not in failed}
        got = scheme.cooperative_repair(failed, survivors, helpers)
        assert got == reference(scheme, failed, survivors, helpers), (failed, helpers)
        assert got.results == tuple(nodes[i] for i in sorted(failed))
        rounds += 1
    assert rounds > 0


@pytest.mark.parametrize("name,nkdt", PLAN_SCHEMES)
def test_plans_hold_no_data(name, nkdt):
    # one plan serves two files: the second repair is a cache hit, and its
    # transcript is the reference's for the second file
    scheme = scheme_for(name, *nkdt)
    failed, helpers = next(every_round(scheme))
    for seed in (1, 2):
        nodes = {c.node_id: c for c in scheme.encode(*scheme.random_inputs(seed))}
        survivors = {i: c for i, c in nodes.items() if i not in failed}
        hits = REPAIR_PLANS.hits
        got = scheme.cooperative_repair(failed, survivors, helpers)
        assert got == O.REFERENCE_REPAIRS[name](scheme, failed, survivors, helpers)
    assert REPAIR_PLANS.hits == hits + 1


@pytest.mark.parametrize("name,nkdt", PLAN_SCHEMES)
def test_plan_slots_are_inputs_then_steps(name, nkdt):
    # inputs take the first slots; each step reads only earlier slots and
    # appends the next one; every input is read by a step or an output
    scheme = scheme_for(name, *nkdt)
    for failed, helpers in list(every_round(scheme))[:20]:
        plan = scheme._repair_plan(failed, helpers)
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
    plan = scheme._repair_plan(frozenset({1, 4}), (2, 3, 5, 6))
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
