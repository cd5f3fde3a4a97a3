"""Every process-wide table filled past its bound: the six `PlanCache`s, the
`lru_cache`s (the packed-row lane layouts `_lanes` among them),
`_FIELD_CACHE` and `_BASIS_MOORE_TABLES`.  Each stays at its bound, and a
value it evicted is built again, equal, on its next request; compiled
GF(p^m) repair plans still equal the per-step reference after eviction and
rebuild.  The `PlanCache`s are swapped for empty tables of
the same bound, so the test leaves the process's own tables as they were.
A walk of every coopdss module's globals finds each such table, and each
must have its test here (`PAST_BOUND_TESTS`)."""

import importlib
import pkgutil
import random
import struct
from itertools import combinations, islice, permutations

import pytest

import coopdss
from coopdss import field as F, precode
from coopdss.codes import SCHEME_CLASSES, base, make_scheme, mbcr_bivariate, nodeio
from coopdss.codes.base import PlanCache, RepairTranscript, SchemeParams
from coopdss.codes.mbcr_exact import _phi_block_rows, find_structure
from coopdss.codes.nodeio import SCHEME_TAGS

import oracles as O


def _odd_primes(count):
    return [q for q in range(3, 10000) if F._is_prime(q)][:count]


def _valid_headers():
    """Header prefixes that pass the header checks, from mscr-dk formats."""
    cls = SCHEME_CLASSES["mscr-dk"]
    for n in range(4, 40):
        for k in range(1, n):
            params = SchemeParams(n=n, k=k, d=k, t=1, scheme="mscr-dk")
            try:
                p, m, _, _ = cls.node_format(params)
            except ValueError:
                continue
            yield (struct.pack("<B6HIHH", SCHEME_TAGS["mscr-dk"], n, k, k, 1, 0, 0, p, m, 0),)


LRU_TABLES = {
    "vandermonde_inverse_rows": (F.vandermonde_inverse_rows,
                                 lambda: ((257, (i, i + 1, i + 2)) for i in range(300))),
    "lagrange_row": (F.lagrange_row, lambda: ((4099, (1, 2, 3, 5), x) for x in range(5000))),
    "_lane_constants": (precode._lane_constants, lambda: ((lanes,) for lanes in range(1, 20))),
    "_lanes": (F._lanes, lambda: ((q, lanes) for q in (5003, 2 ** 31 - 1) for lanes in range(1, 61))),
    "_field_descriptor": (nodeio._field_descriptor, lambda: ((q, 2) for q in _odd_primes(80))),
    "_header": (nodeio._header, _valid_headers),
    "_phi_block_rows": (_phi_block_rows, lambda: ((find_structure(8, 7, 56)[0], 7, cols, 3)
                                                  for cols in permutations(range(7), 3))),
}


def _comparable(value):
    # a struct.Struct compares by identity: compare its format
    if isinstance(value, tuple):
        return tuple(map(_comparable, value))
    return value.format if isinstance(value, struct.Struct) else value


@pytest.mark.parametrize("name", sorted(LRU_TABLES))
def test_lru_table_past_its_bound(name):
    fn, calls = LRU_TABLES[name]
    maxsize = fn.cache_info().maxsize
    calls = list(islice(calls(), maxsize + 1))
    assert len(set(calls)) == maxsize + 1
    first = fn(*calls[0])
    for args in calls[1:]:
        fn(*args)
    info = fn.cache_info()
    assert info.currsize == maxsize
    again = fn(*calls[0])  # the least recently used, evicted
    assert fn.cache_info().misses == info.misses + 1
    assert _comparable(again) == _comparable(first)


def test_field_cache_past_its_bound(monkeypatch):
    monkeypatch.setattr(F, "_FIELD_CACHE", {})
    fields = [F.ext_field(q, 2) for q in _odd_primes(F._FIELD_CACHE_SIZE + 5)]
    assert len(F._FIELD_CACHE) == F._FIELD_CACHE_SIZE
    again = F.ext_field(fields[0].p, 2)
    assert again is not fields[0] and again == fields[0]
    assert again.modulus == fields[0].modulus


def test_basis_moore_tables_past_their_bound(monkeypatch):
    # 100 fields' Moore maps, GF(p^m) for m = 2 ... 101: the table keeps the
    # newest _FIELD_CACHE_SIZE, and an evicted one is rebuilt equal
    monkeypatch.setattr(F, "_BASIS_MOORE_TABLES", {})
    fields = [F.ext_field(F.binomial_prime(3, m), m) for m in range(2, 102)]
    first = None
    for f in fields:
        coeffs = [(7 * i + 1) % f.p for i in range(f.m)]
        x = F.basis_moore_apply(f, coeffs)
        assert F.basis_moore_inverse_apply(f, x) == coeffs
        first = first or F._BASIS_MOORE_TABLES[fields[0]]
        assert len(F._BASIS_MOORE_TABLES) <= F._FIELD_CACHE_SIZE
    assert list(F._BASIS_MOORE_TABLES) == fields[-F._FIELD_CACHE_SIZE:]
    x = F.basis_moore_apply(fields[0], [3, 5])
    assert x == O.basis_moore_matrix(fields[0]).matvec([3, 5])
    assert F._BASIS_MOORE_TABLES[fields[0]] == first
    assert F._BASIS_MOORE_TABLES[fields[0]] is not first
    assert len(F._BASIS_MOORE_TABLES) == F._FIELD_CACHE_SIZE


def _swap(monkeypatch, module, name):
    real = getattr(module, name)
    table = PlanCache(real.maxsize, real.build_on_reuse)
    monkeypatch.setattr(module, name, table)
    return table


def _past_bound(table, keys, request, table_key):
    """Request each key once, twice where the table builds on reuse, and
    the first key again once the table is full.  Returns the first key's
    (value, result), before its eviction and after its rebuild."""
    reps, first = 1 + table.build_on_reuse, None
    for key in keys:
        got = [request(key) for _ in range(reps)][-1]
        first = first or (table._plans[table_key(key)][0], got)
        assert len(table) <= table.maxsize
    assert len(keys) > table.maxsize == len(table)
    assert table_key(keys[0]) not in table._plans
    misses = table.misses
    got = [request(keys[0]) for _ in range(reps)][-1]
    assert table.misses == misses + reps
    return first, (table._plans[table_key(keys[0])][0], got)


def _same_plans(first, again, plan, field, rng):
    """The compiled plans `first` and `again` of the plan described by
    `plan` (`oracles.describe`) give its per-step reference's records."""
    assert again is not first
    vals = [field.from_coords([rng.randrange(field.p) for _ in range(field.degree)])
            for _ in plan.inputs]
    out = [j for _, slots in plan.live + plan.coop + plan.results for j in slots]
    reference = list(vals)
    O.run_steps(field, plan.steps, reference)
    assert O.run_on_values(again, plan.inputs, vals) == O.run_on_values(first, plan.inputs, vals) \
        == tuple(reference[j] for j in out)


def test_repair_plans_of_gabidulin_fields_past_their_bound(monkeypatch):
    # mscr-dk (12,3,3,3) over GF(13^9): each (failed, helpers) key is one
    # compiled plan; the repaired symbols equal the reference repair before
    # and after the first key's plan is evicted and compiled again
    table = _swap(monkeypatch, base, "REPAIR_PLANS")
    scheme = make_scheme(SchemeParams(12, 3, 3, 3, 1, 0, "mscr-dk"))
    assert scheme.field.degree > 1
    nodes = scheme.encode(*scheme.random_inputs(4))
    keys = [(frozenset(failed), helpers) for failed in combinations(range(1, 13), 3)
            for helpers in islice(combinations(sorted(set(range(1, 13)) - set(failed)), 3), 2)]
    keys = keys[:table.maxsize + 1]

    def request(key):
        failed, helpers = key
        survivors = {c.node_id: c for c in nodes if c.node_id not in failed}
        return scheme.cooperative_repair(failed, survivors, helpers)

    def reference(key):
        failed, helpers = key
        survivors = {c.node_id: c for c in nodes if c.node_id not in failed}
        return O.REFERENCE_REPAIRS["mscr-dk"](scheme, failed, survivors, helpers)

    (first, want), (again, got) = _past_bound(table, keys, request,
                                              lambda key: (scheme._key, *key))
    assert want == got == reference(keys[0])
    _same_plans(first, again, O.describe(scheme, "repair", *keys[0]), scheme.field,
                random.Random(12))


def test_encode_plans_past_their_bound(monkeypatch):
    table = _swap(monkeypatch, base, "ENCODE_PLANS")
    schemes = [make_scheme(SchemeParams(n, 2, 2, 2, 1, 0, "mscr-dk")) for n in range(4, 40)]
    keys = list(range(table.maxsize + 1))

    def request(i):
        return schemes[i].encode(*schemes[i].random_inputs(i))

    (first, want), (again, got) = _past_bound(table, keys, request, lambda i: schemes[i]._key)
    assert got == want
    _same_plans(first, again, O.describe(schemes[0], "encode"), schemes[0].field,
                random.Random(4))


def test_reconstruct_plans_past_their_bound(monkeypatch):
    # C(13, 3) = 286 id sets of mscr-dk (13,3,3,3) over GF(13^9)
    table = _swap(monkeypatch, base, "RECONSTRUCT_PLANS")
    scheme = make_scheme(SchemeParams(13, 3, 3, 3, 1, 0, "mscr-dk"))
    u, r = scheme.random_inputs(6)
    nodes = scheme.encode(u, r)
    keys = list(combinations(range(1, 14), 3))[:table.maxsize + 1]

    def request(ids):
        return scheme.reconstruct([nodes[i - 1] for i in ids])

    (first, want), (again, got) = _past_bound(table, keys, request,
                                              lambda ids: (scheme._key, ids))
    assert want == got == u
    _same_plans(first, again, O.describe(scheme, "reconstruct", keys[0]), scheme.field,
                random.Random(13))


def test_stored_rows_past_their_bound(monkeypatch):
    table = _swap(monkeypatch, base, "STORED_ROWS")
    scheme = make_scheme(SchemeParams(1030, 2, 3, 1, 1, 0, "mbcr-bivariate"))
    keys = list(range(1, table.maxsize + 2))
    (first, _), (again, _) = _past_bound(table, keys, lambda i: O.node_rows(scheme, i),
                                         lambda i: (scheme._key, i))
    rows = tuple(map(tuple, scheme._stored_rows(1)))
    assert again == first == (rows, tuple(F.pack_rows(scheme.field.p, scheme.file_size, rows)))
    assert again is not first


def test_download_rows_past_their_bound(monkeypatch):
    # one entry per round key (params, failed, helpers), read by a view of
    # the round's first newcomer; its rows are the closed-form reference's
    table = _swap(monkeypatch, base, "DOWNLOAD_ROWS")
    scheme = make_scheme(SchemeParams(12, 3, 4, 2, 1, 1, "mbcr-bivariate"))
    keys = [(frozenset(failed), helpers)
            for failed in combinations(range(1, 13), 2)
            for helpers in islice(combinations(sorted(set(range(1, 13)) - set(failed)), 4), 8)]
    keys = keys[:table.maxsize + 1]

    def request(key):
        failed, helpers = key
        return scheme.observation_matrix((), (min(failed),),
                                         [RepairTranscript(failed, helpers, {}, {}, ())]).rows

    (first, rows), (again, _) = _past_bound(table, keys, request, lambda key: (scheme._key, *key))
    assert again == first and again is not first
    failed, helpers = keys[0]
    assert sorted(first) == sorted(failed)
    assert rows[scheme.alpha:] == O.download_rows(scheme, failed, helpers, min(failed))


def test_monomial_rows_past_their_bound(monkeypatch):
    table = _swap(monkeypatch, mbcr_bivariate, "MONOMIAL_ROWS")
    scheme = make_scheme(SchemeParams(65, 3, 4, 2, 1, 0, "mbcr-bivariate"))
    keys = [(xi, yi) for xi in range(1, 66) for yi in range(1, 66)][:table.maxsize + 1]

    def request(key):
        return scheme._monomial_row(*key)

    (first, _), (again, _) = _past_bound(table, keys, request, lambda key: (scheme._key, *key))
    assert again == first and again is not first


# each table of the program by its global name, and the test that fills it
PAST_BOUND_TESTS = {
    **{name: test_lru_table_past_its_bound for name in LRU_TABLES},
    "_FIELD_CACHE": test_field_cache_past_its_bound,
    "_BASIS_MOORE_TABLES": test_basis_moore_tables_past_their_bound,
    "REPAIR_PLANS": test_repair_plans_of_gabidulin_fields_past_their_bound,
    "ENCODE_PLANS": test_encode_plans_past_their_bound,
    "RECONSTRUCT_PLANS": test_reconstruct_plans_past_their_bound,
    "STORED_ROWS": test_stored_rows_past_their_bound,
    "DOWNLOAD_ROWS": test_download_rows_past_their_bound,
    "MONOMIAL_ROWS": test_monomial_rows_past_their_bound,
}


def _program_tables():
    """name -> table for every `PlanCache`, `lru_cache` wrapper,
    `_FIELD_CACHE` and `_BASIS_MOORE_TABLES` among the globals of every
    coopdss module; a table imported into another module is one table."""
    found = {}
    for info in pkgutil.walk_packages(coopdss.__path__, "coopdss."):
        for name, value in vars(importlib.import_module(info.name)).items():
            if (isinstance(value, PlanCache) or hasattr(value, "cache_info")
                    or name in ("_FIELD_CACHE", "_BASIS_MOORE_TABLES")):
                assert found.setdefault(name, value) is value, name
    return found


def test_every_table_has_a_past_its_bound_test():
    tables = _program_tables()
    assert sorted(tables) == sorted(PAST_BOUND_TESTS)
    for name, table in tables.items():
        if hasattr(table, "cache_info"):
            assert table.cache_info().maxsize is not None, name
            assert LRU_TABLES[name][0] is table, name
    assert all(getattr(base, name) is tables[name] for name in
               ("REPAIR_PLANS", "ENCODE_PLANS", "RECONSTRUCT_PLANS", "STORED_ROWS", "DOWNLOAD_ROWS"))
    assert mbcr_bivariate.MONOMIAL_ROWS is tables["MONOMIAL_ROWS"]
