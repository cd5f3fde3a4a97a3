"""The brute-force oracle's coset count against the int64 reference
(`oracles.brute_force_int64`), which enumerates every joint (u, r)
assignment of the same probed map with one int64 code each; the oracle's
narrow codes, its size and its peak memory."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coopdss import secrecy as S
from coopdss import sim as sim_mod
from coopdss.codes import make_scheme
from coopdss.codes.base import ParameterError, SchemeParams

from oracles import brute_force_int64
from test_secrecy import _LinearToy


def _verdict(v):
    return v.leakage_qunits, v.lemma_cond_entropy_ok, v.lemma_recoverable_ok


def _assert_matches_reference(scheme, e1, e2=(), transcripts=()):
    got = S.brute_force_leakage(scheme, e1, e2, transcripts)
    assert got.method == "bruteforce"
    assert _verdict(got) == _verdict(brute_force_int64(scheme, e1, e2, transcripts)), \
        (getattr(scheme, "params", None), e1, e2)
    return got


@functools.lru_cache(maxsize=None)
def _scheme(params):
    return make_scheme(params)


def _lifetime(params, plan, e2, seed=1, helper_mode="lowest"):
    """The transcripts of a run of `plan`, a sequence of failed sets."""
    config = sim_mod.SimConfig(params=params, rounds=len(plan),
                               failure_plan=tuple(map(frozenset, plan)), seed=seed,
                               e2=tuple(e2), helper_mode=helper_mode)
    return sim_mod.run(config).transcripts


MSCR_IA_5 = SchemeParams(n=5, k=2, d=3, t=2, l1=1, scheme="mscr-ia")
# an E2 node repaired once with every partner: it holds every symbol it can
# download in any lifetime: 19 observed coordinates, 11 of them distinct and
# nonzero, so its codes would span 11^11 > 2^32 without a relabel
ALL_PARTNERS = (SchemeParams(n=5, k=2, d=3, t=2, l2=1, scheme="mscr-ia"),
                ({1, 2}, {1, 3}, {1, 4}, {1, 5}), (1,))


# ---------------------------------------------------------
# agreement with the reference on every scheme
# ---------------------------------------------------------

# (scheme, n, k, d, t, l1, l2) within the guard, each with secure symbols
_INSTANCES = (
    ("mbcr-exact", 2, 1, 1, 1, 0, 0),
    ("mscr-dk", 3, 2, 2, 1, 1, 0), ("mscr-dk", 4, 2, 2, 1, 0, 0),
    ("mscr-dk", 4, 2, 2, 1, 1, 0), ("mscr-dk", 3, 1, 1, 2, 0, 0),
    ("mbcr-bivariate", 4, 2, 2, 2, 1, 0), ("mbcr-bivariate", 4, 2, 2, 2, 0, 1),
    ("mbcr-bivariate", 5, 2, 2, 1, 0, 1), ("mbcr-bivariate", 4, 1, 2, 2, 0, 0),
    ("mscr-ia", 4, 2, 2, 2, 1, 0), ("mscr-ia", 4, 2, 2, 2, 0, 1),
    ("insecure-demo", 3, 2, 2, 1, 1, 0),
)


@st.composite
def _views(draw):
    """(scheme, E1, E2, transcripts): at least one random eavesdropper, on a
    plan of at most 3 rounds in which every E2 node fails at least once."""
    name, n, k, d, t, l1, l2 = draw(st.sampled_from(_INSTANCES))
    params = SchemeParams(n=n, k=k, d=d, t=t, l1=l1, l2=l2, scheme=name)
    nodes = range(1, n + 1)
    plan = draw(st.lists(st.sets(st.sampled_from(nodes), min_size=t, max_size=t),
                         max_size=3))
    repaired = sorted(set().union(*plan))
    e2 = sorted(draw(st.sets(st.sampled_from(repaired), max_size=2))) if repaired else []
    rest = [i for i in nodes if i not in e2]
    e1 = []
    if rest:
        e1 = sorted(draw(st.sets(st.sampled_from(rest), min_size=0 if e2 else 1,
                                 max_size=2)))
    transcripts = ()
    if plan:
        transcripts = _lifetime(params, plan, e2, seed=draw(st.integers(0, 3)),
                                helper_mode="random")
    return _scheme(params), tuple(e1), tuple(e2), transcripts


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_views())
def test_narrow_codes_match_the_int64_reference(view):
    _assert_matches_reference(*view)


@pytest.mark.parametrize("params, e1", [
    (SchemeParams(n=2, k=1, d=1, t=1, scheme="mbcr-exact"), (1,)),
    (SchemeParams(n=4, k=2, d=2, t=1, l1=1, scheme="mscr-dk"), (1, 3)),
    (SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mbcr-bivariate"), (2,)),
    (SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mbcr-bivariate"), (1, 4)),
    (SchemeParams(n=3, k=2, d=2, t=1, l1=1, scheme="insecure-demo"), (2,)),
])
def test_every_scheme_matches_the_reference(params, e1):
    _assert_matches_reference(_scheme(params), e1)


def test_insecure_demo_leak_matches_the_reference():
    v = _assert_matches_reference(
        _scheme(SchemeParams(n=3, k=2, d=2, t=1, l1=1, scheme="insecure-demo")), (1,))
    assert _verdict(v) == (1, True, False)


def test_largest_instance_matches_the_reference():
    scheme = _scheme(MSCR_IA_5)
    for e in (1, 5):
        assert _assert_matches_reference(scheme, (e,)).secure
    assert not _assert_matches_reference(scheme, (1, 2)).secure


def _spy_relabel(monkeypatch):
    """The dtype of the codes at every `_relabel` call from now on."""
    relabels = []
    relabel = S._relabel

    def spy(codes):
        relabels.append(codes.dtype)
        return relabel(codes)

    monkeypatch.setattr(S, "_relabel", spy)
    return relabels


def test_all_partners_lifetime_is_relabelled_and_matches_the_reference(monkeypatch):
    params, plan, e2 = ALL_PARTNERS
    transcripts = _lifetime(params, plan, e2)
    relabels = _spy_relabel(monkeypatch)
    assert _assert_matches_reference(_scheme(params), (), e2, transcripts).secure
    assert relabels and set(relabels) == {np.dtype(np.uint32)}


# ---------------------------------------------------------
# coset counting: the u part and the r part apart
# ---------------------------------------------------------

def _spy_fills(monkeypatch):
    """The length of every array `_coordinate_values` fills from now on."""
    fills = []
    fill = S._coordinate_values

    def spy(row, p, out):
        fills.append(len(out))
        return fill(row, p, out)

    monkeypatch.setattr(S, "_coordinate_values", spy)
    return fills


@pytest.mark.parametrize("view", ["mscr-ia", "all-partners"])
def test_oracle_fills_order_ms_plus_order_nr_values(monkeypatch, view):
    if view == "mscr-ia":
        scheme, args = _scheme(MSCR_IA_5), ((1,),)
    else:
        params, plan, e2 = ALL_PARTNERS
        scheme, args = _scheme(params), ((), e2, _lifetime(params, plan, e2))
    fills = _spy_fills(monkeypatch)
    assert _assert_matches_reference(scheme, *args).secure
    order = scheme.field.order
    # the joint enumeration would fill order^M = 11^6 values per row
    assert fills and max(fills) <= order ** scheme.secure_size + order ** scheme.n_random


# (q, |u|, rows over (u || r), expected verdict)
_COSET_CASES = {
    "no-secret": (3, 0, [[1, 2], [0, 1]], (0, True, True)),
    "no-randomness": (3, 2, [[1, 1], [2, 2]], (1, False, True)),
    # e = (u1 + u2, 2(u1 + u2) + r): u = (1, -1) and its multiples are unseen
    "a_u-kernel": (5, 2, [[1, 1, 0], [2, 2, 1]], (1, False, True)),
    "two-unit-leak": (3, 2, [[1, 0, 1], [0, 1, 0], [0, 0, 1]], (2, False, True)),
    "empty-view": (5, 2, [], (0, True, False)),
}


@pytest.mark.parametrize("case", list(_COSET_CASES))
def test_coset_count_matches_the_reference_on_toy_maps(case):
    q, ms, rows, expected = _COSET_CASES[case]
    width = ms + 1 if not rows else len(rows[0])
    toy = _LinearToy(q, ms, width - ms, rows)
    assert _verdict(S.brute_force_leakage(toy, [1], [])) == _verdict(brute_force_int64(toy, [1], [])) \
        == _verdict(toy.rank_verdict()) == expected


def test_u_and_r_parts_are_relabelled_together(monkeypatch):
    # e over GF(11) from u = (u1, u2), r = (r1, r2): 11 distinct rows
    # (i, i^2, i, 5i + 2), so the span passes 2^32 at the tenth fold.  u1
    # enters as r1 does, so U_0 = {(u1, 0)}; i^2 is no affine function of i,
    # so u2 leaks one unit.  Relabelling the parts apart would misnumber them
    rows = [[i % 11, i * i % 11, i % 11, (5 * i + 2) % 11] for i in range(1, 12)]
    lengths = []
    relabel = S._relabel
    monkeypatch.setattr(S, "_relabel", lambda codes: lengths.append(len(codes)) or relabel(codes))
    toy = _LinearToy(11, 2, 2, rows)
    assert _verdict(S.brute_force_leakage(toy, [1], [])) == _verdict(brute_force_int64(toy, [1], [])) \
        == _verdict(toy.rank_verdict()) == (1, False, True)
    assert lengths == [11 ** 2 + 11 ** 2]
    # a code of either part matches a code of the other iff their vectors match
    a = np.array(rows, dtype=np.int64)
    codes = S._assignment_codes(a, 11, (2, 2))
    xs = np.array(list(itertools.product(range(11), repeat=2)), dtype=np.int64)
    zero = np.zeros_like(xs)
    e = np.vstack([(np.hstack([xs, zero]) @ a.T) % 11, (np.hstack([zero, xs]) @ a.T) % 11])
    pairs = set(zip(codes.tolist(), map(tuple, e.tolist())))
    assert len(pairs) == len(set(codes.tolist())) == len(set(map(tuple, e.tolist())))


# ---------------------------------------------------------
# narrow codes across the span boundaries
# ---------------------------------------------------------

def _binary_rows(count, width=6):
    """The first `count` nonzero GF(2) rows of `width` digits, in order."""
    rows = [list(bits) for bits in itertools.product((0, 1), repeat=width) if any(bits)]
    return rows[:count]


def _assert_codes_split_like_e(a, p, codes):
    """Two assignments share a code iff they share the observation a x."""
    xs = np.array(list(itertools.product(range(p), repeat=a.shape[1])), dtype=np.int64)
    e = [tuple(row) for row in (xs @ a.T) % p]
    pairs = set(zip(codes.tolist(), e))
    assert len(pairs) == len(set(codes.tolist())) == len(set(e))


@pytest.mark.parametrize("count, dtype, relabelled", [
    (8, np.uint8, False),     # span 2^8
    (9, np.uint16, False),    # span 2^9
    (16, np.uint16, False),   # span 2^16
    (17, np.uint32, False),   # span 2^17
    (32, np.uint32, False),   # span 2^32
    (33, np.uint8, True),     # 2^33 would pass 2^32: relabelled to 64 codes, then 2x
])
def test_codes_take_the_narrowest_type_of_their_span(monkeypatch, count, dtype, relabelled):
    rows = _binary_rows(count)
    a = np.array(rows, dtype=np.int64)
    relabels = _spy_relabel(monkeypatch)
    codes = S._assignment_codes(a, 2)
    assert codes.dtype == dtype and bool(relabels) == relabelled
    _assert_codes_split_like_e(a, 2, codes)
    for ms in (1, 3, 6):
        toy = _LinearToy(2, ms, 6 - ms, rows)
        assert _verdict(S.brute_force_leakage(toy, [1], [])) == \
            _verdict(brute_force_int64(toy, [1], []))


def test_zero_and_repeated_rows_are_skipped():
    rows = _binary_rows(8)
    a = np.array([[0] * 6] + rows + rows[::-1] + [[0] * 6], dtype=np.int64)
    codes = S._assignment_codes(a, 2)
    assert codes.dtype == np.uint8  # 8 distinct rows, span 2^8, not 2^16
    _assert_codes_split_like_e(a, 2, codes)
    toy = _LinearToy(2, 2, 4, a.tolist())
    assert _verdict(S.brute_force_leakage(toy, [1], [])) == \
        _verdict(brute_force_int64(toy, [1], []))


def test_wide_primes_take_wider_values_and_uint64_codes():
    # p = 131: values reach 2(p - 1) = 260 before reduction, so they are
    # uint16; e = u + r, whose classes a wrapped uint8 sum would merge
    a = np.array([[1, 1]], dtype=np.int64)
    codes = S._assignment_codes(a, 131)
    assert codes.dtype == np.uint8
    _assert_codes_split_like_e(a, 131, codes)
    toy = _LinearToy(131, 1, 1, a.tolist())
    assert _verdict(S.brute_force_leakage(toy, [1], [])) == (0, True, True)
    # five rows span 131^5 > 2^32 and are relabelled once
    a = np.array([[1, 0], [0, 1], [1, 1], [1, 2], [3, 7]], dtype=np.int64)
    codes = S._assignment_codes(a, 131)
    assert codes.dtype == np.uint32
    _assert_codes_split_like_e(a, 131, codes)
    # p = 65537: one digit, so at most p codes after a relabel, and p^2 > 2^32
    # still needs uint64
    a = np.array([[1], [2], [3]], dtype=np.int64)
    codes = S._assignment_codes(a, 65537)
    assert codes.dtype == np.uint64
    assert len(set(codes.tolist())) == 65537
    toy = _LinearToy(65537, 1, 0, a.tolist())
    assert _verdict(S.brute_force_leakage(toy, [1], [])) == (1, False, True)


# ---------------------------------------------------------
# validation and memory
# ---------------------------------------------------------

@pytest.mark.parametrize("e1, e2", [((9,), ()), ((0,), ()), ((1,), (1,)), ((), (2,))])
def test_eavesdropper_ids_are_validated_before_probing(monkeypatch, e1, e2):
    scheme = make_scheme(SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mscr-ia"))
    monkeypatch.setattr(S, "_probed_map", lambda *args: pytest.fail("probed"))
    with pytest.raises(ParameterError):
        S.brute_force_leakage(scheme, e1, e2)


def _peak_bytes(scheme, e1, e2=(), transcripts=()):
    """tracemalloc's peak over one oracle call; a first call imports numpy
    and fills the scheme's caches outside the measurement."""
    S.brute_force_leakage(scheme, e1, e2, transcripts)
    tracemalloc.start()
    try:
        verdict = S.brute_force_leakage(scheme, e1, e2, transcripts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.secure
    return peak


def _peak_bytes_per_assignment(scheme, e1, e2=(), transcripts=()):
    """`_peak_bytes` per joint (u, r) assignment."""
    return _peak_bytes(scheme, e1, e2, transcripts) / scheme.field.order ** scheme.file_size


def test_oracle_peak_memory_per_assignment():
    # 11^6 assignments each; int64 codes (brute_force_int64) take about 17 and 57 bytes
    assert _peak_bytes_per_assignment(_scheme(MSCR_IA_5), (1,)) <= 6
    params, plan, e2 = ALL_PARTNERS
    assert _peak_bytes_per_assignment(_scheme(params), (), e2, _lifetime(params, plan, e2)) <= 16


def test_oracle_peak_memory_per_call():
    # enumerating every joint (u, r) assignment peaked at 7.1 MB and 17.8 MB
    assert _peak_bytes(_scheme(MSCR_IA_5), (1,)) <= 500_000
    params, plan, e2 = ALL_PARTNERS
    assert _peak_bytes(_scheme(params), (), e2, _lifetime(params, plan, e2)) <= 2_000_000
