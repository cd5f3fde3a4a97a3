import dataclasses
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from coopdss import sim as sim_mod
from coopdss.codes import make_scheme, mbcr_bivariate
from coopdss.codes.base import REPAIR_PLANS, ParameterError, SchemeParams
from coopdss.precode import splitmix64
from coopdss.secrecy import rank_leakage

import oracles as O
from scheme_utils import symbol_from_bytes


def config_for(scheme="mbcr-exact", n=4, k=2, d=2, t=2, l1=0, l2=0, **kw):
    params = SchemeParams(n=n, k=k, d=d, t=t, l1=l1, l2=l2, scheme=scheme)
    return sim_mod.SimConfig(params=params, **kw)


def test_zero_rounds():
    cfg = config_for(l1=1, rounds=0, failure_plan=(), e1=(3,))
    trace = sim_mod.run(cfg)
    assert trace.transcripts == () and trace.final == trace.initial
    obs = sim_mod.observation(trace)
    assert obs.n_rows == 5  # stored rows only
    assert rank_leakage(obs).leakage_qunits == 0


def test_single_round_e1():
    cfg = config_for(l1=1, rounds=1, failure_plan=(frozenset({1, 2}),), e1=(3,))
    trace = sim_mod.run(cfg)
    assert trace.bandwidth == (2 * 5,)  # t * gamma
    assert rank_leakage(sim_mod.observation(trace)).leakage_qunits == 0


def test_e2_must_fail_somewhere():
    cfg = config_for(scheme="mscr-dk", l2=1, rounds=1,
                     failure_plan=(frozenset({2, 3}),), e2=(1,))
    with pytest.raises(ParameterError):
        sim_mod.run(cfg)


def test_e2_download_rows_counted():
    cfg = config_for(scheme="mscr-dk", l2=1, rounds=1,
                     failure_plan=(frozenset({1, 2}),), e2=(1,))
    trace = sim_mod.run(cfg)
    obs = sim_mod.observation(trace)
    scheme_alpha = 2
    k, t = 2, 2
    assert obs.n_rows == scheme_alpha + k + (t - 1)
    assert rank_leakage(obs).leakage_qunits == 0


def test_exact_repair_closure_multi_round():
    cfg = config_for(l1=1, rounds=3,
                     failure_plan=(frozenset({1, 2}), frozenset({3, 4}), frozenset({2, 3})),
                     e1=(1,))
    trace = sim_mod.run(cfg)
    assert trace.final == trace.initial
    ok, diffs = sim_mod.replay_check(trace)
    assert ok, diffs


def test_determinism():
    cfg = config_for(l1=1, rounds=2, seed=77, e1=(3,))
    t1 = sim_mod.run(cfg)
    t2 = sim_mod.run(cfg)
    assert t1 == t2
    assert sim_mod.trace_to_text(t1) == sim_mod.trace_to_text(t2)


def test_random_plan_and_helpers_mode():
    cfg = config_for(scheme="mscr-dk", n=6, k=2, d=2, t=2, rounds=4, seed=5,
                     helper_mode="random")
    trace = sim_mod.run(cfg)
    assert trace.final == trace.initial
    assert all(bw == 2 * 3 for bw in trace.bandwidth)
    ok, _ = sim_mod.replay_check(trace)
    assert ok


def test_unrank_subset_lists_every_subset_in_order():
    for n in range(1, 8):
        for t in range(1, n + 1):
            assert [sim_mod._unrank_subset(n, t, i) for i in range(comb(n, t))] \
                == list(combinations(range(1, n + 1), t))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_random_plan_matches_listed_subsets(data):
    # oracle: list every t-subset and index it with the drawn value
    n = data.draw(st.integers(1, 12))
    t = data.draw(st.integers(1, n))
    seed = data.draw(st.integers(0, 2**64 - 1))
    rounds = data.draw(st.integers(0, 5))
    stream = splitmix64(seed ^ 0xFA11)
    all_sets = list(combinations(range(1, n + 1), t))
    want = tuple(frozenset(all_sets[next(stream) % len(all_sets)]) for _ in range(rounds))
    assert config_for(n=n, t=t, rounds=rounds, seed=seed).resolved_plan() == want


def test_random_plan_at_large_n_lists_no_subsets():
    # C(100000, 3) ~ 1.7e14 subsets: listing them cannot finish; each drawn
    # index is unranked alone, checked by the closed-form lexicographic rank
    n, t, seed = 100_000, 3, 11
    tracemalloc.start()
    try:
        plan = config_for(n=n, t=t, rounds=4, seed=seed).resolved_plan()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    stream = splitmix64(seed ^ 0xFA11)
    for fs in plan:
        c = sorted(fs)
        rank = comb(n, t) - 1 - sum(comb(n - x, t - j) for j, x in enumerate(c))
        assert len(c) == t and 1 <= c[0] and c[-1] <= n
        assert rank == next(stream) % comb(n, t)


@pytest.mark.parametrize("rounds", [-1, sim_mod.HEADER_BOUND, 100_000_000])
def test_rounds_outside_trace_header_bound_rejected_before_drawing(monkeypatch, rounds):
    # the trace header holds rounds in 16 bits; a larger count is refused
    # before a single failure set is drawn
    def no_stream(seed):
        raise AssertionError("a failure set was drawn")

    monkeypatch.setattr(sim_mod, "splitmix64", no_stream)
    with pytest.raises(ParameterError, match=f"rounds={rounds} is outside"):
        config_for(rounds=rounds).resolved_plan()


def test_failure_plan_bounded_like_rounds():
    plan = (frozenset({1, 2}),) * (sim_mod.HEADER_BOUND - 1)
    assert config_for(rounds=len(plan), failure_plan=plan).resolved_plan() == plan
    plan += plan[:1]
    with pytest.raises(ParameterError, match=f"rounds={sim_mod.HEADER_BOUND} is outside"):
        config_for(rounds=len(plan), failure_plan=plan).resolved_plan()


def test_replay_check_flags_flipped_symbol():
    cfg = config_for(l1=1, rounds=1, failure_plan=(frozenset({1, 2}),), e1=(3,))
    trace = sim_mod.run(cfg)
    tr = trace.transcripts[0]
    (key, vals) = next(iter(tr.live_transfers.items()))
    f = __import__("coopdss.codes", fromlist=["make_scheme"]).make_scheme(cfg.params).field
    tampered_vals = (f.add(vals[0], f.one),) + vals[1:]
    tampered_transfers = dict(tr.live_transfers)
    tampered_transfers[key] = tampered_vals
    bad_tr = dataclasses.replace(tr, live_transfers=tampered_transfers)
    bad_trace = dataclasses.replace(trace, transcripts=(bad_tr,))
    ok, diffs = sim_mod.replay_check(bad_trace)
    assert not ok
    assert any("live transfer" in d for d in diffs)


# each scheme's lifetime instance of the benchmark, and the cache its
# repair reads: every round runs a plan from the process-wide plan cache
WARM_CACHE_LIFETIMES = [
    ("mbcr-exact", (6, 3, 4, 2), REPAIR_PLANS),
    ("mbcr-bivariate", (7, 3, 4, 2), REPAIR_PLANS),
    ("mscr-dk", (6, 3, 3, 3), REPAIR_PLANS),
]


@pytest.mark.parametrize("scheme,nkdt,cache", WARM_CACHE_LIFETIMES)
def test_replay_check_flags_tampering_with_warm_caches(scheme, nkdt, cache):
    n, k, d, t = nkdt
    cfg = config_for(scheme, n, k, d, t, l1=1, rounds=6, seed=5, helper_mode="random")
    trace = sim_mod.run(cfg)
    # a round's plan is evaluated (run), then built (a copy's replay), then cached
    assert sim_mod.replay_check(dataclasses.replace(trace)) == (True, [])
    hits = cache.hits
    assert sim_mod.replay_check(trace) == (True, [])
    assert cache.hits > hits  # the replay read plans cached before it
    f = make_scheme(cfg.params).field
    last = len(trace.transcripts) - 1
    tr = trace.transcripts[last]

    def replay_tampered(**fields):
        transcripts = trace.transcripts[:last] + (dataclasses.replace(tr, **fields),)
        return sim_mod.replay_check(dataclasses.replace(trace, transcripts=transcripts))

    key, vals = next(iter(tr.live_transfers.items()))
    ok, diffs = replay_tampered(live_transfers={**tr.live_transfers,
                                                key: (f.add(vals[0], f.one),) + vals[1:]})
    assert not ok and any(f"round {last}: live transfer {key} mismatch" in x for x in diffs)

    res = tr.results[0]
    flipped = dataclasses.replace(res, symbols=(f.add(res.symbols[0], f.one),) + res.symbols[1:])
    ok, diffs = replay_tampered(results=(flipped,) + tr.results[1:])
    assert not ok
    assert any(f"round {last}: result for node {res.node_id} mismatch" in x for x in diffs)


def test_lifetime_cumulative_secrecy_mscr_dk():
    # 3 rounds, E2 node kept at a stable sorted position in every failure set
    params = SchemeParams(n=4, k=2, d=2, t=2, l1=0, l2=1, scheme="mscr-dk")
    cfg = sim_mod.SimConfig(params=params, rounds=3,
                            failure_plan=(frozenset({1, 2}), frozenset({1, 3}),
                                          frozenset({1, 4})),
                            e2=(1,))
    trace = sim_mod.run(cfg)
    obs = sim_mod.observation(trace)
    assert obs.n_rows == 2 + 3 * (2 + 1)
    assert rank_leakage(obs).leakage_qunits == 0
    assert trace.final == trace.initial


def test_trace_text_roundtrip():
    cfg = config_for(scheme="mscr-dk", l2=1, rounds=2, seed=3,
                     failure_plan=(frozenset({1, 2}), frozenset({1, 3})), e2=(1,))
    trace = sim_mod.run(cfg)
    text = sim_mod.trace_to_text(trace)
    header, transfers = sim_mod.trace_transfers_from_text(text)
    assert header["scheme"] == "mscr-dk" and header["n"] == 4
    assert len(transfers) == sum(
        len(tr.live_transfers) + len(tr.coop_transfers) for tr in trace.transcripts)
    # symbols in the text match the transcripts
    f = __import__("coopdss.codes", fromlist=["make_scheme"]).make_scheme(cfg.params).field
    for round_idx, src, dst, kind, hexvals in transfers:
        tr = trace.transcripts[round_idx]
        table = tr.live_transfers if kind == "live" else tr.coop_transfers
        vals = tuple(symbol_from_bytes(f, bytes.fromhex(h)) for h in hexvals.split(":"))
        assert table[(src, dst)] == vals


def _count_repairs(monkeypatch, scheme_cls):
    calls = []
    real_repair = scheme_cls.cooperative_repair

    def counted(self, failed, survivors, helpers=None):
        calls.append(failed)
        return real_repair(self, failed, survivors, helpers)

    monkeypatch.setattr(scheme_cls, "cooperative_repair", counted)
    return calls


def test_lifetime_repairs_run_twice_per_round(monkeypatch):
    # sim.run repairs once per round and replay_check once more; trace_to_text
    # reuses the trace's replay verdict instead of replaying a third time
    from coopdss.codes import MbcrExactScheme
    calls = _count_repairs(monkeypatch, MbcrExactScheme)
    cfg = config_for(l1=1, rounds=3,
                     failure_plan=(frozenset({1, 2}), frozenset({3, 4}), frozenset({2, 3})),
                     e1=(1,))
    trace = sim_mod.run(cfg)
    ok, _ = sim_mod.replay_check(trace)
    text = sim_mod.trace_to_text(trace)
    assert ok and text.endswith("final,ok\n")
    assert sim_mod.replay_check(trace) == (ok, [])
    assert len(calls) == 2 * 3
    # without an earlier replay, trace_to_text replays by itself
    fresh = dataclasses.replace(trace)
    assert sim_mod.trace_to_text(fresh) == text
    assert len(calls) == 3 * 3


def test_one_scheme_per_trace(monkeypatch):
    # run builds the scheme; the replay, the trace text and the observation
    # read it again.  A copy made with dataclasses.replace builds its own
    # once, and replays afresh
    builds = []
    real_make = sim_mod.make_scheme

    def counted(params):
        builds.append(params)
        return real_make(params)

    monkeypatch.setattr(sim_mod, "make_scheme", counted)
    cfg = config_for(scheme="mbcr-bivariate", n=7, k=3, d=4, t=2, l1=1, l2=1, rounds=4,
                     seed=2, e1=(3,), e2=(5,), helper_mode="random",
                     failure_plan=(frozenset({5, 1}), frozenset({2, 6}),
                                   frozenset({5, 7}), frozenset({1, 4})))
    trace = sim_mod.run(cfg)
    assert sim_mod.replay_check(trace) == (True, [])
    text = sim_mod.trace_to_text(trace)
    verdict = rank_leakage(sim_mod.observation(trace))
    assert len(builds) == 1
    copy = dataclasses.replace(trace)
    assert copy._replay_verdict is None and copy._scheme is None
    assert sim_mod.trace_to_text(copy) == text and len(builds) == 2
    assert rank_leakage(sim_mod.observation(copy)) == verdict and len(builds) == 2
    assert copy._scheme is not trace._scheme and copy == trace


def test_trace_text_of_zero_rounds():
    cfg = config_for(l1=1, rounds=0, failure_plan=(), e1=(3,), seed=4)
    trace = sim_mod.run(cfg)
    text = sim_mod.trace_to_text(trace)
    assert text == "header,mbcr-exact,4,2,2,2,1,0,0,4\nfinal,ok\n"
    assert sim_mod.trace_transfers_from_text(text)[1] == []


def test_trace_text_of_tampered_copy_reports_mismatch():
    cfg = config_for(l1=1, rounds=1, failure_plan=(frozenset({1, 2}),), e1=(3,))
    trace = sim_mod.run(cfg)
    assert sim_mod.replay_check(trace)[0]
    tr = trace.transcripts[0]
    key, vals = min(tr.live_transfers.items())
    f = __import__("coopdss.codes", fromlist=["make_scheme"]).make_scheme(cfg.params).field
    live = dict(tr.live_transfers)
    live[key] = (f.add(vals[0], f.one),) + vals[1:]
    bad_trace = dataclasses.replace(
        trace, transcripts=(dataclasses.replace(tr, live_transfers=live),))
    assert sim_mod.trace_to_text(bad_trace).endswith("final,MISMATCH\n")
    assert sim_mod.trace_to_text(trace).endswith("final,ok\n")


@pytest.mark.parametrize("scheme,nkdt", [("mbcr-exact", (6, 3, 4, 2)),
                                         ("mscr-dk", (6, 3, 3, 3)),
                                         ("mbcr-bivariate", (7, 3, 4, 2))])
def test_tampered_rounds_give_the_per_record_diffs(scheme, nkdt):
    # the equality-first replay names the same records, in the same order,
    # as comparing every record: two tampered rounds, several records in the
    # first (a live and a coop transfer, a result, an extra edge)
    n, k, d, t = nkdt
    cfg = config_for(scheme, n, k, d, t, l1=1, rounds=5, seed=3, helper_mode="random")
    trace = sim_mod.run(cfg)
    assert sim_mod.replay_check(trace) == O.replay_per_record(trace) == (True, [])
    f = make_scheme(cfg.params).field
    bump = lambda vals: (f.add(vals[0], f.one),) + vals[1:]
    transcripts = list(trace.transcripts)
    for rnd in (1, 3):
        tr = transcripts[rnd]
        live = dict(tr.live_transfers)
        key = max(live)
        live[key] = bump(live[key])
        coop = {key: bump(v) for key, v in tr.coop_transfers.items()}
        coop[(0, min(tr.failed))] = (f.one,)
        res = tr.results[-1]
        results = tr.results[:-1] + (dataclasses.replace(res, symbols=bump(res.symbols)),)
        transcripts[rnd] = dataclasses.replace(tr, live_transfers=live, coop_transfers=coop,
                                               results=results)
    bad = dataclasses.replace(trace, transcripts=tuple(transcripts))
    ok, diffs = sim_mod.replay_check(bad)
    assert not ok and (ok, diffs) == O.replay_per_record(dataclasses.replace(bad))
    assert any("coop transfer" in x for x in diffs) and any("edge sets" in x for x in diffs)
    assert diffs[0].startswith("round 1: live transfer")
    # a round that matches its record but not the state it rebuilt: a
    # newcomer of round 0 starts from other content than it is repaired to
    node = min(trace.transcripts[0].failed)
    initial = tuple(dataclasses.replace(c, symbols=bump(c.symbols)) if c.node_id == node else c
                    for c in trace.initial)
    bad = dataclasses.replace(trace, initial=initial)
    ok, diffs = sim_mod.replay_check(bad)
    assert (ok, diffs) == O.replay_per_record(dataclasses.replace(bad))
    assert diffs == [f"round 0: node {node} not exactly repaired"]


def test_bandwidth_counts_the_transfers_into_the_failed_set(monkeypatch):
    # a transfer to a node outside the failed set is no download of a
    # newcomer: the round's bandwidth stays t*gamma, as RepairTranscript.downloads
    # summed over the newcomers gives
    from coopdss.codes import MscrDkScheme
    real_repair = MscrDkScheme.cooperative_repair

    def extra_edge(self, failed, survivors, helpers=None):
        tr = real_repair(self, failed, survivors, helpers)
        h = tr.helpers[0]
        return dataclasses.replace(tr, live_transfers={**tr.live_transfers, (h, h): (1,)})

    monkeypatch.setattr(MscrDkScheme, "cooperative_repair", extra_edge)
    cfg = config_for("mscr-dk", 4, 2, 2, 2, l2=1, rounds=1, failure_plan=(frozenset({1, 2}),),
                     e2=(1,))
    trace = sim_mod.run(cfg)
    tr = trace.transcripts[0]
    assert trace.bandwidth == (sum(tr.downloads(i) for i in tr.failed),) == (2 * 3,)
