"""Cross-scheme invariants: observation faithfulness across many draws,
serialization determinism, and the scheme contract's shared guarantees."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from coopdss import field as F
from coopdss import sim as sim_mod
from coopdss.codes import make_scheme, nodeio
from coopdss.codes.base import ParameterError, SchemeParams

from oracles import a_r, a_u, linear_view


INSTANCES = [
    SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mbcr-exact"),
    SchemeParams(n=5, k=2, d=2, t=2, l1=1, scheme="mbcr-bivariate"),
    SchemeParams(n=4, k=2, d=2, t=2, l2=1, scheme="mscr-ia"),
    SchemeParams(n=4, k=2, d=2, t=2, l2=1, scheme="mscr-dk"),
]


def one_transcript(scheme, nodes, want_in_failed):
    failed = {want_in_failed}
    cursor = 1
    while len(failed) < scheme.params.t:
        if cursor not in failed:
            failed.add(cursor)
        cursor += 1
    survivors = {c.node_id: c for c in nodes if c.node_id not in failed}
    return scheme.cooperative_repair(failed, survivors)


@pytest.mark.parametrize("params", INSTANCES, ids=lambda p: p.scheme)
def test_observation_faithfulness_100_draws(params):
    scheme = make_scheme(params)
    f = scheme.field
    e1 = (3,) if params.l1 else ()
    e2 = (1,) if params.l2 else ()
    for seed in range(100):
        u, r = scheme.random_inputs(seed)
        transcripts = []
        if e2:
            nodes = scheme.encode(u, r)
            transcripts = [one_transcript(scheme, nodes, e2[0])]
        obs = linear_view(scheme.observation_matrix(e1, e2, transcripts))
        plans = [(tr.failed, tr.helpers) for tr in transcripts]
        direct = scheme.observed_symbols(u, r, e1, e2, plans)
        model = [f.add(a, b) for a, b in
                 zip(a_u(obs).matvec(list(u)), a_r(obs).matvec(list(r)))]
        assert model == direct, (params.scheme, seed)


@pytest.mark.parametrize("rounds", [1, 2])
@pytest.mark.parametrize("params", INSTANCES + [
    SchemeParams(n=3, k=2, d=2, t=1, l1=1, scheme="insecure-demo")], ids=lambda p: p.scheme)
def test_observation_labels_name_stored_symbols_and_transfers(params, rounds):
    # every label is ("stored", node, idx) or (kind, round, src, dst, idx), and
    # the download labels are exactly the symbols sent to the E2 newcomers
    scheme = make_scheme(params)
    n, t = params.n, params.t
    e1, e2 = (n,), (1,)
    plan = tuple(frozenset({1, *range(2 + rnd, 1 + rnd + t)}) for rnd in range(rounds))
    transcripts = sim_mod.run(sim_mod.SimConfig(params=params, rounds=rounds, failure_plan=plan,
                                                seed=rounds, e1=e1, e2=e2)).transcripts
    obs = scheme.observation_matrix(e1, e2, transcripts)
    u, r = scheme.random_inputs(rounds)
    plans = [(tr.failed, tr.helpers) for tr in transcripts]
    symbols = scheme.observed_symbols(u, r, e1, e2, plans)
    assert len(obs.labels) == obs.n_rows == len(symbols)
    stored = [label for label in obs.labels if label[0] == "stored"]
    assert stored == [("stored", node, idx) for node in e1 + e2 for idx in range(scheme.alpha)]
    downloads = [label for label in obs.labels if label[0] != "stored"]
    sent = set()
    for rnd, tr in enumerate(transcripts):
        for kind, transfers in (("live", tr.live_transfers), ("coop", tr.coop_transfers)):
            for (src, dst), values in transfers.items():
                if dst in e2:
                    sent |= {(kind, rnd, src, dst, idx) for idx in range(len(values))}
    for kind, rnd, src, dst, idx in downloads:
        tr = transcripts[rnd]
        transfers = tr.live_transfers if kind == "live" else tr.coop_transfers
        assert idx < len(transfers[(src, dst)])
    assert sorted(downloads) == sorted(sent)


@pytest.mark.parametrize("params", INSTANCES, ids=lambda p: p.scheme)
def test_encode_deterministic_bytes(params):
    scheme = make_scheme(params)
    u, r = scheme.random_inputs(2024)
    blob1 = nodeio.write_nodes(scheme, scheme.encode(u, r))
    scheme2 = make_scheme(params)
    blob2 = nodeio.write_nodes(scheme2, scheme2.encode(u, r))
    assert blob1 == blob2


# sha256 of write_nodes(encode(random_inputs(11))).  The mscr-dk digest was
# fixed before the Moore matrices moved to the per-field cache; the
# mbcr-exact digest was retaken when its secondary code Phi became the scaled
# Cauchy matrix of find_structure (same field GF(31^30), same size)
GOLDEN_ENCODE = [
    (SchemeParams(n=6, k=5, d=5, t=1, l1=4, scheme="mbcr-exact"), 1866,
     "a8f459767f4483848e1ed54365fa28b4bdf4488b87d09be934b4c6b480537fd1"),
    (SchemeParams(n=7, k=3, d=3, t=3, l1=1, scheme="mscr-dk"), 236,
     "74e92960f447f62cb70547eb69273deb5ff81854b139c47b90aefeef0ed952eb"),
]


@pytest.mark.parametrize("params,size,digest", GOLDEN_ENCODE,
                         ids=[p.scheme for p, _, _ in GOLDEN_ENCODE])
def test_gabidulin_schemes_share_the_field_moore_matrix(params, size, digest):
    first, second = make_scheme(params), make_scheme(params)
    assert first is not second
    assert first.field is second.field
    blobs, tables = [], []
    for scheme in (first, second):
        u, r = scheme.random_inputs(11)
        blobs.append(nodeio.write_nodes(scheme, scheme.encode(u, r)))
        # no per-instance Moore matrix: encode used the one table cached for
        # the field, which the first encode built if no earlier test had
        assert not any(isinstance(v, F.Matrix) for v in vars(scheme).values())
        tables.append(F._BASIS_MOORE_TABLES[scheme.field])
    assert tables[0] is tables[1]
    assert blobs[0] == blobs[1]
    assert len(blobs[0]) == size
    assert hashlib.sha256(blobs[0]).hexdigest() == digest


# sha256 of trace_to_text for one seeded 4-round lifetime each: traces are
# a file format, so their text must not change with the writer's code
GOLDEN_TRACE = [
    (SchemeParams(n=5, k=3, d=3, t=2, l1=1, scheme="mbcr-exact"), "random", 2471,
     "784091d5729ddaf1edcb0247bd2365864784e5c64adc32207c0732d68035f4bc"),
    (SchemeParams(n=6, k=3, d=3, t=3, l1=1, l2=1, scheme="mscr-dk"), "lowest", 2432,
     "95cc599ef67dde1b3756def965af3d673143f644625a845b48eb0adb503f6659"),
    (SchemeParams(n=5, k=3, d=3, t=2, l1=1, scheme="mbcr-bivariate"), "random", 907,
     "f318a9fb7fcd769bc5db8aac3af05e884aee01ee352a1dae789c6f2ccc52f26c"),
]


@pytest.mark.parametrize("params,helper_mode,size,digest", GOLDEN_TRACE,
                         ids=[p.scheme for p, _, _, _ in GOLDEN_TRACE])
def test_trace_text_golden(params, helper_mode, size, digest):
    config = sim_mod.SimConfig(params=params, rounds=4, seed=3, helper_mode=helper_mode)
    text = sim_mod.trace_to_text(sim_mod.run(config))
    assert len(text) == size
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# mbcr-exact (9,5,7,2) runs on GF(331^55), whose words are 64 bits wide: its
# node files and trace pin the 64-bit kernel as the goldens above pin the
# 32-bit one (digests taken with the per-digit normalisation, so they check
# the word-parallel one)
WIDE_WORD_PARAMS = SchemeParams(n=9, k=5, d=7, t=2, l1=1, scheme="mbcr-exact")


def test_wide_word_field_goldens():
    scheme = make_scheme(WIDE_WORD_PARAMS)
    assert (scheme.field.p, scheme.field.degree, scheme.field._db) == (331, 55, 64)
    blob = nodeio.write_nodes(scheme, scheme.encode(*scheme.random_inputs(11)))
    assert len(blob) == 15003
    assert hashlib.sha256(blob).hexdigest() == \
        "8706bf43f0b6a0dae04e69474eed56a4cd14795eb3a6da9ede5d3fcf98a918ff"
    config = sim_mod.SimConfig(params=WIDE_WORD_PARAMS, rounds=4, seed=3, helper_mode="lowest")
    text = sim_mod.trace_to_text(sim_mod.run(config))
    assert len(text) == 27895
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "89b7d2a29a32d40b5b3b1e712482ed54342598828c9073b773a63b063df8d5fe"


def test_params_validation():
    with pytest.raises(ParameterError):
        SchemeParams(n=4, k=3, d=2, t=2).validate()  # k > d
    with pytest.raises(ParameterError):
        SchemeParams(n=4, k=2, d=2, t=3).validate()  # t > n - d
    with pytest.raises(ParameterError):
        SchemeParams(n=4, k=2, d=2, t=2, l1=1, l2=1).validate()  # l1+l2 >= k
    SchemeParams(n=4, k=2, d=2, t=2, l1=1).validate()


def test_eavesdropper_validation():
    scheme = make_scheme(SchemeParams(n=4, k=2, d=2, t=2, l2=1, scheme="mscr-dk"))
    with pytest.raises(ParameterError):
        scheme.observation_matrix([1], [1], [])  # overlap
    with pytest.raises(ParameterError):
        scheme.observation_matrix([], [1], [])  # E2 never repaired


# a repeated helper must be refused up front: the closed-form inverses would
# raise on the repeated point, or repair wrong contents silently
@pytest.mark.parametrize("params", [
    SchemeParams(n=4, k=2, d=2, t=2, scheme="mscr-dk"),
    SchemeParams(n=5, k=2, d=2, t=2, scheme="mbcr-bivariate"),
], ids=lambda p: p.scheme)
def test_repeated_helpers_are_rejected(params):
    scheme = make_scheme(params)
    nodes = scheme.encode(*scheme.random_inputs(3))
    survivors = {c.node_id: c for c in nodes if c.node_id not in (1, 2)}
    with pytest.raises(ParameterError, match="distinct"):
        scheme.cooperative_repair({1, 2}, survivors, [3, 3])


# schemes with exact repair from any d helpers (mbcr-exact: n = d + t, so
# its helpers are all survivors, in a drawn order)
REPAIR_INSTANCES = [
    SchemeParams(n=6, k=3, d=3, t=2, l2=1, scheme="mscr-dk"),
    SchemeParams(n=7, k=2, d=2, t=3, l1=1, scheme="mscr-dk"),
    SchemeParams(n=7, k=2, d=3, t=2, l1=1, scheme="mbcr-bivariate"),
    SchemeParams(n=8, k=3, d=4, t=3, l1=1, scheme="mbcr-bivariate"),
    SchemeParams(n=6, k=2, d=4, t=2, l1=1, scheme="mbcr-exact"),
    SchemeParams(n=7, k=3, d=5, t=2, l1=2, scheme="mbcr-exact"),
]


@st.composite
def repair_plans(draw):
    params = draw(st.sampled_from(REPAIR_INSTANCES))
    ids = list(range(1, params.n + 1))
    failed = draw(st.lists(st.sampled_from(ids), min_size=params.t,
                           max_size=params.t, unique=True))
    rest = [i for i in ids if i not in failed]
    helpers = draw(st.lists(st.sampled_from(rest), min_size=params.d,
                            max_size=params.d, unique=True))
    return params, failed, helpers, draw(st.integers(0, 2 ** 16))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(repair_plans())
def test_repair_is_exact_under_random_plans(plan):
    params, failed, helpers, seed = plan
    scheme = make_scheme(params)
    nodes = {c.node_id: c for c in scheme.encode(*scheme.random_inputs(seed))}
    survivors = {i: c for i, c in nodes.items() if i not in failed}
    tr = scheme.cooperative_repair(failed, survivors, helpers)
    assert tr.helpers == tuple(sorted(helpers))
    assert sorted(res.node_id for res in tr.results) == sorted(failed)
    for res in tr.results:
        assert res == nodes[res.node_id], res.node_id
        assert tr.downloads(res.node_id) == scheme.gamma
