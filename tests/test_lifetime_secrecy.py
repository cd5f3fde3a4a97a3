"""Lifetime secrecy sweep: for every E1 and E2 choice, every plan of up to
three rounds whose failure sets all contain the E2 nodes, and both helper
modes where a scheme leaves the helpers to choose, the cumulative view
leaks nothing, except where mscr-dk's known limit says it must.

Exact repair restores every node, so a round's transcript depends only on
its failure set and its helpers: each is computed once, from the initial
contents, and shared by every plan that repeats it."""

import itertools

import pytest

from coopdss import sim as sim_mod
from coopdss.cli import main
from coopdss.codes import make_scheme
from coopdss.codes.base import SchemeParams
from coopdss.secrecy import rank_leakage

INSTANCES = [
    SchemeParams(n=4, k=2, d=2, t=2, l2=1, scheme="mscr-ia"),
    SchemeParams(n=5, k=2, d=3, t=2, l2=1, scheme="mscr-ia"),
    SchemeParams(n=5, k=2, d=3, t=2, l2=1, scheme="mbcr-exact"),
    SchemeParams(n=6, k=2, d=3, t=2, l2=1, scheme="mbcr-bivariate"),
    SchemeParams(n=5, k=3, d=3, t=2, l1=1, l2=1, scheme="mscr-dk"),
    SchemeParams(n=4, k=2, d=2, t=2, l2=1, scheme="mscr-dk"),
]
MAX_ROUNDS = 3


def lifetime_leakages(params):
    """(e1, e2, helper mode, plan, leakage) for every view the sweep covers."""
    scheme = make_scheme(params)
    u, r = scheme.random_inputs(1)
    nodes = {c.node_id: c for c in scheme.encode(u, r)}
    ids = range(1, params.n + 1)
    modes = ("lowest", "random") if params.n - params.t > params.d else ("lowest",)
    transcripts = {}
    for e2 in itertools.combinations(ids, params.l2):
        sets = [fs for fs in itertools.combinations(ids, params.t) if set(e2) <= set(fs)]
        e1s = list(itertools.combinations([v for v in ids if v not in e2], params.l1))
        for mode in modes:
            config = sim_mod.SimConfig(params=params, rounds=1, helper_mode=mode)
            for rounds in range(1, MAX_ROUNDS + 1):
                for plan in itertools.product(sets, repeat=rounds):
                    trs = []
                    for idx, fs in enumerate(plan):
                        survivors = {i: c for i, c in nodes.items() if i not in fs}
                        helpers = sim_mod._choose_helpers(scheme, survivors, idx, config)
                        if (fs, helpers) not in transcripts:
                            transcripts[(fs, helpers)] = scheme.cooperative_repair(
                                fs, survivors, helpers)
                        trs.append(transcripts[(fs, helpers)])
                    for e1 in e1s:
                        obs = scheme.observation_matrix(e1, e2, trs)
                        yield e1, e2, mode, plan, rank_leakage(obs).leakage_qunits


def mscr_dk_leaks(e2, plan):
    """mscr-dk's newcomer at sorted position s recovers the vector m_s, so an
    E2 node repaired at two positions sees two of the t vectors."""
    return any(len({sorted(fs).index(e) for fs in plan}) > 1 for e in e2)


@pytest.mark.parametrize("params", INSTANCES,
                         ids=[f"{p.scheme}-n{p.n}-k{p.k}-l{p.l1}{p.l2}" for p in INSTANCES])
def test_lifetime_secrecy_sweep(params):
    ms = make_scheme(params).secure_size
    views = leaking = 0
    for e1, e2, mode, plan, leakage in lifetime_leakages(params):
        expect_leak = params.scheme == "mscr-dk" and mscr_dk_leaks(e2, plan)
        # a leak gives away the whole secret
        assert leakage == (ms if expect_leak else 0), (e1, e2, mode, plan)
        views += 1
        leaking += expect_leak
    assert views > 100
    assert (leaking > 0) == (params.scheme == "mscr-dk")


def test_mscr_dk_leak_reproduction(capsys):
    # E2 node 2 is repaired second in {1,2}, then first in {2,3}: leakage 1 = Ms
    code = main(["verify-secrecy", "--scheme", "mscr-dk", "--n", "4", "--k", "2", "--d", "2",
                 "--t", "2", "--l2", "1", "--e2", "2", "--plan", "1,2;2,3"])
    assert code == 1
    assert "leakage_qunits=1 " in capsys.readouterr().out
