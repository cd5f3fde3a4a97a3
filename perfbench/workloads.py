"""The three workloads: fixed instance lists, set-up, seeded passes, checks.

A workload's set-up builds every scheme instance it uses and runs one untimed
warm-up op per instance, which fills lazy state such as the cached inverse
Moore matrix.  `make_pass` turns the seed into a fixed, seed-ordered list of
ops; a run repeats that list a whole number of times, so the op mix is the
same in every run and on every seed.

Every op returns its outputs and has a check that raises `CheckFailed` on a
wrong answer.  Gabidulin verdicts (mbcr-exact, mscr-dk) carry a base-field
cross-check that runs once per op after the timed phase.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from coopdss import bounds, secrecy, sim
from coopdss.codes import make_scheme, nodeio
from coopdss.codes.base import SchemeParams

WORKLOADS = ("sweep", "datapath", "lifetime")

LIFETIME_ROUNDS = 10
# seeded lifetimes per instance in a pass; several, so that one seed's
# placements and failure plans weigh less in the run's figures
LIFETIMES_PER_INSTANCE = 4

# (scheme, n, k, d, t, l1) for the storage data path
DATAPATH_INSTANCES = (
    ("mbcr-exact", 5, 3, 3, 2, 1),      # GF(31^15)
    ("mbcr-exact", 6, 5, 5, 1, 1),      # GF(31^30)
    ("mscr-dk", 7, 3, 3, 3, 1),         # GF(7^9)
    ("mbcr-bivariate", 8, 3, 4, 2, 1),  # GF(11)
    ("mscr-ia", 5, 2, 3, 2, 1),         # GF(11)
)

# (scheme, n, k, d, t, l1, l2, helper mode) for lifetimes
LIFETIME_INSTANCES = (
    ("mscr-dk", 6, 3, 3, 3, 1, 1, "random"),
    ("mbcr-bivariate", 7, 3, 4, 2, 1, 1, "random"),
    ("mbcr-exact", 6, 3, 4, 2, 1, 1, "lowest"),
)

GABIDULIN = ("mbcr-exact", "mscr-dk")


class CheckFailed(Exception):
    """An op's output is wrong."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    crosscheck: Callable[[object], None] | None = None
    sub_kinds: dict = field(default_factory=dict)


def _params(scheme, n, k, d, t, l1=0, l2=0) -> SchemeParams:
    return SchemeParams(n=n, k=k, d=d, t=t, l1=l1, l2=l2, scheme=scheme)


def _random_symbols(rng: random.Random, f, count: int) -> tuple[int, ...]:
    return tuple(f.from_coords([rng.randrange(f.char) for _ in range(f.degree)])
                 for _ in range(count))


def _random_inputs(rng: random.Random, scheme):
    return (_random_symbols(rng, scheme.field, scheme.secure_size),
            _random_symbols(rng, scheme.field, scheme.n_random))


# ---------------------------------------------------------------------------
# sweep: secrecy verdicts
# ---------------------------------------------------------------------------

def _sweep_params() -> list[tuple[SchemeParams, bool]]:
    """(params, brute-force oracle) for every sweep instance."""
    out = []
    # acceptance criterion 2 grid; l1 = 0 observes nothing, so it has no verdict
    for n in (4, 5, 6):
        for t in (1, 2, 3):
            d = n - t
            for k in range(1, d + 1):
                for l1 in range(1, k):
                    out.append((_params("mbcr-exact", n, k, d, t, l1), False))
    # criterion 5 grid (d = k) with an eavesdropper and a positive secure size
    for k in (2, 3):
        for t in (2, 3):
            for l1 in range(k):
                for l2 in range(k - l1):
                    if l1 + l2 and (k - l1 - l2) * max(0, t - l2):
                        out.append((_params("mscr-dk", k + t, k, k, t, l1, l2), False))
    for n, k, d, t in ((5, 2, 2, 2), (6, 2, 3, 2)):  # criterion 3 sets
        out.append((_params("mbcr-bivariate", n, k, d, t, 1), False))
    for n in (4, 5):
        out.append((_params("mscr-ia", n, 2, n - 2, 2, 1), True))
    out.append((_params("insecure-demo", 3, 2, 2, 1, 1), True))
    return out


def _secure_size_bound(scheme) -> int | None:
    p = scheme.params
    if scheme.name in ("mbcr-exact", "mbcr-bivariate"):
        return bounds.mbcr_secure_bound(p.k, p.d, p.t, p.l1 + p.l2)
    if scheme.name == "mscr-dk":
        expect(scheme.secure_size <= bounds.mscr_secure_bound(p.k, p.d, p.t, p.l1, p.l2),
               "mscr-dk secure size above the MSCR bound")
        return bounds.mscr_dk_achievable(p.k, p.t, p.l1, p.l2)
    if scheme.name == "mscr-ia":
        return bounds.mscr_secure_bound(p.k, p.d, p.t, p.l1, p.l2)
    return None


def _verdict_tuple(v):
    return (v.leakage_qunits, v.lemma_cond_entropy_ok, v.lemma_recoverable_ok)


def _base_field_crosscheck(scheme, e1, e2, transcripts):
    """leakage == max(0, rho - |r|) with rho the GF(p) rank of the points."""
    def crosscheck(verdict):
        rho = scheme.observation_point_matrix(e1, e2, transcripts).rank()
        expect(verdict.leakage_qunits == max(0, rho - scheme.n_random),
               f"base-field rank {rho} disagrees with leakage {verdict.leakage_qunits}")
    return crosscheck


def _verdict_op(scheme, oracle, e1, e2=(), transcripts=()) -> Op:
    """A rank verdict.  On oracle instances the check also runs the brute-force
    oracle, timed as the sub-kind `oracle`: it is a check, and its numpy
    enumeration is memory-bound, so the host slows it by another factor than
    the op (see README, *Reference speed*)."""
    expected = 1 if scheme.name == "insecure-demo" else 0
    sub = {}

    def run():
        return secrecy.rank_leakage(scheme.observation_matrix(e1, e2, transcripts))

    def check(v):
        expect(v.leakage_qunits == expected,
               f"leakage {v.leakage_qunits}, expected {expected}")
        if oracle:
            started = time.perf_counter()
            bf = secrecy.brute_force_leakage(scheme, e1, e2, transcripts)
            sub["oracle"] = time.perf_counter() - started
            expect(_verdict_tuple(bf) == _verdict_tuple(v), "brute force disagrees with rank")
        bound = _secure_size_bound(scheme)
        expect(bound is None or bound == scheme.secure_size,
               f"secure size {scheme.secure_size} != closed form {bound}")

    p = scheme.params
    label = f"{scheme.name}({p.n},{p.k},{p.d},{p.t};{p.l1},{p.l2}) e1={e1} e2={e2}"
    cross = None
    if scheme.name in GABIDULIN:
        cross = _base_field_crosscheck(scheme, e1, e2, transcripts)
    return Op("verdict", label, run, check, cross, sub)


def _sweep_pass(instances, rng: random.Random) -> list[Op]:
    ops = []
    for scheme, oracle in instances:
        p = scheme.params
        nodes = list(range(1, p.n + 1))
        if oracle:  # every E1 placement through the brute-force oracle
            if scheme.name == "insecure-demo":
                ops.append(_verdict_op(scheme, oracle, (1,)))  # node 1 stores u itself
            else:
                ops.extend(_verdict_op(scheme, oracle, (e,)) for e in nodes)
            continue
        e2 = tuple(sorted(rng.sample(nodes, p.l2)))
        rest = [i for i in nodes if i not in e2]
        e1 = tuple(sorted(rng.sample(rest, p.l1)))
        transcripts = ()
        if e2:  # one repair round in which every E2 node is a newcomer
            pool = [i for i in rest if i not in e1]
            failed = frozenset(e2) | frozenset(rng.sample(pool, p.t - len(e2)))
            contents = scheme.encode(*_random_inputs(rng, scheme))
            survivors = {c.node_id: c for c in contents if c.node_id not in failed}
            helpers = sorted(rng.sample(sorted(survivors), p.d))
            transcripts = (scheme.cooperative_repair(failed, survivors, helpers),)
        ops.append(_verdict_op(scheme, oracle, e1, e2, transcripts))
    rng.shuffle(ops)
    return ops


def _sweep_instance(params: SchemeParams, oracle: bool):
    scheme = make_scheme(params)
    secrecy.rank_leakage(scheme.observation_matrix(range(1, params.l1 + 1), ()))
    return scheme, oracle


def _sweep_setup():
    return [partial(_sweep_instance, params, oracle) for params, oracle in _sweep_params()]


# ---------------------------------------------------------------------------
# datapath: encode, reconstruct and repair through node files
# ---------------------------------------------------------------------------

def _built_and_warm(params: SchemeParams):
    """The scheme, after one encode and reconstruct (fills the cached inverse)."""
    scheme = make_scheme(params)
    scheme.reconstruct(scheme.encode(*scheme.random_inputs(0)))
    return scheme


def _datapath_setup():
    return [partial(_built_and_warm, _params(*spec)) for spec in DATAPATH_INSTANCES]


def _read(blobs):
    contents = []
    for blob in blobs:
        contents.extend(nodeio.read_nodes(blob)[1])
    return contents


def _datapath_ops(scheme, rng: random.Random) -> list[Op]:
    p = scheme.params
    u, r = _random_inputs(rng, scheme)
    ref = [nodeio.write_nodes(scheme, [c]) for c in scheme.encode(u, r)]
    expect(scheme.reconstruct(_read(ref)) == u, "reference node files do not decode")
    name = f"{scheme.name}({p.n},{p.k},{p.d},{p.t})"

    def encode():
        return [nodeio.write_nodes(scheme, [c]) for c in scheme.encode(u, r)]

    def check_encode(blobs):
        expect(blobs == ref, "encoded node files differ from the reference")

    def reconstruct_from(ids):
        blobs = [ref[i - 1] for i in ids]
        return lambda: scheme.reconstruct(_read(blobs))

    def check_secret(secret):
        expect(tuple(secret) == u, "reconstructed secret differs from u")

    subset = sorted(rng.sample(range(1, p.n + 1), p.k))
    failed = frozenset(rng.sample(range(1, p.n + 1), p.t))
    survivor_ids = [i for i in range(1, p.n + 1) if i not in failed]
    helpers = None
    if len(survivor_ids) > p.d:
        helpers = sorted(rng.sample(survivor_ids, p.d))

    def repair():
        survivors = {c.node_id: c for c in _read([ref[i - 1] for i in survivor_ids])}
        tr = scheme.cooperative_repair(failed, survivors, helpers)
        return tr, {c.node_id: nodeio.write_nodes(scheme, [c]) for c in tr.results}

    def check_repair(result):
        tr, written = result
        expect(sorted(written) == sorted(failed), "repair did not return every failed node")
        for i, blob in written.items():
            expect(blob == ref[i - 1], f"repaired node {i} differs from its original file")
            expect(tr.downloads(i) == scheme.gamma,
                   f"node {i} downloaded {tr.downloads(i)} symbols, gamma={scheme.gamma}")

    return [
        Op("encode", f"{name} encode", encode, check_encode),
        Op("reconstruct", f"{name} reconstruct {subset}", reconstruct_from(subset), check_secret),
        Op("reconstruct", f"{name} reconstruct all", reconstruct_from(range(1, p.n + 1)),
           check_secret),
        Op("repair", f"{name} repair {sorted(failed)} helpers={helpers}", repair, check_repair),
    ]


def _datapath_pass(instances, rng: random.Random) -> list[Op]:
    ops = [op for scheme in instances for op in _datapath_ops(scheme, rng)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# lifetime: multi-round simulation, replay, trace text and lifetime verdict
# ---------------------------------------------------------------------------

def _lifetime_instance(spec):
    return _built_and_warm(_params(*spec[:-1])), spec[-1]


def _lifetime_setup():
    return [partial(_lifetime_instance, spec) for spec in LIFETIME_INSTANCES]


def _failure_plan(scheme, e1, e2, rng: random.Random):
    """Seeded failure sets.  E2 nodes fail in a fixed number of rounds, so the
    lifetime observation has the same size on every seed."""
    p = scheme.params
    nodes = list(range(1, p.n + 1))
    if scheme.name == "mscr-dk":
        # E2 nodes lead every failure set, so their vector slots stay fixed
        pool = [i for i in nodes if i not in e1 and i not in e2]
        return tuple(frozenset(e2) | frozenset(rng.sample(pool, p.t - len(e2)))
                     for _ in range(LIFETIME_ROUNDS))
    e2_rounds = set(rng.sample(range(LIFETIME_ROUNDS), LIFETIME_ROUNDS // 2))
    others = [i for i in nodes if i not in e2]
    return tuple(frozenset(e2) | frozenset(rng.sample(others, p.t - len(e2)))
                 if idx in e2_rounds else frozenset(rng.sample(others, p.t))
                 for idx in range(LIFETIME_ROUNDS))


def _lifetime_op(scheme, mode, rng: random.Random) -> Op:
    p = scheme.params
    nodes = list(range(1, p.n + 1))
    if scheme.name == "mscr-dk":
        e2 = tuple(range(1, p.l2 + 1))
    else:
        e2 = tuple(sorted(rng.sample(nodes, p.l2)))
    e1 = tuple(sorted(rng.sample([i for i in nodes if i not in e2], p.l1)))
    config = sim.SimConfig(
        params=p, rounds=LIFETIME_ROUNDS, failure_plan=_failure_plan(scheme, e1, e2, rng),
        seed=rng.getrandbits(32), e1=e1, e2=e2,
        secret=_random_symbols(rng, scheme.field, scheme.secure_size), helper_mode=mode)
    sub = {}

    def run():
        trace = sim.run(config)
        replay = sim.replay_check(trace)
        text = sim.trace_to_text(trace)
        parsed = sim.trace_transfers_from_text(text)
        started = time.perf_counter()
        verdict = secrecy.rank_leakage(sim.observation(trace))
        sub["verdict"] = time.perf_counter() - started
        return trace, replay, text, parsed, verdict

    def check(result):
        trace, (ok, diffs), text, (header, transfers), verdict = result
        expect(ok, f"replay_check failed: {diffs[:2]}")
        expect(trace.final == trace.initial, "final node contents differ from the initial ones")
        expect(all(bw == p.t * scheme.gamma for bw in trace.bandwidth),
               "a round's bandwidth differs from t*gamma")
        expect(text.endswith("final,ok\n"), "trace text does not end in final,ok")
        expect((header["scheme"], header["n"], header["k"], header["d"], header["t"],
                header["rounds"]) == (p.scheme, p.n, p.k, p.d, p.t, LIFETIME_ROUNDS),
               "trace header does not round-trip")
        edges = sum(len(tr.live_transfers) + len(tr.coop_transfers)
                    for tr in trace.transcripts)
        expect(len(transfers) == edges, "parsed transfer count differs from the transcripts")
        expect(verdict.leakage_qunits == 0, f"lifetime leakage {verdict.leakage_qunits}")

    cross = None
    if scheme.name in GABIDULIN:
        def cross(result):
            trace, verdict = result[0], result[4]
            _base_field_crosscheck(scheme, e1, e2, trace.transcripts)(verdict)
    label = f"{scheme.name}({p.n},{p.k},{p.d},{p.t}) e1={e1} e2={e2} helpers={mode}"
    return Op("lifetime", label, run, check, cross, sub)


def _lifetime_pass(instances, rng: random.Random) -> list[Op]:
    ops = [_lifetime_op(scheme, mode, rng) for scheme, mode in instances
           for _ in range(LIFETIMES_PER_INSTANCE)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------

_SETUP = {"sweep": _sweep_setup, "datapath": _datapath_setup, "lifetime": _lifetime_setup}
_PASS = {"sweep": _sweep_pass, "datapath": _datapath_pass, "lifetime": _lifetime_pass}


def setup_steps(workload: str) -> list[Callable[[], object]]:
    """One call per scheme instance of the workload, which builds and warms
    it up and returns it."""
    return _SETUP[workload]()


def setup(workload: str) -> list:
    """Build every scheme instance of the workload and warm each one up."""
    return [step() for step in setup_steps(workload)]


def make_pass(workload: str, instances, seed: int) -> list[Op]:
    """The seed-ordered op list that every pass of a run repeats."""
    return _PASS[workload](instances, random.Random(seed))
