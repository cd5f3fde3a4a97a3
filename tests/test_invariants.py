"""Cross-scheme invariants: observation faithfulness across many draws,
serialization determinism, and the scheme contract's shared guarantees."""

import hashlib

import pytest

from coopdss import field as F
from coopdss.codes import make_scheme, nodeio
from coopdss.codes.base import ParameterError, SchemeParams


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
        obs = scheme.observation_matrix(e1, e2, transcripts)
        plans = [(tr.failed, tr.helpers) for tr in transcripts]
        direct = scheme.observed_symbols(u, r, e1, e2, plans)
        model = [f.add(a, b) for a, b in
                 zip(obs.a_u.matvec(list(u)), obs.a_r.matvec(list(r)))]
        assert model == direct, (params.scheme, seed)


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
    blobs = []
    for scheme in (first, second):
        u, r = scheme.random_inputs(11)
        blobs.append(nodeio.write_nodes(scheme, scheme.encode(u, r)))
        # no per-instance Moore matrix: encode used the one cached for the field
        assert not any(isinstance(v, F.Matrix) for v in vars(scheme).values())
    assert F._BASIS_MOORE_CACHE[first.field][0] is F.basis_moore_matrix(second.field)
    assert blobs[0] == blobs[1]
    assert len(blobs[0]) == size
    assert hashlib.sha256(blobs[0]).hexdigest() == digest


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
