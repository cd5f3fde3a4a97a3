"""Shared sweep helpers and oracles for the test modules."""

import itertools

from coopdss.secrecy import rank_leakage

from oracles import a_r, a_u, linear_view, power


def sweep_reconstruct(scheme, nodes, u):
    n, k = scheme.params.n, scheme.params.k
    for ids in itertools.combinations(range(1, n + 1), k):
        assert scheme.reconstruct([nodes[i - 1] for i in ids]) == u, ids


def sweep_repair(scheme, nodes):
    n, t = scheme.params.n, scheme.params.t
    for failed in itertools.combinations(range(1, n + 1), t):
        survivors = {c.node_id: c for c in nodes if c.node_id not in failed}
        tr = scheme.cooperative_repair(failed, survivors)
        for res in tr.results:
            assert res == nodes[res.node_id - 1], (failed, res.node_id)
        for i in failed:
            assert tr.downloads(i) == scheme.gamma, (failed, i)
        live_per_edge = {key: len(v) for key, v in tr.live_transfers.items()}
        assert all(cnt == scheme.beta for cnt in live_per_edge.values())
        assert all(len(v) == scheme.beta_prime for v in tr.coop_transfers.values())


def leakage_of(scheme, e1, e2=(), transcripts=()):
    return rank_leakage(scheme.observation_matrix(e1, e2, transcripts))


def check_faithful(scheme, u, r, e1, e2=(), transcripts=()):
    """Stacked protocol symbols must equal A_u u + A_r r."""
    f = scheme.field
    obs = linear_view(scheme.observation_matrix(e1, e2, transcripts))
    plans = [(tr.failed, tr.helpers) for tr in transcripts]
    direct = scheme.observed_symbols(u, r, e1, e2, plans)
    model = [f.add(a, b) for a, b in
             zip(a_u(obs).matvec(list(u)), a_r(obs).matvec(list(r)))]
    assert model == direct


def linearized_eval(field, coeffs, g):
    """sum_i coeffs[i] * g^(p^i), term by term with `oracles.power`.

    Oracle for the Gabidulin precoding: independent of frobenius_powers,
    Matrix.matvec and the per-field Moore cache that the schemes run on.
    """
    acc = field.zero
    for i, c in enumerate(coeffs):
        acc = field.add(acc, field.mul(c, power(field, g, field.char ** i)))
    return acc


def elem_from_int(field, i):
    """The element whose coordinates are the base-p digits of i, coordinate
    0 lowest: the canonical int encoding, for drawing and enumerating
    elements in tests."""
    coords = []
    for _ in range(field.degree):
        i, c = divmod(i, field.char)
        coords.append(c)
    return field.from_coords(coords)


def elem_to_int(field, a):
    """Inverse of `elem_from_int`."""
    v = 0
    for c in reversed(field.coords(a)):
        v = v * field.char + c
    return v


def symbol_from_bytes(field, raw):
    """The single symbol that `raw` encodes; ValueError unless it is one."""
    [a] = field.symbols_from_bytes(raw)
    return a
