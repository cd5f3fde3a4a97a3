"""Secure MSCR construction for d = k (vector placement behind MRD precoding).

M = kt precoded Gabidulin evaluations are split into t vectors m_1..m_t of k
symbols; a base-field k x n Vandermonde with columns g_1..g_n spreads them:
node i stores {m_j^T g_i : j in [t]}, alpha = t.  Any k nodes invert the
Vandermonde per vector.  When the t failures are repaired, the newcomer at
sorted position s downloads the s-th stored symbol from each of d = k helpers
(one symbol, beta = 1), which pins m_s, then hands m_s^T g_{i'} to each fellow
newcomer i' (beta' = 1).  Repair never solves for m_s: the share
m_s^T g_i is g_i^T V_H^-1 applied to the k downloaded shares, with V_H the
k x k Vandermonde on the helpers' points, and g_i^T V_H^-1 is the Lagrange
row of node i's point over those points.  It depends only on which nodes
take part, so it comes from the bounded process-wide cache `lagrange_row`
(keyed by (p, helper points, node point)), and each rebuilt or sent share is
one dot: t^2 per repair.  Reconstruction solves for every m_j with the
closed-form inverse of the Vandermonde on the contacted nodes' points, from
the bounded process-wide cache `vandermonde_inverse_rows` (256 entries of
k x k GF(p) ints as tuples, keyed by (p, points)); no system is
eliminated.

The base prime is p = binomial_prime(n, kt): the least prime >= n (room for
n distinct Vandermonde points) with p = 1 mod rad(kt), and mod 4 when 4 | kt,
so GF(p^kt) has a binomial modulus.  It is next_prime(n) whenever that prime
already admits one.

Secure size: Ms = (k - l1 - l2) * max(0, t - l2); encode
refuses when it is zero (an E2 eavesdropper with l2 >= t sees every m_j).
The guarantee holds over a lifetime only while each E2 node is repaired at
one sorted position of its failure sets: at two positions it recovers two
vectors m_s and the whole secret leaks.  No fixed per-node slot avoids this
when n > t, since two nodes of one slot can fail together.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..field import (binomial_prime, ext_field, fits_word_slots, lagrange_row,
                     prime_field, vandermonde_inverse_rows)
from .base import (
    GabidulinScheme,
    NodeContent,
    ParameterError,
    PointObservation,
    PositiveSecrecyImpossibleError,
    RepairTranscript,
    SchemeParams,
)


class MscrDkScheme(GabidulinScheme):
    """MSCR code with d = k, any n >= d + t."""

    name = "mscr-dk"

    @classmethod
    def node_format(cls, params: SchemeParams) -> tuple[int, int, int, tuple[tuple[str, int], ...]]:
        params.validate()
        n, k, d, t = params.n, params.k, params.d, params.t
        if d != k:
            raise ParameterError(f"{cls.name} requires d = k")
        # the word-width cap falls as p grows: refuse at the least candidate
        # p before any primality test
        if k * t > 1 and not fits_word_slots(n, k * t):
            raise ParameterError(f"GF(p^{k * t}), p >= {n}, is too large for 64-bit digit slots")
        return binomial_prime(n, k * t), k * t, t, (("shares", t),)

    def __init__(self, params: SchemeParams):
        p, self.file_size, self.alpha, self.layout = self.node_format(params)
        n, k, t = params.n, params.k, params.t
        self.params = params
        self.beta = 1
        self.beta_prime = 1
        self.secure_size = (k - params.l1 - params.l2) * max(0, t - params.l2)

        self.base = prime_field(p)
        self.field = ext_field(p, self.file_size)
        # column g_i = (1, x, ..., x^(k-1)) at the point x = i-1 of node i
        self.g = [[pow(x, l, p) for l in range(k)] for x in range(n)]

    # -- placement ---------------------------------------------------------------

    def _share_point(self, node: int, j: int) -> list[int]:
        """Base-coordinate evaluation point of m_j^T g_node (j is 0-based)."""
        k = self.params.k
        v = [0] * self.file_size
        v[j * k:(j + 1) * k] = self.g[node - 1]
        return v

    def _stored_rows(self, node: int) -> list[list[int]]:
        return [self._share_point(node, j) for j in range(self.params.t)]

    def _share_value(self, m_vec: Sequence[int], node: int) -> int:
        return self.field.dot(self.g[node - 1], m_vec)

    def _solve_vectors(self, nodes: Sequence[int],
                       values: Sequence[Sequence[int]]) -> list[list[int]]:
        """m from the shares m^T g_i at the given nodes, one vector per
        entry of `values` (its shares in node order)."""
        dot = self.field.dot
        inv = vandermonde_inverse_rows(self.base.p, tuple(i - 1 for i in nodes))
        return [[dot(row, vals) for row in inv] for vals in values]

    def encode(self, u: Sequence[int], r: Sequence[int]) -> list[NodeContent]:
        if self.secure_size == 0:
            raise PositiveSecrecyImpossibleError(
                f"(l1,l2)=({self.params.l1},{self.params.l2}) leaves no secure symbols "
                f"(l2 >= t)")
        self._check_inputs(u, r)
        x = self._precode(u, r)
        k, t = self.params.k, self.params.t
        m_vecs = [x[j * k:(j + 1) * k] for j in range(t)]
        return [
            NodeContent(i, tuple(self._share_value(m_vecs[j], i) for j in range(t)),
                        self.layout)
            for i in range(1, self.params.n + 1)
        ]

    def reconstruct(self, contents: Sequence[NodeContent]) -> tuple[int, ...]:
        k, t = self.params.k, self.params.t
        by_id = {c.node_id: c for c in contents}
        if len(by_id) < k:
            raise ParameterError(f"need k={k} distinct nodes, got {len(by_id)}")
        ids = sorted(by_id)[:k]
        m_vecs = self._solve_vectors(ids, [[by_id[i].symbols[j] for i in ids]
                                           for j in range(t)])
        return self._secret_from_evaluations([sym for m in m_vecs for sym in m])

    # -- repair --------------------------------------------------------------------

    def cooperative_repair(self, failed: Iterable[int],
                           survivors: Mapping[int, NodeContent],
                           helpers: Sequence[int] | None = None) -> RepairTranscript:
        dot = self.field.dot
        failed = self._validate_failed(failed, survivors)
        helpers = self._pick_helpers(failed, survivors, helpers)
        order = sorted(failed)
        live: dict[tuple[int, int], tuple[int, ...]] = {}
        coop: dict[tuple[int, int], tuple[int, ...]] = {}
        downloads = []
        for s, i in enumerate(order):
            vals = [survivors[h].symbols[s] for h in helpers]
            for h, v in zip(helpers, vals):
                live[(h, i)] = (v,)
            downloads.append(vals)
        points = tuple(h - 1 for h in helpers)
        results = []
        for s, i in enumerate(order):
            # m_s^T g_i for every s: the Lagrange row of node i's point over
            # the helpers' points is g_i^T V_H^-1, so it maps the shares
            # m_s^T g_h that newcomer s downloaded to m_s^T g_i in one dot
            row = lagrange_row(self.base.p, points, i - 1)
            shares = tuple(dot(row, vals) for vals in downloads)
            for s2, peer in enumerate(order):
                if peer != i:
                    coop[(peer, i)] = (shares[s2],)
            results.append(NodeContent(i, shares, self.layout))
        return RepairTranscript(failed=failed, helpers=helpers,
                                live_transfers=live, coop_transfers=coop,
                                results=tuple(results))

    # -- observation ------------------------------------------------------------------

    def _download_rows(self, tr: RepairTranscript, newcomer: int) -> list[list[int]]:
        order = sorted(tr.failed)
        s = order.index(newcomer)
        rows = [self._share_point(h, s) for h in tr.helpers]
        for s2, peer in enumerate(order):
            if peer != newcomer:
                rows.append(self._share_point(newcomer, s2))
        return rows

    def observation_matrix(self, e1: Iterable[int], e2: Iterable[int],
                           transcripts: Sequence[RepairTranscript] = ()) -> PointObservation:
        return self._point_observation(e1, e2, transcripts)
