"""Secure MSCR construction for d = k (vector placement behind MRD precoding).

M = kt precoded Gabidulin evaluations are split into t vectors m_1..m_t of k
symbols; a base-field k x n Vandermonde with columns g_1..g_n spreads them:
node i stores {m_j^T g_i : j in [t]}, alpha = t.  Any k nodes invert the
Vandermonde per vector.  When the t failures are repaired, the newcomer at
sorted position s downloads the s-th stored symbol from each of d = k helpers
(one symbol, beta = 1), solves m_s, then hands m_s^T g_{i'} to each fellow
newcomer i' (beta' = 1).

Secure size: Ms = (k - l1 - l2) * max(0, t - l2); encode
refuses when it is zero (an E2 eavesdropper with l2 >= t sees every m_j).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..field import Matrix, _is_prime, ext_field, prime_field
from .base import (
    GabidulinScheme,
    NodeContent,
    ObservationMatrix,
    ParameterError,
    PositiveSecrecyImpossibleError,
    RepairTranscript,
    SchemeParams,
)


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


class MscrDkScheme(GabidulinScheme):
    """MSCR code with d = k, any n >= d + t."""

    name = "mscr-dk"

    def __init__(self, params: SchemeParams):
        params.validate()
        n, k, d, t = params.n, params.k, params.d, params.t
        if d != k:
            raise ParameterError(f"{self.name} requires d = k")
        self.params = params
        self.file_size = k * t
        self.alpha = t
        self.beta = 1
        self.beta_prime = 1
        self.secure_size = (k - params.l1 - params.l2) * max(0, t - params.l2)

        p = _next_prime(n)
        self.base = prime_field(p)
        self.field = ext_field(p, self.file_size)
        self.vand = [[pow(x, i, p) for x in range(n)] for i in range(k)]  # k x n
        self.layout = (("shares", t),)

    # -- placement ---------------------------------------------------------------

    def _share_point(self, node: int, j: int) -> list[int]:
        """Base-coordinate evaluation point of m_j^T g_node (j is 0-based)."""
        k = self.params.k
        v = [0] * self.file_size
        for l in range(k):
            v[j * k + l] = self.vand[l][node - 1]
        return v

    def stored_points(self, node: int) -> list[list[int]]:
        return [self._share_point(node, j) for j in range(self.params.t)]

    def _share_value(self, m_vec: Sequence[int], node: int) -> int:
        f = self.field
        acc = f.zero
        for l, sym in enumerate(m_vec):
            acc = f.add(acc, f.scalar_mul(self.vand[l][node - 1], sym))
        return acc

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
        f = self.field
        by_id = {c.node_id: c for c in contents}
        if len(by_id) < k:
            raise ParameterError(f"need k={k} distinct nodes, got {len(by_id)}")
        ids = sorted(by_id)[:k]
        system = Matrix(f, [[f.element(self.vand[l][i - 1]) for l in range(k)]
                            for i in ids])
        x = []
        for j in range(t):
            vals = [by_id[i].symbols[j] for i in ids]
            x.extend(system.solve(vals))
        return self._secret_from_evaluations(x)

    # -- repair --------------------------------------------------------------------

    def cooperative_repair(self, failed: Iterable[int],
                           survivors: Mapping[int, NodeContent],
                           helpers: Sequence[int] | None = None) -> RepairTranscript:
        f = self.field
        k = self.params.k
        failed = self._validate_failed(failed, survivors)
        helpers = self._pick_helpers(failed, survivors, helpers)
        order = sorted(failed)
        live: dict[tuple[int, int], tuple[int, ...]] = {}
        coop: dict[tuple[int, int], tuple[int, ...]] = {}
        system = Matrix(f, [[f.element(self.vand[l][h - 1]) for l in range(k)]
                            for h in helpers])
        m_vecs: dict[int, list[int]] = {}
        for s, i in enumerate(order):
            vals = [survivors[h].symbols[s] for h in helpers]
            for h, v in zip(helpers, vals):
                live[(h, i)] = (v,)
            m_vecs[i] = system.solve(vals)
        results = []
        for s, i in enumerate(order):
            shares = [f.zero] * self.params.t
            shares[s] = self._share_value(m_vecs[i], i)
            for s2, peer in enumerate(order):
                if peer == i:
                    continue
                val = self._share_value(m_vecs[peer], i)
                coop[(peer, i)] = (val,)
                shares[s2] = val
            results.append(NodeContent(i, tuple(shares), self.layout))
        return RepairTranscript(failed=failed, helpers=helpers,
                                live_transfers=live, coop_transfers=coop,
                                results=tuple(results))

    # -- observation ------------------------------------------------------------------

    def _download_points(self, tr: RepairTranscript,
                         newcomer: int) -> list[tuple[tuple, list[int]]]:
        order = sorted(tr.failed)
        s = order.index(newcomer)
        out = []
        for h in tr.helpers:
            out.append((("live", h, newcomer), self._share_point(h, s)))
        for peer in order:
            if peer == newcomer:
                continue
            s2 = order.index(peer)
            out.append((("coop", peer, newcomer), self._share_point(newcomer, s2)))
        return out

    def observation_matrix(self, e1: Iterable[int], e2: Iterable[int],
                           transcripts: Sequence[RepairTranscript] = ()) -> ObservationMatrix:
        return self._point_observation(e1, e2, transcripts)
