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
row of node i's point over those points (from the bounded process-wide
cache `lagrange_row`, keyed by (p, helper points, node point)).  The round
runs as a repair plan (`_repair_plan`, see `Scheme._run_plan`): the
downloads are slot references with no step, and each rebuilt or sent share
is one step, the dot of a Lagrange row with k slots: t^2 per repair.  Encoding and reconstruction are plans too (see `Scheme._run_plan`):
node i's share of m_j is one step, g_i over m_j's k evaluations, and
reconstruction solves for every m_j with the closed-form inverse of the
Vandermonde on the contacted nodes' points, one step per symbol, from the
bounded process-wide cache `vandermonde_inverse_rows` (256 entries of k x k
GF(p) ints as tuples, keyed by (p, points)); no system is eliminated.  The
decoder then applies only the u rows of the inverse Moore map.

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
    PlanBuilder,
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
        self.g = [tuple(pow(x, l, p) for l in range(k)) for x in range(n)]

    # -- placement ---------------------------------------------------------------

    def _share_point(self, node: int, j: int) -> list[int]:
        """Base-coordinate evaluation point of m_j^T g_node (j is 0-based)."""
        k = self.params.k
        v = [0] * self.file_size
        v[j * k:(j + 1) * k] = self.g[node - 1]
        return v

    def _stored_rows(self, node: int) -> list[list[int]]:
        return [self._share_point(node, j) for j in range(self.params.t)]

    def encode(self, u: Sequence[int], r: Sequence[int]) -> list[NodeContent]:
        if self.secure_size == 0:
            raise PositiveSecrecyImpossibleError(
                f"(l1,l2)=({self.params.l1},{self.params.l2}) leaves no secure symbols "
                f"(l2 >= t)")
        self._check_inputs(u, r)
        return self._encode_nodes(self._precode(u, r))

    def _encode_plan(self, b=None):
        """Node i's share of m_j is g_i over m_j's k slots: one step each."""
        k, t = self.params.k, self.params.t
        b = b or PlanBuilder(self.alpha, self.field)
        x = tuple(b.symbol(0, j) for j in range(self.file_size))
        m = [x[j * k:(j + 1) * k] for j in range(t)]
        return b.plan((i, [b.step(self.g[i - 1], m[j]) for j in range(t)])
                      for i in range(1, self.params.n + 1))

    def reconstruct(self, contents: Sequence[NodeContent]) -> tuple[int, ...]:
        return self._secret_from_evaluations(self._decode(contents))

    def _reconstruct_plan(self, ids: tuple[int, ...], b=None):
        """Each m_j from the nodes' shares of it, by the inverse Vandermonde
        on their points: one step per symbol of m_j."""
        inv = vandermonde_inverse_rows(self.base.p, tuple(i - 1 for i in ids))
        b = b or PlanBuilder(self.file_size, self.field)
        shares = [tuple(b.symbol(i, j) for i in ids) for j in range(self.params.t)]
        return b.plan([(0, [b.step(row, vals) for vals in shares for row in inv])])

    # -- repair --------------------------------------------------------------------

    def cooperative_repair(self, failed: Iterable[int],
                           survivors: Mapping[int, NodeContent],
                           helpers: Sequence[int] | None = None) -> RepairTranscript:
        return self._repair(failed, survivors, helpers)

    def _repair_plan(self, failed: frozenset[int], helpers: tuple[int, ...], b=None):
        """The newcomer at sorted position s downloads each helper's share
        s, verbatim.  Its Lagrange row over the helpers' points maps the
        shares of every vector m_s2 to m_s2^T g_i, one step each: its own
        symbol s2, and what the newcomer at s2 sends it."""
        order = sorted(failed)
        points = tuple(h - 1 for h in helpers)
        b = b or PlanBuilder(self.alpha, self.field)
        downloads = []
        for s, i in enumerate(order):
            got = [b.symbol(h, s) for h in helpers]
            for h, slot in zip(helpers, got):
                b.live[(h, i)] = [slot]
            downloads.append(got)
        results = []
        for i in order:
            row = lagrange_row(self.base.p, points, i - 1)
            shares = [b.step(row, got) for got in downloads]
            for s2, peer in enumerate(order):
                if peer != i:
                    b.coop[(peer, i)] = [shares[s2]]
            results.append((i, shares))
        return b.plan(results)

    # -- observation ------------------------------------------------------------------

    def observation_matrix(self, e1: Iterable[int], e2: Iterable[int],
                           transcripts: Sequence[RepairTranscript] = ()) -> PointObservation:
        return self._view(PointObservation, self.base, e1, e2, transcripts)
