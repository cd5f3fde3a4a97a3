"""Exact-repair secure MBCR construction for n = d + t.

Two-stage encoding.  Stage 1 precodes (r || u) into M = k(2d+t-k) Gabidulin
evaluations x_1..x_M over GF(p^M).  Stage 2 places them:

  part (a)  x_1..x_nk direct-stored, k per node (node i holds x_{(i-1)k+1..ik});
  part (b)  the remaining k(d-k) symbols, in d-k groups of k, each group
            spread over all n nodes through a base-field (n,k) Vandermonde
            MDS code (values y_{j,i});
  secondary each node's d primary symbols (its x block plus its y values) are
            re-encoded by a base-field d x (n-1) Cauchy matrix Phi, every
            square minor of which is nonsingular ([I_d Phi] generates an MDS
            code); the n-1 outputs are scattered one per other node (z values).

Every stored symbol is therefore a base-field combination of the M Gabidulin
evaluations, i.e. an evaluation of the precoding polynomial at a point of
GF(p)^M; secrecy reduces to the GF(p) rank of those points (the Moore-rank
lemma, see coopdss.secrecy).  The points are closed forms too.  Node i's x
symbols are the unit vectors on its x block, and its y value of group j is
its y-code column on the coordinates of group j.  These sit on disjoint
coordinates, so the point of a z value of node `source`, made with Phi
column c, is c's first k entries on source's x block and c[k+j] times
source's y-code column on each group j (`_z_point`); no coordinate is
scanned.

Phi and p are closed forms, not a search (see `find_structure`):
p = binomial_prime(d+n-1, M), the smallest prime >= d+n-1
with p = 1 mod rad(M) (and mod 4 when 4 | M), so GF(p^M) has a binomial
modulus; p >= d+n-1 leaves room for the d+n-1 distinct Cauchy points, so any
n = d + t can be built.

Repair of a failure set T (|T| = t = n - d): each survivor sends the z value
it stores for each failed node (one symbol; the d of them pin down the failed
node's d primary symbols through Phi), then every node, survivors and fellow
newcomers alike, re-derives and sends the z value the failed node used to
store for it (one more symbol).  That is beta = 2 from each live node and
beta' = 1 from each cooperating newcomer, gamma = 2d+t-1 = alpha.

Repair and reconstruction eliminate nothing: the y-code is inverted by
`vandermonde_inverse` on the contacted nodes' points, and a square block of
Phi, a scaled Cauchy matrix, by `cauchy_inverse` and the scales
(`_phi_block_inverse`).  Both inverses depend only on the failure set, the
helpers or the contacted nodes, never on data, so they come from bounded
process-wide caches of immutable rows: `vandermonde_inverse_rows` (256
entries, keyed by (p, points)) and `_phi_block_rows` (64 entries, keyed by
(p, d, Phi columns, size)).

Encoding after the precoding, reconstruction before its inverse, and every
repair round run as plans (see `codes.base.RepairPlan`), straight-line
programs of GF(p)-row steps over stored symbols, each step a GF(p)-scaled
sum reduced once.  The encode plan (`_encode_plan`, keyed by params) stores
the x blocks verbatim and makes each y value (a y-code column over its
group) and each z value (a Phi column over the source's primary) in one
step.  The reconstruct plan (`_reconstruct_plan`, keyed by the contacted
nodes) copies their x blocks, inverts the y-code per group, and rebuilds
every other node's x block with one step per symbol: a row of the inverse
Phi block over the z values it made for them, less their y part.  Only the
u rows of the inverse Moore map then run.  A repair plan (`_repair_plan`,
keyed by (params, failed, helpers)) takes the z values the helpers send
first as slot references with no step; each rebuilt primary symbol is one
step (a row of the inverse Phi block over those d slots), and each z value
sent in the second phase is one step (a Phi column over the sender's d
primary slots): t(2d+t-1) steps per round.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Iterable, Mapping, Sequence

from ..field import (
    binomial_prime,
    cauchy_inverse,
    ext_field,
    fits_word_slots,
    moore_matrix,  # noqa: F401  re-exported: perfbench's tracer wraps it by this name
    prime_field,
    vandermonde_inverse_rows,
)
from .base import (
    GabidulinScheme,
    NodeContent,
    ParameterError,
    PlanBuilder,
    PointObservation,
    RepairPlan,
    RepairTranscript,
    SchemeParams,
)


def _base_prime(n: int, d: int, m_total: int) -> int:
    """The least prime >= d+n-1 (room for the d+n-1 distinct Cauchy points)
    over which GF(p^M) has a binomial modulus."""
    return binomial_prime(d + n - 1, m_total)


def find_structure(n: int, d: int, m_total: int) -> tuple[int, list[list[int]]]:
    """The base prime p and the d x (n-1) secondary generator Phi over GF(p).

    Phi is the Cauchy matrix C[s][c] = 1/(x_s - y_c) on x_s = s and
    y_c = d + c, scaled so that row 0 and column 0 are all ones:
    Phi[s][c] = C[s][c] C[0][0] / (C[s][0] C[0][c]) = (d-s)(d+c) / (d(d+c-s)).
    A Cauchy matrix on distinct, disjoint points is superregular, every
    square minor is nonsingular (MacWilliams & Sloane ch. 11), and nonzero
    row and column scalings keep it so.  The d+n-1 points are distinct in
    GF(p) because p >= d+n-1.
    """
    p = _base_prime(n, d, m_total)
    inv_d = pow(d, p - 2, p)
    phi = [[(d - s) * (d + c) * inv_d * pow(d + c - s, p - 2, p) % p for c in range(n - 1)]
           for s in range(d)]
    return p, phi


def _phi_block_inverse(p: int, d: int, cols: Sequence[int], size: int) -> list[list[int]]:
    """Inverse over GF(p) of the block R[h][s] = Phi[s][cols[h]], s < size,
    with len(cols) = size.

    Phi[s][c] = a_s b_c / (y_c - x_s) with x_s = s, y_c = b_c = d + c and
    a_s = (d - s) / d (see `find_structure`), so R = diag(b) C diag(a) for
    the Cauchy matrix C[h][s] = 1/(y_{cols[h]} - s), and
    R^-1[s][h] = C^-1[s][h] / (a_s b_{cols[h]}).
    """
    ys = [d + c for c in cols]
    c_inv = cauchy_inverse(p, ys, range(size))
    inv_b = [pow(y, p - 2, p) for y in ys]
    out = []
    for s, row in enumerate(c_inv):
        inv_a = d * pow(d - s, p - 2, p)
        out.append([ci * inv_a * ib % p for ci, ib in zip(row, inv_b)])
    return out


@lru_cache(maxsize=64)
def _phi_block_rows(p: int, d: int, cols: tuple[int, ...], size: int) -> tuple[tuple[int, ...], ...]:
    """`_phi_block_inverse` as a tuple of tuples, from a bounded process-wide
    cache keyed by (p, d, cols, size); cols must be a tuple.

    A block depends only on the failed node and the nodes it meets, so a
    lifetime meets the same few blocks again (at most n C(n-1, t-1) repair
    blocks per instance).  Worst case: 64 entries of size^2 ints below p,
    about 36 size^2 bytes each, size <= d: under 1 KB for the d <= 5 of the
    benchmark, and never more than the lists `_phi_block_inverse` builds for
    the same call (the word-slot cap admits d up to about 3500).  A repair
    adds at most t entries, a reconstruct at most n - k.
    """
    return tuple(map(tuple, _phi_block_inverse(p, d, cols, size)))


class MbcrExactScheme(GabidulinScheme):
    """Secrecy-capacity-achieving exact-repair MBCR code for n = d + t.

    Observation points are written from the closed forms (`_stored_rows`,
    `_z_point`), each in O(M) steps; the base class keeps them in its
    process-wide row tables."""

    name = "mbcr-exact"

    @classmethod
    def node_format(cls, params: SchemeParams) -> tuple[int, int, int, tuple[tuple[str, int], ...]]:
        params.validate()
        n, k, d, t = params.n, params.k, params.d, params.t
        if n != d + t:
            raise ParameterError(f"{cls.name} requires n = d + t")
        m_total = k * (2 * d + t - k)
        # the word-width cap falls as p grows: refuse at the least candidate
        # p before any primality test
        if m_total > 1 and not fits_word_slots(d + n - 1, m_total):
            raise ParameterError(f"GF(p^{m_total}), p >= {d + n - 1}, is too large "
                                 "for 64-bit digit slots")
        return (_base_prime(n, d, m_total), m_total, 2 * d + t - 1,
                (("x", k), ("y", d - k), ("z", n - 1)))

    def __init__(self, params: SchemeParams):
        p, m_total, self.alpha, self.layout = self.node_format(params)
        n, k, d, t = params.n, params.k, params.d, params.t
        self.params = params
        # at MBCR a download-observing eavesdropper learns nothing extra,
        # so l2 folds into an effective l1
        self.ell = params.l1 + params.l2
        self.file_size = m_total
        self.beta = 2
        self.beta_prime = 1
        self.secure_size = (k - self.ell) * (2 * d + t - k - self.ell)

        # the field first: its word-width check rejects an oversized M (a
        # forged header) before the d x (n-1) Phi is built
        self.field = ext_field(p, m_total)
        _, phi = find_structure(n, d, m_total)  # phi: d x (n-1)
        self.base = prime_field(p)
        # base-field generator matrices (plain ints mod p): Phi's n-1 columns,
        # as tuples that a repair plan keeps as its step rows, and the
        # y-code's column (1, x, ..., x^(k-1)) at the point x = i-1 of node i
        self.phi_cols = list(zip(*phi))
        self.y_cols = [tuple(pow(x, l, p) for l in range(k)) for x in range(n)]

    # -- placement bookkeeping -------------------------------------------------

    def _others(self, i: int) -> list[int]:
        return [j for j in range(1, self.params.n + 1) if j != i]

    def _phi_col(self, source: int, stored_at: int) -> int:
        """Column of Phi assigned to `stored_at` among `source`'s n-1 peers."""
        return stored_at - 1 if stored_at < source else stored_at - 2

    def _z_point(self, source: int, stored_at: int) -> list[int]:
        """Point of the z value `source` stores at `stored_at`, in closed
        form (see the module docstring)."""
        p, n, k = self.base.p, self.params.n, self.params.k
        c = self.phi_cols[self._phi_col(source, stored_at)]
        y = self.y_cols[source - 1]
        v = [0] * self.file_size
        v[(source - 1) * k:source * k] = c[:k]
        for j, cj in enumerate(c[k:]):
            v[n * k + j * k:n * k + (j + 1) * k] = [cj * yl % p for yl in y]
        return v

    def _stored_rows(self, i: int) -> list[list[int]]:
        """Evaluation-point vectors (base coordinates) of node i's symbols:
        k unit vectors on its x block, its y column on each of the d-k
        part-b groups, then one z point per peer."""
        n, k, d = self.params.n, self.params.k, self.params.d
        m_total = self.file_size
        rows = []
        for s in range(k):
            v = [0] * m_total
            v[(i - 1) * k + s] = 1
            rows.append(v)
        for j in range(d - k):
            v = [0] * m_total
            v[n * k + j * k:n * k + (j + 1) * k] = self.y_cols[i - 1]
            rows.append(v)
        return rows + [self._z_point(src, i) for src in self._others(i)]

    # -- encode and reconstruct -------------------------------------------------

    def encode(self, u: Sequence[int], r: Sequence[int]) -> list[NodeContent]:
        self._check_inputs(u, r)
        return self._encode_nodes(self._precode(u, r))

    def _encode_plan(self, b=None) -> RepairPlan:
        """Node i stores its x block verbatim, its y value of each part-b
        group (its y-code column over the group: one step each), then the z
        value each peer makes for it from the peer's primary (a Phi column
        over it: one step each)."""
        n, k, d = self.params.n, self.params.k, self.params.d
        b = b or PlanBuilder(self.alpha, self.field)
        x = tuple(b.symbol(0, j) for j in range(self.file_size))
        groups = [x[n * k + j * k:n * k + (j + 1) * k] for j in range(d - k)]
        primary = {i: x[(i - 1) * k:i * k] + tuple(b.step(self.y_cols[i - 1], g) for g in groups)
                   for i in range(1, n + 1)}
        return b.plan((i, [*primary[i], *[b.step(self.phi_cols[self._phi_col(src, i)], primary[src])
                                          for src in self._others(i)]])
                      for i in range(1, n + 1))

    def reconstruct(self, contents: Sequence[NodeContent]) -> tuple[int, ...]:
        return self._secret_from_evaluations(self._decode(contents))

    def _reconstruct_plan(self, ids: tuple[int, ...], b=None) -> RepairPlan:
        """x from the nodes `ids`: their x blocks verbatim; each part-b
        group by the inverse y-code over their y values of it; every other
        node i's x block by the inverse Phi block over the z values i made
        for them, less their y part: i's y values, from the groups."""
        n, k, d, p = self.params.n, self.params.k, self.params.d, self.base.p
        b = b or PlanBuilder(self.file_size, self.field)
        x = [0] * self.file_size
        for i in ids:
            x[(i - 1) * k:i * k] = [b.symbol(i, s) for s in range(k)]
        y_inv = vandermonde_inverse_rows(p, tuple(i - 1 for i in ids))
        for j in range(d - k):
            vals = tuple(b.symbol(i, k + j) for i in ids)
            x[n * k + j * k:n * k + (j + 1) * k] = [b.step(row, vals) for row in y_inv]
        groups = [tuple(x[n * k + j * k:n * k + (j + 1) * k]) for j in range(d - k)]
        for i in sorted(set(range(1, n + 1)) - set(ids)):
            # x_i = R (z - Phi_y y_i) for the inverse R of i's Phi block on ids:
            # one row over i's z values at ids, then its y values
            cols = tuple(self._phi_col(i, c) for c in ids)
            src = (*[b.symbol(c, d + self._phi_col(c, i)) for c in ids],
                   *[b.step(self.y_cols[i - 1], g) for g in groups])
            phi_y = [self.phi_cols[col][k:] for col in cols]
            x[(i - 1) * k:i * k] = [
                b.step((*row, *[-sum(map(mul, row, col)) % p for col in zip(*phi_y)]), src)
                for row in _phi_block_rows(p, d, cols, k)]
        return b.plan([(0, x)])

    # -- repair -------------------------------------------------------------------

    def cooperative_repair(self, failed: Iterable[int],
                           survivors: Mapping[int, NodeContent],
                           helpers: Sequence[int] | None = None) -> RepairTranscript:
        return self._repair(failed, survivors, helpers)

    def _check_helpers(self, helpers: tuple[int, ...],
                       survivors: Mapping[int, NodeContent]) -> None:
        if set(helpers) != set(survivors):
            raise ParameterError(f"{self.name} repair contacts all d = n-t survivors")

    def _repair_plan(self, failed: frozenset[int], helpers: tuple[int, ...], b=None) -> RepairPlan:
        """Each helper h sends its stored z value for newcomer i (symbol
        d + its Phi column of i, verbatim); the d of them give i's primary
        through the inverse Phi block.  Then h sends the z value i stores
        for it, from h's primary (its first d symbols), and each fellow
        newcomer m the one from m's rebuilt primary: one step each."""
        d, p = self.params.d, self.base.p
        order = sorted(failed)
        b = b or PlanBuilder(self.alpha, self.field)
        primary = {h: [b.symbol(h, s) for s in range(d)] for h in helpers}
        z_from = {}  # (source, newcomer) -> slot of the z value source sends
        for i in order:
            got = [b.symbol(h, d + self._phi_col(h, i)) for h in helpers]
            cols = tuple(self._phi_col(i, h) for h in helpers)
            primary[i] = [b.step(row, got) for row in _phi_block_rows(p, d, cols, d)]
            for h, slot in zip(helpers, got):
                b.live[(h, i)] = [slot]
        for i in order:
            for h in helpers:
                z_from[(h, i)] = b.step(self.phi_cols[self._phi_col(h, i)], primary[h])
                b.live[(h, i)].append(z_from[(h, i)])
            for m in order:
                if m != i:
                    z_from[(m, i)] = b.step(self.phi_cols[self._phi_col(m, i)], primary[m])
                    b.coop[(m, i)] = [z_from[(m, i)]]
        return b.plan((i, primary[i] + [z_from[(src, i)] for src in self._others(i)])
                      for i in order)

    # -- observation ----------------------------------------------------------------

    def _download_rows(self, tr: RepairTranscript, i: int) -> list[list[int]]:
        rows = []
        for h in tr.helpers:
            rows += [self._z_point(i, h), self._z_point(h, i)]
        return rows + [self._z_point(m, i) for m in sorted(tr.failed - {i})]

    def observation_matrix(self, e1: Iterable[int], e2: Iterable[int],
                           transcripts: Sequence[RepairTranscript] = ()) -> PointObservation:
        return self._point_observation(e1, e2, transcripts)
